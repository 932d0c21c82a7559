/// \file distributed_groupby_test.cc
/// \brief The distributed grouped-kernel path end to end: randomized
/// GROUP BY queries over columnar-registered sharded tables must return
/// bit-identical rows (canonical ordering) to the single-node oracle —
/// across NULL keys, dictionary-string keys, multi-column keys, empty
/// shards, kernel vs forced-materialize vs row fallback, and inline vs
/// pooled scatter. Also pins every `columnar.fallback_*`
/// counter to its branch and the EXPLAIN surfacing. Runs under the tsan
/// preset via scripts/check.sh.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/distributed_sql.h"
#include "common/rng.h"
#include "optimizer/sql_session.h"

namespace ofi::cluster {
namespace {

using sql::Row;
using sql::Table;

std::string RowKey(const Row& row) {
  std::string key;
  for (const auto& v : row) {
    key += v.is_null() ? "\x01<null>" : v.ToString();
    key += '\x1f';
  }
  return key;
}

std::vector<std::string> Canonical(const Table& t) {
  std::vector<std::string> keys;
  keys.reserve(t.num_rows());
  for (const auto& row : t.rows()) keys.push_back(RowKey(row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ExpectSameRows(const Table& got, const Table& want,
                    const std::string& context) {
  EXPECT_EQ(got.schema().num_columns(), want.schema().num_columns()) << context;
  auto g = Canonical(got);
  auto w = Canonical(want);
  ASSERT_EQ(g.size(), w.size()) << context;
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i], w[i]) << context << " row " << i;
  }
}

/// Exact (order-sensitive) equality: the determinism contract between two
/// distributed runs of the same plan.
void ExpectIdenticalTables(const Table& a, const Table& b,
                           const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(RowKey(a.rows()[i]), RowKey(b.rows()[i]))
        << context << " row " << i;
  }
}

class DistributedGroupByTest : public ::testing::Test {
 protected:
  DistributedGroupByTest() : dist_(4), local_(/*capture_threshold=*/-1) {}

  void Exec(const std::string& stmt) {
    auto d = dist_.Execute(stmt);
    ASSERT_TRUE(d.ok()) << stmt << ": " << d.status().ToString();
    auto l = local_.Execute(stmt);
    ASSERT_TRUE(l.ok()) << stmt << ": " << l.status().ToString();
  }

  Table Query(const std::string& query) {
    auto d = dist_.Execute(query);
    EXPECT_TRUE(d.ok()) << query << ": " << d.status().ToString();
    auto l = local_.Execute(query);
    EXPECT_TRUE(l.ok()) << query << ": " << l.status().ToString();
    if (!d.ok() || !l.ok()) return Table{};
    ExpectSameRows(*d, *l, query);
    return std::move(*d);
  }

  /// sales(id BIGINT, k BIGINT, region VARCHAR, amount BIGINT) with NULLs
  /// in the string key and the aggregated column. The leading column is the
  /// cluster's unique shard key, so ids are sequential; grouping happens on
  /// the low-cardinality k / region columns.
  void CreateAndLoadSales(uint64_t seed, int rows) {
    Exec("CREATE TABLE sales (id BIGINT, k BIGINT, region VARCHAR, "
         "amount BIGINT)");
    Rng rng(seed);
    const char* regions[] = {"east", "west", "north", "south", "central"};
    for (int i = 0; i < rows; ++i) {
      std::string region = rng.Chance(0.1)
                               ? "NULL"
                               : "'" + std::string(regions[rng.Uniform(0, 4)]) +
                                     "'";
      std::string amount =
          rng.Chance(0.08) ? "NULL" : std::to_string(rng.Uniform(-200, 800));
      Exec("INSERT INTO sales VALUES (" + std::to_string(i) + ", " +
           std::to_string(rng.Uniform(0, 30)) + ", " + region + ", " + amount +
           ")");
    }
  }

  int64_t Metric(const std::string& name) {
    return dist_.cluster().metrics().Get(name);
  }

  DistributedSqlSession dist_;
  optimizer::SqlSession local_;
};

TEST_F(DistributedGroupByTest, RandomizedGroupedKernelEquivalence) {
  CreateAndLoadSales(/*seed=*/31, /*rows=*/300);
  ASSERT_TRUE(dist_.RegisterColumnar("sales").ok());
  const int64_t filter0 = Metric("columnar.fallback_filter");
  const int64_t agg0 = Metric("columnar.fallback_agg");
  const int64_t gb0 = Metric("columnar.fallback_groupby_type");

  Rng rng(42);
  struct Shape {
    const char* select_list;
    const char* group_by;
  };
  const Shape shapes[] = {
      {"k, COUNT(*) AS n, SUM(amount) AS s, MIN(amount) AS lo, "
       "MAX(amount) AS hi, AVG(amount) AS a",
       "k"},
      {"region, COUNT(*) AS n, SUM(amount) AS s", "region"},
      {"region, k, SUM(amount) AS s, COUNT(amount) AS c", "region, k"},
  };
  for (const Shape& shape : shapes) {
    for (int round = 0; round < 3; ++round) {
      std::string sql = "SELECT " + std::string(shape.select_list) +
                        " FROM sales";
      if (round > 0) {
        sql += " WHERE amount > " + std::to_string(rng.Uniform(-250, 700));
      }
      sql += " GROUP BY " + std::string(shape.group_by);
      Query(sql);
      ASSERT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
      // Every fresh shard ran the grouped kernel — no fallback of any kind.
      EXPECT_EQ(dist_.last().stats.columnar_shards, 4u) << sql;
      ASSERT_EQ(dist_.last().stats.per_dn.size(), 4u) << sql;
      for (const auto& info : dist_.last().stats.per_dn) {
        EXPECT_EQ(info.path, "columnar(grouped-kernel)") << sql;
      }
    }
  }
  EXPECT_EQ(Metric("columnar.fallback_filter"), filter0);
  EXPECT_EQ(Metric("columnar.fallback_agg"), agg0);
  EXPECT_EQ(Metric("columnar.fallback_groupby_type"), gb0);
}

TEST_F(DistributedGroupByTest, EmptyShardsContributeNothing) {
  Exec("CREATE TABLE sales (id BIGINT, k BIGINT, region VARCHAR, "
       "amount BIGINT)");
  // Three rows over four DNs: at least one shard's columnar copy is empty.
  Exec("INSERT INTO sales VALUES (1, 1, 'east', 10), (2, 1, 'east', 20), "
       "(3, 1, 'west', NULL)");
  ASSERT_TRUE(dist_.RegisterColumnar("sales").ok());
  Table t = Query(
      "SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM sales "
      "GROUP BY region");
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(dist_.last().distributed);
  EXPECT_EQ(dist_.last().stats.columnar_shards, 4u);
}

TEST_F(DistributedGroupByTest, InlineScatterIsBitIdenticalToPooled) {
  CreateAndLoadSales(/*seed=*/37, /*rows=*/400);
  ASSERT_TRUE(dist_.RegisterColumnar("sales").ok());
  const std::string sql =
      "SELECT region, k, COUNT(*) AS n, SUM(amount) AS s, MIN(amount) AS lo "
      "FROM sales GROUP BY region, k";
  auto pooled = dist_.Execute(sql);
  ASSERT_TRUE(pooled.ok());
  dist_.exec_options().parallel = false;
  for (int round = 0; round < 3; ++round) {
    auto inline_run = dist_.Execute(sql);
    ASSERT_TRUE(inline_run.ok());
    // Same partial tables per shard -> same gathered order -> identical
    // rows in identical order, not just as a set.
    ExpectIdenticalTables(*pooled, *inline_run, sql);
  }
}

TEST_F(DistributedGroupByTest, ForcedMaterializeMatchesKernelAndCostsMore) {
  CreateAndLoadSales(/*seed=*/41, /*rows=*/300);
  ASSERT_TRUE(dist_.RegisterColumnar("sales").ok());
  const std::string sql =
      "SELECT k, COUNT(*) AS n, SUM(amount) AS s FROM sales GROUP BY k";
  auto kernel = dist_.Execute(sql);
  ASSERT_TRUE(kernel.ok());
  const auto kstats = dist_.last().stats;
  for (const auto& info : kstats.per_dn) {
    EXPECT_EQ(info.path, "columnar(grouped-kernel)");
  }

  std::optional<Table> mat;
  {
    ForceColumnarMaterializeForTesting force;
    auto forced = dist_.Execute(sql);
    ASSERT_TRUE(forced.ok());
    mat = std::move(*forced);
  }
  const auto mstats = dist_.last().stats;
  for (const auto& info : mstats.per_dn) {
    EXPECT_EQ(info.path, "columnar(materialize:forced)");
  }
  // Same group set either way; the orders differ (kernel = first appearance
  // in chunk order, row executor = hash-map iteration), so compare
  // canonically.
  ExpectSameRows(*kernel, *mat, sql);
  // The kernel reads only the referenced columns (k, amount); materialize
  // decodes whole rows (all four columns) — strictly more column-chunks
  // and a strictly higher simulated latency on the same data.
  EXPECT_LT(kstats.scan_stats.chunks_scanned, mstats.scan_stats.chunks_scanned);
  EXPECT_LT(kstats.sim_latency_us, mstats.sim_latency_us);
}

TEST_F(DistributedGroupByTest, EveryFallbackReasonHasItsOwnCounter) {
  Exec("CREATE TABLE mixed (k BIGINT, region VARCHAR, amount BIGINT, "
       "weight DOUBLE)");
  Exec("INSERT INTO mixed VALUES (1, 'east', 10, 1.5), (2, 'west', 20, 2.5), "
       "(3, 'east', 30, 3.5), (4, NULL, NULL, 4.5)");
  ASSERT_TRUE(dist_.RegisterColumnar("mixed").ok());

  // Unrecognized filter (OR): lowering pre-demotes to the row path.
  const int64_t filter0 = Metric("columnar.fallback_filter");
  Query("SELECT k, SUM(amount) AS s FROM mixed WHERE k < 2 OR k > 3 "
        "GROUP BY k");
  EXPECT_TRUE(dist_.last().distributed);
  EXPECT_GT(Metric("columnar.fallback_filter"), filter0);
  EXPECT_EQ(dist_.last().stats.columnar_shards, 0u);

  // Unsupported aggregate input type (DOUBLE): columnar materialize path.
  const int64_t agg0 = Metric("columnar.fallback_agg");
  {
    auto d = dist_.Execute("SELECT k, SUM(weight) AS w FROM mixed GROUP BY k");
    ASSERT_TRUE(d.ok()) << d.status().ToString();
  }
  EXPECT_GT(Metric("columnar.fallback_agg"), agg0);
  for (const auto& info : dist_.last().stats.per_dn) {
    EXPECT_EQ(info.path, "columnar(materialize:agg)");
  }

  // Unsupported group-key type (DOUBLE): columnar materialize path, exact
  // results either way (grouping only, int64 aggregate).
  const int64_t gb0 = Metric("columnar.fallback_groupby_type");
  Query("SELECT weight, SUM(amount) AS s FROM mixed GROUP BY weight");
  EXPECT_GT(Metric("columnar.fallback_groupby_type"), gb0);
  for (const auto& info : dist_.last().stats.per_dn) {
    EXPECT_EQ(info.path, "columnar(materialize:groupby-type)");
  }

  // A write after registration is NOT a fallback reason: the mutated shard
  // serves the new row from its delta tail and stays on the grouped kernel.
  const int64_t delta0 = Metric("columnar.delta_rows");
  Exec("INSERT INTO mixed VALUES (5, 'west', 50, 5.0)");
  Query("SELECT k, SUM(amount) AS s FROM mixed GROUP BY k");
  EXPECT_GT(Metric("columnar.delta_rows"), delta0);
  for (const auto& info : dist_.last().stats.per_dn) {
    EXPECT_EQ(info.path, "columnar(grouped-kernel)");
  }
  EXPECT_GE(dist_.last().stats.scan_stats.delta_rows, 1u);
}

TEST_F(DistributedGroupByTest, ExplainShowsGroupedKernelAndPerDnForecast) {
  CreateAndLoadSales(/*seed=*/47, /*rows=*/60);
  ASSERT_TRUE(dist_.RegisterColumnar("sales").ok());
  auto plan = dist_.Explain(
      "SELECT region, SUM(amount) AS s FROM sales WHERE amount > 100 "
      "GROUP BY region");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("scan=columnar(grouped-kernel)"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("scan forecast:"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("dn0 sales: columnar(grouped-kernel)"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("prune~"), std::string::npos) << *plan;

  // The realized per-DN report matches after execution.
  Query("SELECT region, SUM(amount) AS s FROM sales WHERE amount > 100 "
        "GROUP BY region");
  std::string report = dist_.LastScanReport();
  EXPECT_NE(report.find("columnar(grouped-kernel) chunks="), std::string::npos)
      << report;

  // An unsupported group key is advertised as the materialize fallback.
  Exec("CREATE TABLE weights (w DOUBLE, v BIGINT)");
  Exec("INSERT INTO weights VALUES (1.5, 10)");
  ASSERT_TRUE(dist_.RegisterColumnar("weights").ok());
  auto plan2 = dist_.Explain("SELECT w, SUM(v) AS s FROM weights GROUP BY w");
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->find("scan=columnar(materialize:groupby-type)"),
            std::string::npos)
      << *plan2;
}

}  // namespace
}  // namespace ofi::cluster
