/// End-to-end distributed SQL: statements through the text front-end,
/// lowered onto the distributed physical-operator layer, must return
/// bit-identical rows (canonical ordering) to the ordinary single-node
/// executor over the same data — across randomized filters, NULLs, joins,
/// GROUP BYs, empty shards and a downed primary. Aggregate arguments stay
/// int64: partial SUM/COUNT states are exact, so even AVG's CN-side
/// division is reproducible (both sides divide the same exact operands).
#include <algorithm>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "cluster/distributed_sql.h"
#include "common/rng.h"
#include "dist_plans.h"
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

/// Both sessions fed identical statements; every SELECT is answered twice
/// and compared. The single-node optimizer::SqlSession is the oracle.
class DistributedSqlTest : public ::testing::Test {
 protected:
  DistributedSqlTest() : dist_(4), local_(/*capture_threshold=*/-1) {}

  void Exec(const std::string& stmt) {
    auto d = dist_.Execute(stmt);
    ASSERT_TRUE(d.ok()) << stmt << ": " << d.status().ToString();
    auto l = local_.Execute(stmt);
    ASSERT_TRUE(l.ok()) << stmt << ": " << l.status().ToString();
  }

  /// Runs one SELECT on both sessions, asserts identical rows, returns the
  /// distributed result for extra assertions.
  Table Query(const std::string& query) {
    auto d = dist_.Execute(query);
    EXPECT_TRUE(d.ok()) << query << ": " << d.status().ToString();
    auto l = local_.Execute(query);
    EXPECT_TRUE(l.ok()) << query << ": " << l.status().ToString();
    if (!d.ok() || !l.ok()) return Table{};
    ExpectSameRows(*d, *l, query);
    return std::move(*d);
  }

  void CreateOrdersCustomers() {
    Exec("CREATE TABLE orders (o_id BIGINT, cust BIGINT, amount BIGINT, "
         "qty BIGINT)");
    Exec("CREATE TABLE customers (c_id BIGINT, segment BIGINT)");
  }

  /// Random data with NULL keys/amounts sprinkled in; dangling cust ids on
  /// purpose (they must drop out of inner joins on both paths).
  void LoadRandom(uint64_t seed, int orders, int customers) {
    Rng rng(seed);
    for (int64_t c = 0; c < customers; ++c) {
      Exec("INSERT INTO customers VALUES (" + std::to_string(c) + ", " +
           std::to_string(rng.Uniform(0, 3)) + ")");
    }
    for (int64_t o = 0; o < orders; ++o) {
      std::string cust = rng.Chance(0.08)
                             ? "NULL"
                             : std::to_string(rng.Uniform(0, customers + 4));
      std::string amount =
          rng.Chance(0.05) ? "NULL" : std::to_string(rng.Uniform(1, 500));
      Exec("INSERT INTO orders VALUES (" + std::to_string(o) + ", " + cust +
           ", " + amount + ", " + std::to_string(rng.Uniform(1, 9)) + ")");
    }
  }

  DistributedSqlSession dist_;
  optimizer::SqlSession local_;
};

TEST_F(DistributedSqlTest, RandomizedScanEquivalence) {
  CreateOrdersCustomers();
  LoadRandom(101, 120, 20);
  Rng rng(202);
  const char* ops[] = {">", "<", "=", ">=", "<="};
  for (int q = 0; q < 12; ++q) {
    std::string pred = "amount " + std::string(ops[q % 5]) + " " +
                       std::to_string(rng.Uniform(0, 520));
    Query("SELECT o_id, amount FROM orders WHERE " + pred);
    EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
    Query("SELECT * FROM orders WHERE " + pred + " AND qty > " +
          std::to_string(rng.Uniform(0, 8)));
  }
  // Unfiltered + ORDER BY + LIMIT exercise the CN-side post pipeline.
  Query("SELECT * FROM orders");
  Query("SELECT o_id, amount FROM orders ORDER BY o_id LIMIT 10");
  EXPECT_TRUE(dist_.last().distributed);
}

TEST_F(DistributedSqlTest, RandomizedAggregateEquivalence) {
  CreateOrdersCustomers();
  LoadRandom(303, 150, 25);
  Rng rng(404);
  for (int q = 0; q < 10; ++q) {
    std::string where =
        rng.Chance(0.5)
            ? (" WHERE amount > " + std::to_string(rng.Uniform(0, 400)))
            : "";
    // Global: one row, COUNT 0 / NULL extrema when the filter kills all.
    Query("SELECT COUNT(*) AS n, SUM(amount) AS s, MIN(amount) AS lo, "
          "MAX(amount) AS hi, AVG(amount) AS av FROM orders" + where);
    EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
    // Grouped: NULL cust forms its own group on both paths.
    Query("SELECT cust, COUNT(*) AS n, SUM(qty) AS q FROM orders" + where +
          " GROUP BY cust");
    EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
  }
  Query("SELECT COUNT(cust) AS nonnull, COUNT(*) AS all_rows FROM orders");
}

TEST_F(DistributedSqlTest, RandomizedJoinEquivalence) {
  CreateOrdersCustomers();
  LoadRandom(606, 140, 18);
  dist_.Analyze();
  local_.Analyze();
  Rng rng(707);
  for (int q = 0; q < 8; ++q) {
    std::string where = " WHERE amount > " + std::to_string(rng.Uniform(0, 450));
    Query("SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM orders "
          "JOIN customers ON cust = c_id" + where + " GROUP BY segment");
    EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
    EXPECT_TRUE(dist_.last().stats.joined);
    Query("SELECT o_id, amount, segment FROM orders JOIN customers ON "
          "cust = c_id" + where);
  }
  // Residual predicate on the joined row (cross-relation, not the hash key).
  Query("SELECT COUNT(*) AS n FROM orders JOIN customers ON cust = c_id "
        "WHERE amount > segment");
  EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
}

TEST_F(DistributedSqlTest, EmptyTablesAndEmptyShards) {
  CreateOrdersCustomers();
  // Fully empty: global agg yields the COUNT=0 row, grouped agg none.
  Query("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders");
  Query("SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust");
  Query("SELECT * FROM orders WHERE amount > 10");
  // Two rows: most shards stay empty.
  Exec("INSERT INTO orders VALUES (1, 5, 100, 1)");
  Exec("INSERT INTO customers VALUES (5, 2)");
  Query("SELECT segment, SUM(amount) AS s FROM orders JOIN customers ON "
        "cust = c_id GROUP BY segment");
  EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
}

TEST_F(DistributedSqlTest, FailoverServesEveryShardExactlyOnce) {
  CreateOrdersCustomers();
  ASSERT_TRUE(dist_.cluster().EnableReplication().ok());
  LoadRandom(808, 100, 15);
  ASSERT_TRUE(dist_.cluster().FailDn(2).ok());

  Query("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders");
  EXPECT_TRUE(dist_.last().distributed);
  EXPECT_EQ(dist_.last().stats.num_serving, 3);
  Query("SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust");
  Query("SELECT segment, SUM(amount) AS s FROM orders JOIN customers ON "
        "cust = c_id WHERE amount > 100 GROUP BY segment");
  EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
}

TEST_F(DistributedSqlTest, ColumnarPathStaysFreshAndRefreshMerges) {
  CreateOrdersCustomers();
  LoadRandom(909, 120, 15);
  ASSERT_TRUE(dist_.RegisterColumnar("orders").ok());

  Query("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE "
        "amount > 250");
  EXPECT_TRUE(dist_.last().distributed);
  EXPECT_EQ(dist_.last().stats.columnar_shards, 4u);

  // A write lands in the mutated shard's delta tail; every shard stays
  // columnar and the new row is visible immediately. RefreshColumnar then
  // folds the tail so the next scan is all sealed chunks again.
  Exec("INSERT INTO orders VALUES (100000, 1, 300, 1)");
  Query("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE "
        "amount > 250");
  EXPECT_EQ(dist_.last().stats.columnar_shards, 4u);
  EXPECT_GE(dist_.last().stats.scan_stats.delta_rows, 1u);
  auto merged = dist_.RefreshColumnar("orders");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 1u);
  Query("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE "
        "amount > 250");
  EXPECT_EQ(dist_.last().stats.columnar_shards, 4u);
  EXPECT_EQ(dist_.last().stats.scan_stats.delta_rows, 0u);
}

TEST_F(DistributedSqlTest, FallbackShapesStillAnswerCorrectly) {
  CreateOrdersCustomers();
  LoadRandom(111, 60, 10);

  Query("SELECT o_id, segment FROM orders LEFT JOIN customers ON "
        "cust = c_id WHERE amount > 100");
  EXPECT_FALSE(dist_.last().distributed);
  EXPECT_FALSE(dist_.last().fallback_reason.empty());

  Query("SELECT SUM(amount + qty) AS s FROM orders");
  EXPECT_FALSE(dist_.last().distributed);

  Query("SELECT DISTINCT cust FROM orders WHERE amount > 400");
  EXPECT_FALSE(dist_.last().distributed);

  Query("SELECT cust FROM orders WHERE amount > 450 UNION ALL "
        "SELECT c_id FROM customers WHERE segment = 0");
  EXPECT_FALSE(dist_.last().distributed);
}

TEST_F(DistributedSqlTest, AcceptanceJoinAggregateOverFourDns) {
  // The headline shape: SELECT with WHERE + equi-join + GROUP BY through
  // the SQL front-end, distributed across >= 3 DNs, bit-identical to the
  // single-node executor, with EXPLAIN naming scan path + join strategy.
  CreateOrdersCustomers();
  LoadRandom(1234, 200, 30);
  dist_.Analyze();
  local_.Analyze();

  const std::string q =
      "SELECT segment, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS "
      "av FROM orders JOIN customers ON cust = c_id WHERE amount > 120 "
      "GROUP BY segment";
  Table result = Query(q);
  EXPECT_GT(result.num_rows(), 0u);
  ASSERT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
  EXPECT_GE(dist_.last().stats.num_serving, 3);
  EXPECT_TRUE(dist_.last().stats.joined);

  auto explain = dist_.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("DISTRIBUTED PLAN"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("FINALAGG"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("PARTIALAGG"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("GATHER partials"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("HASHJOIN"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("DISTSCAN"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("path=row"), std::string::npos) << *explain;
  EXPECT_TRUE(explain->find("strategy=broadcast") != std::string::npos ||
              explain->find("strategy=repartition") != std::string::npos)
      << *explain;
}

TEST_F(DistributedSqlTest, CappedExchangeSpillsAndStaysEquivalent) {
  // A channel cap tiny enough that every exchange batch overflows the
  // in-memory window: the whole randomized join suite must keep returning
  // bit-identical rows (the oracle comparison inside Query), with the
  // overflow accounted in spill_bytes / exchange.bytes_spilled and every
  // temp segment cleaned up before the query returns.
  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-sql-spill-capped";
  fs::remove_all(dir);
  fs::create_directories(dir);

  CreateOrdersCustomers();
  LoadRandom(606, 140, 18);
  dist_.Analyze();
  local_.Analyze();
  dist_.exec_options().max_channel_bytes = 48;
  dist_.exec_options().spill_dir = dir.string();

  Rng rng(707);
  size_t spilling_queries = 0;
  for (int q = 0; q < 6; ++q) {
    std::string where = " WHERE amount > " + std::to_string(rng.Uniform(0, 450));
    Query("SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM orders "
          "JOIN customers ON cust = c_id" + where + " GROUP BY segment");
    ASSERT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
    EXPECT_TRUE(dist_.last().stats.joined);
    EXPECT_EQ(ChannelSpill(dist_.last().stats),
              std::make_pair(dist_.last().stats.spill_bytes,
                             dist_.last().stats.spill_segments));
    if (dist_.last().stats.spill_bytes > 0) ++spilling_queries;
    EXPECT_TRUE(fs::is_empty(dir));  // segments never outlive their query
  }
  EXPECT_EQ(spilling_queries, 6u);
  EXPECT_GT(dist_.cluster().metrics().Get("exchange.bytes_spilled"), 0);
  EXPECT_EQ(dist_.cluster().metrics().Get("exchange.bytes_denied"), 0);

  // Deterministic receive order: with the cap lifted the same query must
  // produce the identical row sequence, not just the same row set.
  const std::string q =
      "SELECT o_id, amount, segment FROM orders JOIN customers ON cust = c_id";
  auto capped = dist_.Execute(q);
  ASSERT_TRUE(capped.ok());
  EXPECT_GT(dist_.last().stats.spill_bytes, 0u);
  dist_.exec_options().max_channel_bytes = 0;
  auto uncapped = dist_.Execute(q);
  ASSERT_TRUE(uncapped.ok());
  EXPECT_EQ(dist_.last().stats.spill_bytes, 0u);
  ASSERT_EQ(capped->num_rows(), uncapped->num_rows());
  for (size_t i = 0; i < capped->num_rows(); ++i) {
    EXPECT_EQ(RowKey(capped->rows()[i]), RowKey(uncapped->rows()[i]))
        << "row order diverged at " << i;
  }
  fs::remove_all(dir);
}

TEST_F(DistributedSqlTest, PipelinedMatchesBarrierBitIdentical) {
  // Every query shape runs twice — barrier then pipelined — and must
  // produce the identical row *sequence* (not just set): the streaming
  // scatter keeps batch framing and the deterministic receive order, so
  // thread interleaving cannot leak into results.
  CreateOrdersCustomers();
  LoadRandom(1717, 140, 18);
  dist_.Analyze();
  local_.Analyze();

  Rng rng(2718);
  auto both_modes = [&](const std::string& q) {
    dist_.exec_options().pipeline = false;
    auto barrier = dist_.Execute(q);
    ASSERT_TRUE(barrier.ok()) << q << ": " << barrier.status().ToString();
    EXPECT_EQ(dist_.last().stats.batches_streamed, 0u) << q;
    dist_.exec_options().pipeline = true;
    auto piped = dist_.Execute(q);
    ASSERT_TRUE(piped.ok()) << q << ": " << piped.status().ToString();
    if (dist_.last().stats.joined) {
      EXPECT_GT(dist_.last().stats.batches_streamed, 0u) << q;
    }
    ASSERT_EQ(piped->num_rows(), barrier->num_rows()) << q;
    for (size_t i = 0; i < piped->num_rows(); ++i) {
      ASSERT_EQ(RowKey(piped->rows()[i]), RowKey(barrier->rows()[i]))
          << q << " row order diverged at " << i;
    }
  };

  for (int q = 0; q < 5; ++q) {
    std::string where =
        " WHERE amount > " + std::to_string(rng.Uniform(0, 450));
    both_modes("SELECT o_id, amount, segment FROM orders JOIN customers ON "
               "cust = c_id" + where);
    both_modes("SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM "
               "orders JOIN customers ON cust = c_id" + where +
               " GROUP BY segment");
  }
  both_modes("SELECT cust, COUNT(*) AS n, SUM(qty) AS q FROM orders "
             "GROUP BY cust");
  both_modes("SELECT * FROM orders");
  both_modes("SELECT o_id, amount FROM orders ORDER BY o_id LIMIT 10");
}

TEST_F(DistributedSqlTest, PipelinedCappedExchangeStaysEquivalentNoLeaks) {
  // Tiny channel cap under the pipelined schedule: results stay equivalent
  // to the single-node oracle, the reported spill is the channels' own,
  // and no spill segment outlives its query.
  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-sql-pipe-capped";
  fs::remove_all(dir);
  fs::create_directories(dir);

  CreateOrdersCustomers();
  LoadRandom(606, 140, 18);
  dist_.Analyze();
  local_.Analyze();
  dist_.exec_options().pipeline = true;
  dist_.exec_options().max_channel_bytes = 48;
  dist_.exec_options().spill_dir = dir.string();

  Rng rng(707);
  for (int q = 0; q < 4; ++q) {
    std::string where =
        " WHERE amount > " + std::to_string(rng.Uniform(0, 450));
    Query("SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM orders "
          "JOIN customers ON cust = c_id" + where + " GROUP BY segment");
    ASSERT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
    EXPECT_GT(dist_.last().stats.batches_streamed, 0u);
    EXPECT_GT(dist_.last().stats.spill_bytes, 0u);
    EXPECT_EQ(ChannelSpill(dist_.last().stats),
              std::make_pair(dist_.last().stats.spill_bytes,
                             dist_.last().stats.spill_segments));
    EXPECT_TRUE(fs::is_empty(dir));  // segments never outlive their query
  }

  // Identical row sequence with and without the cap, same as the barrier
  // guarantee.
  const std::string q =
      "SELECT o_id, amount, segment FROM orders JOIN customers ON cust = c_id";
  auto capped = dist_.Execute(q);
  ASSERT_TRUE(capped.ok());
  dist_.exec_options().max_channel_bytes = 0;
  auto uncapped = dist_.Execute(q);
  ASSERT_TRUE(uncapped.ok());
  ASSERT_EQ(capped->num_rows(), uncapped->num_rows());
  for (size_t i = 0; i < capped->num_rows(); ++i) {
    EXPECT_EQ(RowKey(capped->rows()[i]), RowKey(uncapped->rows()[i]))
        << "row order diverged at " << i;
  }
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST_F(DistributedSqlTest, PipelinedFailoverStaysEquivalent) {
  CreateOrdersCustomers();
  ASSERT_TRUE(dist_.cluster().EnableReplication().ok());
  LoadRandom(808, 100, 15);
  ASSERT_TRUE(dist_.cluster().FailDn(2).ok());
  dist_.exec_options().pipeline = true;

  Query("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders");
  EXPECT_TRUE(dist_.last().distributed);
  EXPECT_EQ(dist_.last().stats.num_serving, 3);
  Query("SELECT segment, SUM(amount) AS s FROM orders JOIN customers ON "
        "cust = c_id WHERE amount > 100 GROUP BY segment");
  EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
  EXPECT_GT(dist_.last().stats.batches_streamed, 0u);
}

TEST_F(DistributedSqlTest, PipelinedOverlapsProducerAndConsumerFrontiers) {
  // The deterministic overlap assertion: the same join on two identically
  // loaded clusters (same statements, same sharding — a query's sim
  // latency depends on the DN timelines, so the two modes must not share
  // one session) reports pipeline_overlap_us > 0 in pipelined mode (some
  // consumer decode began before the last producer finished) and finishes
  // no later in simulated time than the barrier run.
  DistributedSqlSession barrier_sess(4);
  DistributedSqlSession piped_sess(4);
  auto exec_both = [&](const std::string& stmt) {
    ASSERT_TRUE(barrier_sess.Execute(stmt).ok()) << stmt;
    ASSERT_TRUE(piped_sess.Execute(stmt).ok()) << stmt;
  };
  exec_both("CREATE TABLE orders (o_id BIGINT, cust BIGINT, amount BIGINT, "
            "qty BIGINT)");
  exec_both("CREATE TABLE customers (c_id BIGINT, segment BIGINT)");
  Rng rng(3141);
  for (int64_t c = 0; c < 20; ++c) {
    exec_both("INSERT INTO customers VALUES (" + std::to_string(c) + ", " +
              std::to_string(rng.Uniform(0, 3)) + ")");
  }
  for (int64_t o = 0; o < 160; ++o) {
    exec_both("INSERT INTO orders VALUES (" + std::to_string(o) + ", " +
              std::to_string(rng.Uniform(0, 20)) + ", " +
              std::to_string(rng.Uniform(1, 500)) + ", " +
              std::to_string(rng.Uniform(1, 9)) + ")");
  }
  barrier_sess.Analyze();
  piped_sess.Analyze();
  piped_sess.exec_options().pipeline = true;

  const std::string q =
      "SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM orders "
      "JOIN customers ON cust = c_id GROUP BY segment";
  auto b = barrier_sess.Execute(q);
  ASSERT_TRUE(b.ok());
  const auto barrier = barrier_sess.last().stats;
  ASSERT_TRUE(barrier_sess.last().distributed);
  EXPECT_EQ(barrier.pipeline_overlap_us, 0);
  EXPECT_EQ(barrier.batches_streamed, 0u);

  auto pr = piped_sess.Execute(q);
  ASSERT_TRUE(pr.ok());
  const auto piped = piped_sess.last().stats;
  ASSERT_TRUE(piped_sess.last().distributed);
  EXPECT_GT(piped.pipeline_overlap_us, 0);
  EXPECT_GT(piped.batches_streamed, 0u);
  EXPECT_LE(piped.sim_latency_us, barrier.sim_latency_us);
  // Same answer, bit-identical row order, from both clusters.
  ASSERT_EQ(b->num_rows(), pr->num_rows());
  for (size_t i = 0; i < b->num_rows(); ++i) {
    EXPECT_EQ(RowKey(b->rows()[i]), RowKey(pr->rows()[i]));
  }
}

TEST_F(DistributedSqlTest, ExplainReportsPipelinedExecution) {
  CreateOrdersCustomers();
  LoadRandom(999, 60, 10);
  const std::string q =
      "SELECT segment, COUNT(*) AS n FROM orders JOIN customers ON "
      "cust = c_id GROUP BY segment";
  auto barrier = dist_.Explain(q);
  ASSERT_TRUE(barrier.ok());
  EXPECT_EQ(barrier->find("exec=pipelined"), std::string::npos) << *barrier;

  dist_.exec_options().pipeline = true;
  auto piped = dist_.Explain(q);
  ASSERT_TRUE(piped.ok());
  EXPECT_NE(piped->find("exec=pipelined"), std::string::npos) << *piped;
}

TEST_F(DistributedSqlTest, BuildSideBudgetSpoolsWithoutChangingResults) {
  CreateOrdersCustomers();
  LoadRandom(909, 120, 16);
  dist_.Analyze();
  local_.Analyze();
  dist_.exec_options().max_build_bytes = 128;  // far below any build side

  Query("SELECT segment, SUM(amount) AS total FROM orders JOIN customers "
        "ON cust = c_id GROUP BY segment");
  ASSERT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
  EXPECT_GT(dist_.last().stats.build_spill_bytes, 0u);
  EXPECT_GT(dist_.cluster().metrics().Get("exchange.bytes_spilled"), 0);
}

// Whole-table stats say `small` is the side to move, but the filter leaves
// far fewer `big` rows: the plan stamps only the strategy, and execution
// moves and builds on what the scans return. EXPLAIN names no per-side
// movement that execution could contradict.
TEST_F(DistributedSqlTest, JoinBuildsOnTheSideTheScansMakeSmaller) {
  Exec("CREATE TABLE big (k BIGINT, s BIGINT)");
  Exec("CREATE TABLE small (id BIGINT, w BIGINT)");
  auto insert_rows = [&](const std::string& table, int64_t n, int64_t mod) {
    for (int64_t b = 0; b < n; b += 500) {
      std::string stmt = "INSERT INTO " + table + " VALUES ";
      for (int64_t i = b; i < std::min(n, b + 500); ++i) {
        if (i > b) stmt += ", ";
        stmt += "(" + std::to_string(i) + ", " + std::to_string(i % mod) + ")";
      }
      Exec(stmt);
    }
  };
  insert_rows("big", 4000, 300);
  insert_rows("small", 300, 7);
  dist_.Analyze();
  local_.Analyze();

  const std::string q =
      "SELECT k, s, id, w FROM big JOIN small ON s = id WHERE k < 10";
  auto explain = dist_.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->find("EXCHANGE"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("GATHER rows"), std::string::npos) << *explain;
  const size_t at = explain->find("strategy=");
  ASSERT_NE(at, std::string::npos) << *explain;
  const std::string planned =
      explain->substr(at + 9, explain->find_first_of(" \n", at) - at - 9);

  Table result = Query(q);
  EXPECT_EQ(result.num_rows(), 10u);
  ASSERT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
  EXPECT_EQ(planned, ToString(dist_.last().stats.strategy)) << *explain;
  EXPECT_TRUE(dist_.last().stats.build_left);  // big, after its filter
}

// A failed INSERT aborts its row's transaction and leaves the CN mirror
// and its statistics matching the cluster; a row of the wrong arity fails
// before any row of its statement ships.
TEST_F(DistributedSqlTest, FailedInsertAbortsItsRowAndKeepsTheMirror) {
  Exec("CREATE TABLE t (k BIGINT, v BIGINT)");
  Exec("INSERT INTO t VALUES (1, 10)");
  auto active = [this] {
    size_t n = 0;
    for (int i = 0; i < dist_.cluster().num_dns(); ++i) {
      n += dist_.cluster().dn(i)->txn_mgr().active_count();
    }
    return n;
  };
  auto counts = [this] {
    auto got = dist_.Execute("SELECT COUNT(*) AS n FROM t");
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(dist_.last().distributed) << dist_.last().fallback_reason;
    const int64_t cluster = got.ok() ? got->rows()[0][0].AsInt() : -1;
    auto mirror = dist_.catalog().Get("t");
    EXPECT_TRUE(mirror.ok());
    return std::make_pair(
        cluster, mirror.ok() ? static_cast<int64_t>((*mirror)->num_rows()) : -1);
  };
  ASSERT_EQ(active(), 0u);

  auto dup = dist_.Execute("INSERT INTO t VALUES (1, 30)");
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists()) << dup.status().ToString();
  EXPECT_EQ(active(), 0u);
  EXPECT_EQ(counts(), std::make_pair(int64_t{1}, int64_t{1}));

  auto arity = dist_.Execute("INSERT INTO t VALUES (2, 20), (3)");
  ASSERT_FALSE(arity.ok());
  EXPECT_TRUE(arity.status().IsInvalidArgument()) << arity.status().ToString();
  EXPECT_EQ(active(), 0u);
  EXPECT_EQ(counts(), std::make_pair(int64_t{1}, int64_t{1}));

  // Rows before the failing one stay committed (a statement is not
  // atomic); the mirror and the statistics count them.
  auto partial = dist_.Execute("INSERT INTO t VALUES (2, 20), (1, 30)");
  ASSERT_FALSE(partial.ok());
  EXPECT_TRUE(partial.status().IsAlreadyExists());
  EXPECT_EQ(active(), 0u);
  EXPECT_EQ(counts(), std::make_pair(int64_t{2}, int64_t{2}));
  ASSERT_NE(dist_.stats().Get("t"), nullptr);
  EXPECT_EQ(dist_.stats().Get("t")->num_rows, 2u);
}

TEST_F(DistributedSqlTest, ExplainReportsSpillPolicy) {
  CreateOrdersCustomers();
  Exec("INSERT INTO orders VALUES (1, 5, 100, 1)");
  Exec("INSERT INTO customers VALUES (5, 2)");
  dist_.exec_options().max_channel_bytes = 4096;
  dist_.exec_options().max_spill_bytes = 1 << 20;
  dist_.exec_options().max_build_bytes = 8192;

  const std::string q =
      "SELECT segment, COUNT(*) AS n FROM orders JOIN customers ON "
      "cust = c_id GROUP BY segment";
  auto spills = dist_.Explain(q);
  ASSERT_TRUE(spills.ok());
  EXPECT_NE(spills->find("exchange: channel cap 4096B"), std::string::npos)
      << *spills;
  EXPECT_NE(spills->find("overflow spills to"), std::string::npos) << *spills;
  EXPECT_NE(spills->find("spill budget 1048576B"), std::string::npos)
      << *spills;
  EXPECT_NE(spills->find("join build: in-memory cap 8192B"), std::string::npos)
      << *spills;
}

// --- Plan-layer unit tests ---------------------------------------------------

TEST(DistPlanShapeTest, MalformedPlansAreRejected) {
  Cluster cluster(3, Protocol::kGtmLite);
  sql::Schema schema({sql::Column{"k", sql::TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster.CreateTable("t", schema).ok());

  // No Gather at the root.
  auto bare = ExecuteDistPlan(&cluster, MakeDistScan("t", nullptr));
  ASSERT_FALSE(bare.ok());
  EXPECT_TRUE(bare.status().IsInvalidArgument());

  // PartialAgg without FinalAgg.
  auto lonely = ExecuteDistPlan(
      &cluster,
      MakeGather(MakeDistPartialAgg(MakeDistScan("t", nullptr), {},
                                    {{sql::AggFunc::kCount, "", "n"}})));
  ASSERT_FALSE(lonely.ok());
  EXPECT_TRUE(lonely.status().IsInvalidArgument());
}

TEST(DistPlanShapeTest, PlainDistributedScanGathersRows) {
  Cluster cluster(3, Protocol::kGtmLite);
  sql::Schema schema({sql::Column{"k", sql::TypeId::kInt64, ""},
                      sql::Column{"v", sql::TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster.CreateTable("t", schema).ok());
  for (int64_t k = 0; k < 30; ++k) {
    Txn txn = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(txn.Insert("t", sql::Value(k), {sql::Value(k), sql::Value(k * 2)}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto res = ExecuteDistPlan(
      &cluster,
      MakeGather(MakeDistScan("t", sql::Expr::Gt("v", sql::Value(40)))));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->table.num_rows(), 9u);  // v = 42..58 even
  EXPECT_GT(res->stats.result_bytes, 0u);
  EXPECT_GT(res->stats.sim_latency_us, 0);
}

}  // namespace
}  // namespace ofi::cluster
