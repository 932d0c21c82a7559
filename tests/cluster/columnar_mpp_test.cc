/// The columnar MPP scan path: every aggregate plan shape must return
/// exactly what the row path returns (zone maps, kernels, morsels and the
/// gather fallback are pure execution detail), writes must be served
/// immediately through the delta-tail union (freshness is a property, not a
/// fallback), and zone-map pruning must be visible in the simulated latency
/// (pruned chunks are free).
#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist_plans.h"
#include "sql/executor.h"

namespace ofi::cluster {
namespace {

using sql::AggFunc;
using sql::Column;
using sql::Expr;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

std::vector<Row> SortedRows(const sql::Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

void ExpectSameTable(const sql::Table& got, const sql::Table& want) {
  auto g = SortedRows(got);
  auto w = SortedRows(want);
  ASSERT_EQ(g.size(), w.size());
  for (size_t r = 0; r < g.size(); ++r) {
    ASSERT_EQ(g[r].size(), w[r].size()) << "row " << r;
    for (size_t c = 0; c < g[r].size(); ++c) {
      EXPECT_TRUE(g[r][c].Equals(w[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

/// 400 rows with NULL amounts sprinkled in, columnar copy registered. The
/// key invariant every test leans on: the scan path toggles only HOW shards
/// are scanned, never what comes back.
class ColumnarMppTest : public ::testing::Test {
 protected:
  ColumnarMppTest() : cluster_(4, Protocol::kGtmLite) {
    Schema schema({Column{"k", TypeId::kInt64, ""},
                   Column{"region", TypeId::kInt64, ""},
                   Column{"amount", TypeId::kInt64, ""}});
    EXPECT_TRUE(cluster_.CreateTable("sales", schema).ok());
    Rng rng(77);
    for (int64_t i = 0; i < 400; ++i) {
      // Every 8th amount NULL: filters must never match it, SUM/AVG skip it.
      Value amount = Value(rng.Uniform(1, 100));
      if (i % 8 == 3) amount = Value::Null();
      Txn t = cluster_.Begin(TxnScope::kSingleShard);
      EXPECT_TRUE(
          t.Insert("sales", Value(i), {Value(i), Value(i % 5), amount}).ok());
      EXPECT_TRUE(t.Commit().ok());
    }
    EXPECT_TRUE(cluster_.RegisterColumnar("sales").ok());
  }

  /// Runs the same aggregate through the columnar path and the forced row
  /// path and asserts identical tables; returns the columnar result.
  DistPlanResult RunBoth(const std::function<sql::ExprPtr()>& filter,
                         std::vector<std::string> group_by,
                         std::vector<DistributedAgg> aggs) {
    auto columnar =
        ExecuteDistPlan(&cluster_, AggPlan("sales", filter(), group_by, aggs));
    auto rows = ExecuteDistPlan(
        &cluster_, AggPlan("sales", filter(), group_by, aggs, ScanPath::kRow));
    EXPECT_TRUE(columnar.ok()) << columnar.status().ToString();
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->stats.columnar_shards, 0u);
    ExpectSameTable(columnar->table, rows->table);
    return std::move(*columnar);
  }

  Cluster cluster_;
};

TEST_F(ColumnarMppTest, GlobalKernelAggregatesMatchRowPath) {
  auto res = RunBoth([] { return sql::ExprPtr{}; }, {},
                     {{AggFunc::kCount, "", "n"},
                      {AggFunc::kSum, "amount", "total"},
                      {AggFunc::kMin, "amount", "lo"},
                      {AggFunc::kMax, "amount", "hi"}});
  // All four shards fresh -> all served columnar, via the pure-kernel path.
  EXPECT_EQ(res.stats.columnar_shards, 4u);
  EXPECT_GT(res.stats.scan_stats.chunks_total, 0u);
  // MIN/MAX come from zone maps; SUM decodes. COUNT(amount) is not asked,
  // so at least SUM's rows are decoded.
  EXPECT_GT(res.stats.scan_stats.rows_decoded, 0u);
}

TEST_F(ColumnarMppTest, IntRangeFiltersMatchRowPath) {
  // One-sided compares and an And-of-ranges (Between after intersection).
  auto gt = RunBoth([] { return Expr::Gt("amount", Value(50)); }, {},
                    {{AggFunc::kCount, "", "n"}, {AggFunc::kSum, "amount", "s"}});
  EXPECT_EQ(gt.stats.columnar_shards, 4u);
  RunBoth([] { return Expr::Ge("amount", Value(97)); }, {},
          {{AggFunc::kCount, "", "n"}});
  RunBoth([] { return Expr::Lt("k", Value(37)); }, {},
          {{AggFunc::kMax, "k", "m"}});
  auto between = RunBoth(
      [] {
        return Expr::And(Expr::Ge("k", Value(100)), Expr::Le("k", Value(299)));
      },
      {}, {{AggFunc::kCount, "", "n"}, {AggFunc::kMin, "amount", "lo"}});
  EXPECT_EQ(between.stats.columnar_shards, 4u);
  ASSERT_EQ(between.table.num_rows(), 1u);
  EXPECT_EQ(between.table.rows()[0][0].AsInt(), 200);
}

TEST_F(ColumnarMppTest, FilterEliminatingEverythingMatchesRowPath) {
  auto res = RunBoth([] { return Expr::Gt("amount", Value(100000)); }, {},
                     {{AggFunc::kCount, "", "n"}, {AggFunc::kSum, "amount", "s"}});
  EXPECT_EQ(res.stats.columnar_shards, 4u);
  ASSERT_EQ(res.table.num_rows(), 1u);
  EXPECT_EQ(res.table.rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(res.table.rows()[0][1].is_null());
  // amount's zone tops out far below the bound: every chunk pruned, none
  // scanned, nothing decoded.
  EXPECT_EQ(res.stats.scan_stats.chunks_scanned, 0u);
  EXPECT_EQ(res.stats.scan_stats.rows_decoded, 0u);
}

TEST_F(ColumnarMppTest, GroupByUsesGroupedKernelAndMatchesRowPath) {
  const int64_t fallback_agg0 = cluster_.metrics().Get("columnar.fallback_agg");
  const int64_t fallback_gb0 =
      cluster_.metrics().Get("columnar.fallback_groupby_type");
  auto res = RunBoth([] { return sql::ExprPtr{}; }, {"region"},
                     {{AggFunc::kCount, "", "n"},
                      {AggFunc::kSum, "amount", "total"},
                      {AggFunc::kAvg, "amount", "av"}});
  // GROUP BY runs the vectorized grouped hash kernel on every fresh shard:
  // no row materialization, no fallback counters.
  EXPECT_EQ(res.stats.columnar_shards, 4u);
  EXPECT_EQ(res.table.num_rows(), 5u);
  EXPECT_EQ(cluster_.metrics().Get("columnar.fallback_agg"), fallback_agg0);
  EXPECT_EQ(cluster_.metrics().Get("columnar.fallback_groupby_type"),
            fallback_gb0);
  // The kernel decodes only the referenced columns (region, amount): one
  // chunk each on every shard — 2 column-chunks x 4 shards. A materializing
  // path would have decoded all three columns.
  EXPECT_EQ(res.stats.scan_stats.chunks_scanned, 8u);
}

TEST_F(ColumnarMppTest, FilteredGroupByMatchesRowPath) {
  auto res = RunBoth([] { return Expr::Gt("amount", Value(30)); }, {"region"},
                     {{AggFunc::kAvg, "amount", "av"},
                      {AggFunc::kCount, "", "n"}});
  EXPECT_EQ(res.stats.columnar_shards, 4u);
}

TEST_F(ColumnarMppTest, UnsupportedFilterFallsBackToRowStore) {
  auto res = RunBoth(
      [] {
        return Expr::Or(Expr::Gt("amount", Value(90)),
                        Expr::Lt("amount", Value(10)));
      },
      {}, {{AggFunc::kCount, "", "n"}});
  // Or is not a recognizable range -> whole query takes the row path.
  EXPECT_EQ(res.stats.columnar_shards, 0u);
  EXPECT_GE(cluster_.metrics().Get("columnar.fallback_filter"), 1);
}

TEST_F(ColumnarMppTest, WritesAreServedColumnarWithoutRefresh) {
  // Delete one row: the mutated shard marks the sealed row's sidecar xmax
  // and every shard stays columnar — the delete is visible immediately,
  // with no stale fallback and no refresh.
  Txn t = cluster_.Begin(TxnScope::kSingleShard);
  ASSERT_TRUE(t.Delete("sales", Value(7)).ok());
  ASSERT_TRUE(t.Commit().ok());

  auto res = RunBoth([] { return sql::ExprPtr{}; }, {},
                     {{AggFunc::kCount, "", "n"}, {AggFunc::kSum, "amount", "s"}});
  EXPECT_EQ(res.stats.columnar_shards, 4u);
  ASSERT_EQ(res.table.num_rows(), 1u);
  EXPECT_EQ(res.table.rows()[0][0].AsInt(), 399);

  // An insert is served from the delta tail the same way.
  Txn t2 = cluster_.Begin(TxnScope::kSingleShard);
  ASSERT_TRUE(t2.Insert("sales", Value(int64_t{100000}),
                        {Value(int64_t{100000}), Value(0), Value(int64_t{5})})
                  .ok());
  ASSERT_TRUE(t2.Commit().ok());
  auto fresh = RunBoth([] { return sql::ExprPtr{}; }, {},
                       {{AggFunc::kCount, "", "n"}});
  EXPECT_EQ(fresh.stats.columnar_shards, 4u);
  EXPECT_EQ(fresh.table.rows()[0][0].AsInt(), 400);
  EXPECT_GE(fresh.stats.scan_stats.delta_rows, 1u);
}

TEST_F(ColumnarMppTest, DropColumnarRestoresPureRowPath) {
  cluster_.DropColumnar("sales");
  auto res = ExecuteDistPlan(&cluster_, AggPlan("sales", nullptr, {},
                                                {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->stats.columnar_shards, 0u);
  EXPECT_EQ(res->table.rows()[0][0].AsInt(), 400);
}

TEST_F(ColumnarMppTest, InlineAndPoolScatterAllAgree) {
  auto filter = [] { return Expr::Gt("amount", Value(20)); };
  std::vector<DistributedAgg> aggs = {{AggFunc::kCount, "", "n"},
                                      {AggFunc::kSum, "amount", "s"}};
  DistExecOptions inline_scatter;
  inline_scatter.parallel = false;
  cluster_.ResetSimTime();
  auto a = ExecuteDistPlan(&cluster_, AggPlan("sales", filter(), {}, aggs),
                           inline_scatter);
  cluster_.ResetSimTime();
  auto b = ExecuteDistPlan(&cluster_, AggPlan("sales", filter(), {}, aggs));
  auto c = ExecuteDistPlan(
      &cluster_, AggPlan("sales", filter(), {}, aggs, ScanPath::kRow));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->stats.columnar_shards, 4u);
  EXPECT_EQ(b->stats.columnar_shards, 4u);
  ExpectSameTable(a->table, b->table);
  ExpectSameTable(a->table, c->table);
  // DN-order merge: scatter parallelism changes neither results nor the
  // scan counters nor the simulated latency.
  EXPECT_EQ(a->stats.scan_stats.chunks_scanned,
            b->stats.scan_stats.chunks_scanned);
  EXPECT_EQ(a->stats.scan_stats.rows_decoded, b->stats.scan_stats.rows_decoded);
  EXPECT_EQ(a->stats.sim_latency_us, b->stats.sim_latency_us);
}

TEST_F(ColumnarMppTest, ScanMetricsPublished) {
  cluster_.metrics().Reset();
  auto res = ExecuteDistPlan(&cluster_,
                             AggPlan("sales", Expr::Gt("amount", Value(50)), {},
                                     {{AggFunc::kSum, "amount", "s"}}));
  ASSERT_TRUE(res.ok());
  auto& m = cluster_.metrics();
  EXPECT_EQ(m.Get("columnar.scans"), 4);
  EXPECT_EQ(m.Get("columnar.chunks_scanned"),
            static_cast<int64_t>(res->stats.scan_stats.chunks_scanned));
  EXPECT_EQ(m.Get("columnar.rows_filtered"),
            static_cast<int64_t>(res->stats.scan_stats.rows_matched));
}

TEST_F(ColumnarMppTest, StringEqualityFilterServedFromDictionary) {
  Schema schema({Column{"k", TypeId::kInt64, ""},
                 Column{"tag", TypeId::kString, ""},
                 Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster_.CreateTable("events", schema).ok());
  const char* tags[] = {"alpha", "beta", "gamma"};
  for (int64_t i = 0; i < 120; ++i) {
    Value tag = (i % 10 == 9) ? Value::Null() : Value(tags[i % 3]);
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(
        t.Insert("events", Value(i), {Value(i), tag, Value(i * 2)}).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  ASSERT_TRUE(cluster_.RegisterColumnar("events").ok());

  auto run = [&](ScanPath path) {
    return ExecuteDistPlan(&cluster_,
                           AggPlan("events", Expr::Eq("tag", Value("beta")), {},
                                   {{AggFunc::kCount, "", "n"},
                                    {AggFunc::kSum, "v", "s"}},
                                   path));
  };
  auto col = run(ScanPath::kColumnar);
  auto row = run(ScanPath::kRow);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(col->stats.columnar_shards, 4u);
  ExpectSameTable(col->table, row->table);
}

TEST_F(ColumnarMppTest, EmptyTableRegisteredColumnar) {
  Schema schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster_.CreateTable("void", schema).ok());
  ASSERT_TRUE(cluster_.RegisterColumnar("void").ok());
  auto res = ExecuteDistPlan(&cluster_, AggPlan("void", nullptr, {},
                                                {{AggFunc::kCount, "", "n"},
                                                 {AggFunc::kSum, "v", "s"}}));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->stats.columnar_shards, 4u);
  ASSERT_EQ(res->table.num_rows(), 1u);
  EXPECT_EQ(res->table.rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(res->table.rows()[0][1].is_null());
}

// Failover: the promoted backup's heap absorbed the failed primary's rows
// under a recovery transaction; the heap listener fed those rows into the
// backup's delta tail, so the promoted node serves the columnar path too —
// no stale fallback. Every row is counted exactly once.
TEST(ColumnarMppFailoverTest, PromotedBackupServesColumnarFromDeltaTail) {
  Cluster cluster(4, Protocol::kGtmLite);
  ASSERT_TRUE(cluster.EnableReplication().ok());
  Schema schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster.CreateTable("t", schema).ok());
  int64_t total = 0;
  for (int64_t i = 0; i < 120; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("t", Value(i), {Value(i), Value(i)}).ok());
    ASSERT_TRUE(t.Commit().ok());
    total += i;
  }
  ASSERT_TRUE(cluster.RegisterColumnar("t").ok());
  ASSERT_TRUE(cluster.FailDn(0).ok());
  auto res = ExecuteDistPlan(&cluster, AggPlan("t", nullptr, {},
                                               {{AggFunc::kCount, "", "n"},
                                                {AggFunc::kSum, "v", "s"}}));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->table.rows()[0][0].AsInt(), 120);
  EXPECT_EQ(res->table.rows()[0][1].AsInt(), total);
  // 3 serving nodes, every one columnar — the promoted backup included.
  EXPECT_EQ(res->stats.columnar_shards, 3u);
}

// The tentpole's latency story: a selective range over clustered keys prunes
// most chunks, and pruned chunks charge nothing, so the simulated scan is
// strictly cheaper than a full sweep of the same shards.
TEST(ColumnarMppPruningTest, SelectiveRangeIsCheaperThanFullScan) {
  Cluster cluster(2, Protocol::kGtmLite);
  Schema schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster.CreateTable("big", schema).ok());
  // ~10k rows per DN -> 3 chunks per shard after the clustered (sorted)
  // rebuild. Batched multi-shard transactions keep the load fast.
  constexpr int64_t kRows = 20000;
  for (int64_t base = 0; base < kRows; base += 1000) {
    Txn t = cluster.Begin(TxnScope::kMultiShard);
    for (int64_t i = base; i < base + 1000; ++i) {
      ASSERT_TRUE(t.Insert("big", Value(i), {Value(i), Value(i % 97)}).ok());
    }
    ASSERT_TRUE(t.Commit().ok());
  }
  ASSERT_TRUE(cluster.RegisterColumnar("big").ok());

  cluster.ResetSimTime();
  auto full = ExecuteDistPlan(&cluster, AggPlan("big", nullptr, {},
                                                {{AggFunc::kSum, "v", "s"}}));
  cluster.ResetSimTime();
  auto selective = ExecuteDistPlan(
      &cluster, AggPlan("big", Expr::And(Expr::Ge("k", Value(0)),
                                         Expr::Le("k", Value(99))),
                        {}, {{AggFunc::kSum, "v", "s"}}));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(selective.ok());
  EXPECT_EQ(full->stats.columnar_shards, 2u);
  EXPECT_EQ(selective->stats.columnar_shards, 2u);

  // Keys are clustered, so [0, 99] lives in each shard's first chunk: the
  // rest are pruned by zone maps and never charged.
  EXPECT_GT(selective->stats.scan_stats.chunks_pruned, 0u);
  EXPECT_LT(selective->stats.scan_stats.chunks_scanned,
            full->stats.scan_stats.chunks_scanned);
  EXPECT_LT(selective->stats.scan_stats.rows_decoded,
            full->stats.scan_stats.rows_decoded);
  EXPECT_LT(selective->stats.sim_latency_us, full->stats.sim_latency_us);

  // Cross-check the answer against the row path.
  auto reference = ExecuteDistPlan(
      &cluster, AggPlan("big", Expr::And(Expr::Ge("k", Value(0)),
                                         Expr::Le("k", Value(99))),
                        {}, {{AggFunc::kSum, "v", "s"}}, ScanPath::kRow));
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(selective->table.rows()[0][0].Equals(reference->table.rows()[0][0]));
}

}  // namespace
}  // namespace ofi::cluster
