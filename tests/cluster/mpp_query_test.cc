/// MPP scatter-gather aggregation (AggPlan through ExecuteDistPlan):
/// partial/final decomposition must equal a centralized computation, move
/// only group-sized state, and read one consistent snapshot.
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

class MppQueryTest : public ::testing::Test {
 protected:
  MppQueryTest() : cluster_(4, Protocol::kGtmLite) {
    Schema schema({Column{"k", TypeId::kInt64, ""},
                   Column{"region", TypeId::kInt64, ""},
                   Column{"amount", TypeId::kInt64, ""}});
    EXPECT_TRUE(cluster_.CreateTable("sales", schema).ok());
    Rng rng(77);
    for (int64_t i = 0; i < 400; ++i) {
      Row row = {Value(i), Value(i % 5), Value(rng.Uniform(1, 100))};
      reference_.push_back(row);
      Txn t = cluster_.Begin(TxnScope::kSingleShard);
      EXPECT_TRUE(t.Insert("sales", Value(i), row).ok());
      EXPECT_TRUE(t.Commit().ok());
    }
  }

  /// Centralized reference: the same aggregate on one local table.
  sql::Table Centralized(sql::ExprPtr filter,
                         std::vector<std::string> group_by,
                         std::vector<sql::AggSpec> aggs) {
    sql::Catalog catalog;
    catalog.Register("sales",
                     sql::Table(Schema({Column{"k", TypeId::kInt64, ""},
                                        Column{"region", TypeId::kInt64, ""},
                                        Column{"amount", TypeId::kInt64, ""}}),
                                reference_));
    sql::Executor exec(&catalog);
    auto plan = sql::MakeAggregate(sql::MakeScan("sales", filter),
                                   std::move(group_by), std::move(aggs));
    return exec.Execute(plan).ValueOrDie();
  }

  Cluster cluster_;
  std::vector<Row> reference_;
};

TEST_F(MppQueryTest, GlobalCountSumMinMax) {
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("sales", nullptr, {},
                                        {{AggFunc::kCount, "", "n"},
                                         {AggFunc::kSum, "amount", "total"},
                                         {AggFunc::kMin, "amount", "lo"},
                                         {AggFunc::kMax, "amount", "hi"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  sql::Table expected = Centralized(
      nullptr, {},
      {{AggFunc::kCount, nullptr, "n"},
       {AggFunc::kSum, Expr::ColumnRef("amount"), "total"},
       {AggFunc::kMin, Expr::ColumnRef("amount"), "lo"},
       {AggFunc::kMax, Expr::ColumnRef("amount"), "hi"}});
  ASSERT_EQ(result->table.num_rows(), 1u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(result->table.rows()[0][c].Equals(expected.rows()[0][c])) << c;
  }
}

TEST_F(MppQueryTest, GroupByMatchesCentralized) {
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("sales", nullptr, {"region"},
                                        {{AggFunc::kCount, "", "n"},
                                         {AggFunc::kSum, "amount", "total"}}));
  ASSERT_TRUE(result.ok());
  sql::Table expected =
      Centralized(nullptr, {"region"},
                  {{AggFunc::kCount, nullptr, "n"},
                   {AggFunc::kSum, Expr::ColumnRef("amount"), "total"}});
  ASSERT_EQ(result->table.num_rows(), 5u);
  // Compare as maps (row order is unspecified).
  auto to_map = [](const sql::Table& t) {
    std::map<int64_t, std::pair<int64_t, int64_t>> m;
    for (const auto& r : t.rows()) {
      m[r[0].AsInt()] = {r[1].AsInt(), r[2].AsInt()};
    }
    return m;
  };
  EXPECT_EQ(to_map(result->table), to_map(expected));
}

TEST_F(MppQueryTest, AvgDecomposesIntoSumCount) {
  auto result = ExecuteDistPlan(
      &cluster_, AggPlan("sales", nullptr, {"region"},
                         {{AggFunc::kAvg, "amount", "avg_amt"}}));
  ASSERT_TRUE(result.ok());
  sql::Table expected =
      Centralized(nullptr, {"region"},
                  {{AggFunc::kAvg, Expr::ColumnRef("amount"), "avg_amt"}});
  std::map<int64_t, double> got, want;
  for (const auto& r : result->table.rows()) got[r[0].AsInt()] = r[1].AsDouble();
  for (const auto& r : expected.rows()) want[r[0].AsInt()] = r[1].AsDouble();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [k, v] : want) {
    EXPECT_NEAR(got[k], v, 1e-9) << "region " << k;
  }
}

TEST_F(MppQueryTest, FilterPushedToShards) {
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("sales", Expr::Gt("amount", Value(50)),
                                        {}, {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(result.ok());
  int64_t expected = 0;
  for (const auto& r : reference_) expected += r[2].AsInt() > 50;
  EXPECT_EQ(result->table.rows()[0][0].AsInt(), expected);
}

TEST_F(MppQueryTest, PartialStateMuchSmallerThanRows) {
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("sales", nullptr, {"region"},
                                        {{AggFunc::kSum, "amount", "total"}}));
  ASSERT_TRUE(result.ok());
  // 400 rows stay put; only ~5 groups x 4 shards of state move.
  EXPECT_LT(result->stats.partial_bytes * 5, result->stats.naive_bytes);
  EXPECT_GT(result->stats.naive_bytes, 0u);
}

TEST_F(MppQueryTest, EmptyFilterResultYieldsCountZero) {
  auto result = ExecuteDistPlan(
      &cluster_, AggPlan("sales", Expr::Gt("amount", Value(100000)), {},
                         {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows(), 1u);
  EXPECT_EQ(result->table.rows()[0][0].AsInt(), 0);
}

TEST_F(MppQueryTest, UnknownTableFails) {
  EXPECT_FALSE(ExecuteDistPlan(&cluster_, AggPlan("nope", nullptr, {},
                                                  {{AggFunc::kCount, "", "n"}}))
                   .ok());
}

// Regression: a group whose aggregated column is NULL on EVERY shard merges
// to (SUM=NULL, COUNT=0) at the CN; the AVG final merge must yield SQL NULL,
// not divide by zero or invent a value.
TEST_F(MppQueryTest, AvgOfAllNullGroupIsNull) {
  Schema schema({Column{"k", TypeId::kInt64, ""},
                 Column{"g", TypeId::kInt64, ""},
                 Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster_.CreateTable("sparse", schema).ok());
  for (int64_t i = 0; i < 40; ++i) {
    // Group 3's v is NULL in every row, on every shard it lands on.
    Value v = (i % 4 == 3) ? Value::Null() : Value(i);
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("sparse", Value(i), {Value(i), Value(i % 4), v}).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("sparse", nullptr, {"g"},
                                        {{AggFunc::kAvg, "v", "av"},
                                         {AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 4u);
  for (const auto& r : result->table.rows()) {
    int64_t g = r[0].AsInt();
    EXPECT_EQ(r[2].AsInt(), 10) << "group " << g;  // rows per group
    if (g == 3) {
      EXPECT_TRUE(r[1].is_null()) << "all-NULL group must AVG to NULL";
    } else {
      // v values for group g: g, g+4, ..., g+36 -> mean g+18.
      ASSERT_FALSE(r[1].is_null()) << "group " << g;
      EXPECT_NEAR(r[1].AsDouble(), static_cast<double>(g) + 18.0, 1e-9);
    }
  }
}

// Global AVG over an entirely NULL column: every shard ships (NULL, 0).
TEST_F(MppQueryTest, AvgOfAllNullColumnGlobalIsNull) {
  Schema schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster_.CreateTable("nulls", schema).ok());
  for (int64_t i = 0; i < 20; ++i) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("nulls", Value(i), {Value(i), Value::Null()}).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  auto result = ExecuteDistPlan(
      &cluster_, AggPlan("nulls", nullptr, {}, {{AggFunc::kAvg, "v", "av"}}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows(), 1u);
  EXPECT_TRUE(result->table.rows()[0][0].is_null());
}

// Group-by output naming: `a.x` and `b.x` must not both strip to `x`.
TEST_F(MppQueryTest, QualifiedGroupByColumnsKeepDistinctNames) {
  Schema schema({Column{"k", TypeId::kInt64, ""},
                 Column{"x", TypeId::kInt64, "a"},
                 Column{"x", TypeId::kInt64, "b"},
                 Column{"amount", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster_.CreateTable("dup", schema).ok());
  for (int64_t i = 0; i < 24; ++i) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(
        t.Insert("dup", Value(i), {Value(i), Value(i % 2), Value(i % 3), Value(i)})
            .ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("dup", nullptr, {"a.x", "b.x"},
                                        {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.schema().column(0).name, "a.x");
  EXPECT_EQ(result->table.schema().column(1).name, "b.x");
  EXPECT_EQ(result->table.num_rows(), 6u);  // 2 x 3 group combinations
}

// With no collision the bare name is used for readability.
TEST_F(MppQueryTest, UnambiguousQualifiedGroupByStripsToBareName) {
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("sales", nullptr, {"region"},
                                        {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.schema().column(0).name, "region");
  EXPECT_EQ(result->table.schema().column(1).name, "n");
}

// Output names that still collide after disambiguation are an error, not a
// silently shadowed column.
TEST_F(MppQueryTest, DuplicateOutputNamesRejected) {
  auto result = ExecuteDistPlan(&cluster_,
                                AggPlan("sales", nullptr, {},
                                        {{AggFunc::kCount, "", "n"},
                                         {AggFunc::kSum, "amount", "n"}}));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  auto result2 = ExecuteDistPlan(
      &cluster_, AggPlan("sales", nullptr, {"region"},
                         {{AggFunc::kSum, "amount", "region"}}));
  EXPECT_FALSE(result2.ok());
}

TEST_F(MppQueryTest, EmptyTableEdgeCases) {
  Schema schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster_.CreateTable("void", schema).ok());
  // Global aggregate: one row, COUNT 0, SUM NULL.
  auto global = ExecuteDistPlan(
      &cluster_, AggPlan("void", nullptr, {}, {{AggFunc::kCount, "", "n"},
                                               {AggFunc::kSum, "v", "s"}}));
  ASSERT_TRUE(global.ok());
  ASSERT_EQ(global->table.num_rows(), 1u);
  EXPECT_EQ(global->table.rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(global->table.rows()[0][1].is_null());
  // Grouped aggregate: no groups, no rows.
  auto grouped = ExecuteDistPlan(
      &cluster_, AggPlan("void", nullptr, {"v"}, {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->table.num_rows(), 0u);
}

TEST_F(MppQueryTest, FilterEliminatingAllRowsGroupedYieldsNoRows) {
  auto result = ExecuteDistPlan(
      &cluster_, AggPlan("sales", Expr::Gt("amount", Value(100000)), {"region"},
                         {{AggFunc::kSum, "amount", "s"}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows(), 0u);
}

TEST(MppQuerySingleDnTest, SingleDnMatchesLocalAggregate) {
  Cluster cluster(1, Protocol::kGtmLite);
  Schema schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster.CreateTable("t", schema).ok());
  int64_t total = 0;
  for (int64_t i = 0; i < 30; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("t", Value(i), {Value(i), Value(i * 3)}).ok());
    ASSERT_TRUE(t.Commit().ok());
    total += i * 3;
  }
  auto result = ExecuteDistPlan(&cluster, AggPlan("t", nullptr, {},
                                                  {{AggFunc::kCount, "", "n"},
                                                   {AggFunc::kSum, "v", "s"}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.rows()[0][0].AsInt(), 30);
  EXPECT_EQ(result->table.rows()[0][1].AsInt(), total);
  EXPECT_GT(result->stats.sim_latency_us, 0);
}

// With a failed primary, its promoted backup serves both shards and the
// distributed answer still matches the full-data reference — each row
// counted exactly once.
TEST(MppQueryFailoverTest, DownDnServedByBackupMatchesReference) {
  Cluster cluster(4, Protocol::kGtmLite);
  ASSERT_TRUE(cluster.EnableReplication().ok());
  Schema schema({Column{"k", TypeId::kInt64, ""},
                 Column{"g", TypeId::kInt64, ""},
                 Column{"v", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster.CreateTable("t", schema).ok());
  std::map<int64_t, std::pair<int64_t, int64_t>> want;  // g -> (count, sum)
  for (int64_t i = 0; i < 120; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("t", Value(i), {Value(i), Value(i % 3), Value(i)}).ok());
    ASSERT_TRUE(t.Commit().ok());
    want[i % 3].first++;
    want[i % 3].second += i;
  }
  ASSERT_TRUE(cluster.FailDn(1).ok());
  auto result = ExecuteDistPlan(&cluster, AggPlan("t", nullptr, {"g"},
                                                  {{AggFunc::kCount, "", "n"},
                                                   {AggFunc::kSum, "v", "s"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::map<int64_t, std::pair<int64_t, int64_t>> got;
  for (const auto& r : result->table.rows()) {
    got[r[0].AsInt()] = {r[1].AsInt(), r[2].AsInt()};
  }
  EXPECT_EQ(got, want);
}

TEST_F(MppQueryTest, ParallelAndSerialExecutionAgree) {
  DistExecOptions serial;
  serial.parallel = false;
  // Start each run from a clean simulated schedule so the two latency
  // numbers are comparable (the scheduler retains busy intervals per query).
  cluster_.ResetSimTime();
  auto a = ExecuteDistPlan(
      &cluster_, AggPlan("sales", Expr::Gt("amount", Value(20)), {"region"},
                         {{AggFunc::kCount, "", "n"},
                          {AggFunc::kAvg, "amount", "av"}}));
  cluster_.ResetSimTime();
  auto b = ExecuteDistPlan(
      &cluster_, AggPlan("sales", Expr::Gt("amount", Value(20)), {"region"},
                         {{AggFunc::kCount, "", "n"},
                          {AggFunc::kAvg, "amount", "av"}}),
      serial);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The execution mode changes wall-clock only: identical rows (order-
  // insensitive) and identical simulated latencies.
  EXPECT_EQ(a->stats.sim_latency_us, b->stats.sim_latency_us);
  auto to_map = [](const sql::Table& t) {
    std::map<int64_t, std::pair<int64_t, double>> m;
    for (const auto& r : t.rows()) m[r[0].AsInt()] = {r[1].AsInt(), r[2].AsDouble()};
    return m;
  };
  EXPECT_EQ(to_map(a->table), to_map(b->table));
}

// Scatter charged as max-over-DNs stays ~flat as shards are added: every DN
// works concurrently on its own resource, so only the gather term grows.
TEST(MppQueryLatencyTest, ParallelLatencyStaysFlatInDnCount) {
  auto run = [](int num_dns) {
    Cluster cluster(num_dns, Protocol::kGtmLite);
    Schema schema(
        {Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
    EXPECT_TRUE(cluster.CreateTable("t", schema).ok());
    for (int64_t i = 0; i < 20 * num_dns; ++i) {
      Txn t = cluster.Begin(TxnScope::kSingleShard);
      EXPECT_TRUE(t.Insert("t", Value(i), {Value(i), Value(i)}).ok());
      EXPECT_TRUE(t.Commit().ok());
    }
    cluster.ResetSimTime();  // measure the query alone, not the data load
    auto result = ExecuteDistPlan(
        &cluster, AggPlan("t", nullptr, {}, {{AggFunc::kSum, "v", "s"}}));
    EXPECT_TRUE(result.ok());
    return *result;
  };
  DistPlanResult one = run(1);
  DistPlanResult eight = run(8);
  // 8 shards cost at most 2x one shard (gather term only).
  EXPECT_LT(eight.stats.sim_latency_us, 2 * one.stats.sim_latency_us);
}

}  // namespace
}  // namespace ofi::cluster
