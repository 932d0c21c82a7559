/// Cluster::RefreshColumnar — synchronous force-merge of the columnar delta
/// tails (only DNs with outstanding tail records or dead sealed rows do
/// work; quiescent shards are untouched). Columnar scans are fresh with or
/// without a refresh; the merge only moves work off the scan path.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist_plans.h"

namespace ofi::cluster {
namespace {

using sql::AggFunc;
using sql::Column;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

class ColumnarRefreshTest : public ::testing::Test {
 protected:
  ColumnarRefreshTest() : cluster_(4, Protocol::kGtmLite) {
    Schema schema({Column{"k", TypeId::kInt64, ""},
                   Column{"amount", TypeId::kInt64, ""}});
    EXPECT_TRUE(cluster_.CreateTable("sales", schema).ok());
    Rng rng(11);
    for (int64_t k = 0; k < 200; ++k) {
      Insert({Value(k), Value(rng.Uniform(1, 100))});
    }
    EXPECT_TRUE(cluster_.RegisterColumnar("sales").ok());
  }

  void Insert(Row row) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("sales", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  size_t ColumnarShardsUsed() {
    auto res = ExecuteDistPlan(&cluster_,
                               AggPlan("sales", nullptr, {},
                                       {{AggFunc::kCount, "", "n"},
                                        {AggFunc::kSum, "amount", "s"}}));
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res->stats.columnar_shards;
  }

  Cluster cluster_;
};

TEST_F(ColumnarRefreshTest, RefreshIsNoOpWhenEverythingIsFresh) {
  ASSERT_EQ(ColumnarShardsUsed(), 4u);
  auto n = cluster_.RefreshColumnar("sales");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_EQ(cluster_.metrics().Get("columnar.refreshes"), 0);
}

TEST_F(ColumnarRefreshTest, RefreshMergesOnlyTheMutatedShard) {
  // One insert lands one delta-tail record on exactly one DN. Every shard
  // STAYS columnar — the new row is served from the tail immediately.
  Insert({Value(int64_t{100000}), Value(int64_t{42})});
  ASSERT_EQ(ColumnarShardsUsed(), 4u);
  auto before = ExecuteDistPlan(
      &cluster_, AggPlan("sales", nullptr, {}, {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->table.rows()[0][0].AsInt(), 201);
  EXPECT_EQ(before->stats.scan_stats.delta_rows, 1u);

  // Force-merge folds the record into sealed chunks; only the mutated
  // shard does work.
  auto n = cluster_.RefreshColumnar("sales");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(cluster_.metrics().Get("columnar.refreshes"), 1);

  // Same answer, now entirely from sealed chunks.
  auto res = ExecuteDistPlan(&cluster_, AggPlan("sales", nullptr, {},
                                                {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->stats.columnar_shards, 4u);
  EXPECT_EQ(res->table.rows()[0][0].AsInt(), 201);
  EXPECT_EQ(res->stats.scan_stats.delta_rows, 0u);

  // Refreshing again merges nothing.
  auto again = cluster_.RefreshColumnar("sales");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST_F(ColumnarRefreshTest, DeleteIsVisibleImmediatelyAndMergeDropsTheRow) {
  // Deletes mark the sealed row's sidecar xmax; scans exclude it at once
  // (no tail record involved) and the merge physically drops it.
  Txn t = cluster_.Begin(TxnScope::kSingleShard);
  ASSERT_TRUE(t.Delete("sales", Value(7)).ok());
  ASSERT_TRUE(t.Commit().ok());
  ASSERT_EQ(ColumnarShardsUsed(), 4u);
  auto before = ExecuteDistPlan(
      &cluster_, AggPlan("sales", nullptr, {}, {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->table.rows()[0][0].AsInt(), 199);

  auto n = cluster_.RefreshColumnar("sales");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto res = ExecuteDistPlan(&cluster_, AggPlan("sales", nullptr, {},
                                                {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->stats.columnar_shards, 4u);
  EXPECT_EQ(res->table.rows()[0][0].AsInt(), 199);
}

TEST_F(ColumnarRefreshTest, RefreshUnregisteredTableIsNotFound) {
  auto n = cluster_.RefreshColumnar("nope");
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsNotFound());

  cluster_.DropColumnar("sales");
  auto dropped = cluster_.RefreshColumnar("sales");
  EXPECT_FALSE(dropped.ok());
}

}  // namespace
}  // namespace ofi::cluster
