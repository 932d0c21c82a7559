/// HTAP freshness: the per-shard columnar delta store (storage/delta_store)
/// must make columnar scans bit-identical to the forced row path at ANY
/// point in a write stream — inserts, updates, and deletes are visible the
/// moment they commit, with no refresh, no rebuild, and no stale fallback —
/// while background merges compact the delta tails without ever blocking a
/// scan or changing an answer.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist_plans.h"

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

void ExpectSameTable(const sql::Table& got, const sql::Table& want,
                     const std::string& what) {
  auto g = SortedRows(got);
  auto w = SortedRows(want);
  ASSERT_EQ(g.size(), w.size()) << what;
  for (size_t r = 0; r < g.size(); ++r) {
    ASSERT_EQ(g[r].size(), w[r].size()) << what << " row " << r;
    for (size_t c = 0; c < g[r].size(); ++c) {
      EXPECT_TRUE(g[r][c].Equals(w[r][c]))
          << what << " row " << r << " col " << c;
    }
  }
}

class HtapFreshnessTest : public ::testing::Test {
 protected:
  HtapFreshnessTest() : cluster_(4, Protocol::kGtmLite) {
    Schema schema({Column{"k", TypeId::kInt64, ""},
                   Column{"region", TypeId::kInt64, ""},
                   Column{"amount", TypeId::kInt64, ""}});
    EXPECT_TRUE(cluster_.CreateTable("sales", schema).ok());
  }

  Row MakeRow(int64_t k, Rng* rng) {
    Value amount = (rng->Uniform(0, 7) == 3) ? Value::Null()
                                             : Value(rng->Uniform(1, 1000));
    return {Value(k), Value(rng->Uniform(0, 4)), amount};
  }

  void Insert(int64_t k, Rng* rng) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    Row row = MakeRow(k, rng);
    ASSERT_TRUE(t.Insert("sales", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  void Update(int64_t k, Rng* rng) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    Row row = MakeRow(k, rng);
    ASSERT_TRUE(t.Update("sales", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  void Delete(int64_t k) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Delete("sales", Value(k)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  /// Runs one aggregate shape through the columnar path and the forced row
  /// path and asserts identical tables. Every shard must serve columnar —
  /// freshness is a property of the delta store, never a fallback reason.
  void CompareBoth(sql::ExprPtr col_filter, sql::ExprPtr row_filter,
                   std::vector<std::string> group_by,
                   std::vector<DistributedAgg> aggs, const std::string& what) {
    auto columnar = ExecuteDistPlan(
        &cluster_, AggPlan("sales", std::move(col_filter), group_by, aggs));
    auto rows = ExecuteDistPlan(
        &cluster_, AggPlan("sales", std::move(row_filter), group_by, aggs,
                           ScanPath::kRow));
    ASSERT_TRUE(columnar.ok()) << what << ": " << columnar.status().ToString();
    ASSERT_TRUE(rows.ok()) << what << ": " << rows.status().ToString();
    EXPECT_EQ(columnar->stats.columnar_shards, 4u) << what;
    EXPECT_EQ(rows->stats.columnar_shards, 0u) << what;
    ExpectSameTable(columnar->table, rows->table, what);
  }

  void CompareAllShapes(const std::string& tag, Rng* rng) {
    CompareBoth(nullptr, nullptr, {},
                {{AggFunc::kCount, "", "n"},
                 {AggFunc::kSum, "amount", "s"},
                 {AggFunc::kMin, "amount", "lo"},
                 {AggFunc::kMax, "amount", "hi"}},
                tag + " global");
    const int64_t bound = rng->Uniform(-100, 1100);
    auto filt = [&] { return Expr::Gt("amount", Value(bound)); };
    CompareBoth(filt(), filt(), {},
                {{AggFunc::kCount, "", "n"}, {AggFunc::kSum, "amount", "s"}},
                tag + " filtered");
    CompareBoth(nullptr, nullptr, {"region"},
                {{AggFunc::kCount, "", "n"},
                 {AggFunc::kSum, "amount", "s"},
                 {AggFunc::kAvg, "amount", "a"}},
                tag + " grouped");
    auto range = [&] {
      return Expr::And(Expr::Ge("k", Value(int64_t{50})),
                       Expr::Le("k", Value(int64_t{400})));
    };
    CompareBoth(range(), range(), {"region"},
                {{AggFunc::kCount, "", "n"}, {AggFunc::kMax, "amount", "hi"}},
                tag + " filtered-grouped");
  }

  Cluster cluster_;
};

// The tentpole acceptance: a randomized insert/update/delete stream with
// periodic columnar-vs-row comparisons at every tail length — short tails,
// long tails, tails mid-background-merge, and freshly merged tails.
TEST_F(HtapFreshnessTest, RandomizedWriteStreamMatchesRowOracle) {
  Rng rng(2026);
  std::vector<int64_t> live;
  int64_t next_key = 0;
  for (; next_key < 150; ++next_key) {
    Insert(next_key, &rng);
    live.push_back(next_key);
  }
  ASSERT_TRUE(cluster_.RegisterColumnar("sales").ok());
  // Low threshold so the stream triggers real background merges mid-test.
  cluster_.set_delta_merge_threshold(24);

  const int64_t fallback_filter0 =
      cluster_.metrics().Get("columnar.fallback_filter");
  const int64_t fallback_agg0 = cluster_.metrics().Get("columnar.fallback_agg");

  for (int step = 0; step < 360; ++step) {
    const int64_t dice = rng.Uniform(0, 99);
    if (dice < 55 || live.empty()) {
      Insert(next_key, &rng);
      live.push_back(next_key++);
    } else if (dice < 80) {
      Update(live[static_cast<size_t>(rng.Uniform(
                 0, static_cast<int64_t>(live.size()) - 1))],
             &rng);
    } else {
      size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      Delete(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 30 == 29) {
      CompareAllShapes("step " + std::to_string(step), &rng);
    }
    if (step % 120 == 119) {
      // A sync force-merge mid-stream must not change any answer either.
      auto merged = cluster_.RefreshColumnar("sales");
      ASSERT_TRUE(merged.ok());
      CompareAllShapes("post-refresh step " + std::to_string(step), &rng);
    }
  }
  cluster_.WaitForMerges();
  CompareAllShapes("final", &rng);

  // The stream was long enough to cross the merge threshold repeatedly.
  EXPECT_GT(cluster_.metrics().Get("columnar.merges"), 0);
  EXPECT_GT(cluster_.metrics().Get("columnar.merge_rows"), 0);
  // Freshness never demoted a shard: the only fallback counters that exist
  // are filter/agg/groupby-type, and this stream tripped none of them.
  EXPECT_EQ(cluster_.metrics().Get("columnar.fallback_filter"),
            fallback_filter0);
  EXPECT_EQ(cluster_.metrics().Get("columnar.fallback_agg"), fallback_agg0);
  EXPECT_EQ(cluster_.metrics().Get("columnar.fallback_stale"), 0);
}

// Delete + reinsert of the same key exercises the sealed-row xmax sidecar,
// the delta tail, and the merge's dead-row rewrite path in one stream.
TEST_F(HtapFreshnessTest, DeleteReinsertCyclesStayExact) {
  Rng rng(99);
  for (int64_t k = 0; k < 80; ++k) Insert(k, &rng);
  ASSERT_TRUE(cluster_.RegisterColumnar("sales").ok());

  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int64_t k = cycle * 7; k < cycle * 7 + 20; ++k) Delete(k % 80);
    CompareAllShapes("deleted cycle " + std::to_string(cycle), &rng);
    for (int64_t k = cycle * 7; k < cycle * 7 + 20; ++k) Insert(k % 80, &rng);
    CompareAllShapes("reinserted cycle " + std::to_string(cycle), &rng);
    // Merging dead sealed rows forces the full rewrite path; answers hold.
    auto merged = cluster_.RefreshColumnar("sales");
    ASSERT_TRUE(merged.ok());
    CompareAllShapes("merged cycle " + std::to_string(cycle), &rng);
  }
  EXPECT_GT(cluster_.metrics().Get("columnar.merge_rows"), 0);
}

// Background merges must never block scans or writers: a writer thread, two
// scanner threads, and pool merges all run concurrently; per-thread scan
// counts are monotone (insert-only stream + snapshot isolation) and the
// final answer is exact.
TEST_F(HtapFreshnessTest, ConcurrentMergeScanWriteStress) {
  Rng rng(7);
  for (int64_t k = 0; k < 60; ++k) Insert(k, &rng);
  ASSERT_TRUE(cluster_.RegisterColumnar("sales").ok());
  cluster_.set_delta_merge_threshold(16);

  constexpr int kWriterRows = 240;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    Rng wrng(17);
    for (int64_t k = 0; k < kWriterRows; ++k) {
      Txn t = cluster_.Begin(TxnScope::kSingleShard);
      Value amount =
          (k % 9 == 4) ? Value::Null() : Value(wrng.Uniform(1, 1000));
      Row row = {Value(k + 1000), Value(k % 4), amount};
      if (!t.Insert("sales", row[0], row).ok() || !t.Commit().ok()) {
        ++failures;
        return;
      }
    }
    writer_done = true;
  });

  auto scanner = [&] {
    DistExecOptions opts;
    opts.parallel = false;  // inline scatter; pool stays free for merges
    int64_t last = 0;
    while (!writer_done.load()) {
      auto res = ExecuteDistPlan(&cluster_,
                                 AggPlan("sales", nullptr, {},
                                         {{AggFunc::kCount, "", "n"}}),
                                 opts);
      if (!res.ok() || res->stats.columnar_shards != 4u) {
        ++failures;
        return;
      }
      int64_t n = res->table.rows()[0][0].AsInt();
      if (n < last) {  // snapshots only move forward under insert-only load
        ++failures;
        return;
      }
      last = n;
    }
  };
  std::thread s1(scanner), s2(scanner);
  writer.join();
  s1.join();
  s2.join();
  ASSERT_EQ(failures.load(), 0);

  cluster_.WaitForMerges();
  CompareBoth(nullptr, nullptr, {},
              {{AggFunc::kCount, "", "n"}, {AggFunc::kSum, "amount", "s"}},
              "post-stress");
  auto final_count = ExecuteDistPlan(
      &cluster_, AggPlan("sales", nullptr, {}, {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->table.rows()[0][0].AsInt(), 60 + kWriterRows);
  EXPECT_GT(cluster_.metrics().Get("columnar.merges"), 0);
}

// Merge accounting: merges charge the DN resource (off the scan's critical
// path), shrink delta_rows back to zero, and publish their row counts.
TEST_F(HtapFreshnessTest, MergeShrinksDeltaAndPublishesMetrics) {
  Rng rng(5);
  for (int64_t k = 0; k < 100; ++k) Insert(k, &rng);
  ASSERT_TRUE(cluster_.RegisterColumnar("sales").ok());
  cluster_.set_auto_merge(false);  // keep the tails until we say so

  for (int64_t k = 100; k < 140; ++k) Insert(k, &rng);
  auto tailed = ExecuteDistPlan(
      &cluster_, AggPlan("sales", nullptr, {}, {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(tailed.ok());
  EXPECT_EQ(tailed->table.rows()[0][0].AsInt(), 140);
  EXPECT_EQ(tailed->stats.scan_stats.delta_rows, 40u);
  EXPECT_EQ(cluster_.metrics().Get("columnar.merges"), 0);

  auto merged = cluster_.RefreshColumnar("sales");
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(*merged, 0u);
  EXPECT_GT(cluster_.metrics().Get("columnar.merges"), 0);
  EXPECT_EQ(cluster_.metrics().Get("columnar.merge_rows"), 40);

  auto clean = ExecuteDistPlan(
      &cluster_, AggPlan("sales", nullptr, {}, {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->table.rows()[0][0].AsInt(), 140);
  EXPECT_EQ(clean->stats.scan_stats.delta_rows, 0u);
}

}  // namespace
}  // namespace ofi::cluster
