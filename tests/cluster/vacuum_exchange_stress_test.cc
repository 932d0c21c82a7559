/// Stress: background vacuum running concurrently with distributed joins
/// over the exchange. Vacuum takes unique locks on the MVCC tables while
/// join workers scan them through shared locks and move rows through the
/// exchange channels on the thread pool — under tsan this exercises every
/// cross-thread edge the subsystem has (storage locks, channel mutexes,
/// metrics registry). Correctness check: the data is immutable during the
/// concurrent phase (updates create garbage BEFORE it), so every join must
/// equal the precomputed reference no matter when vacuum runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.h"
#include "dist_plans.h"
#include "sql/executor.h"

namespace ofi::cluster {
namespace {

using sql::Column;
using sql::Expr;
using sql::Row;
using sql::Schema;
using sql::Table;
using sql::TypeId;
using sql::Value;

std::string RowKey(const Row& r) {
  std::string k;
  for (const auto& v : r) {
    k += v.is_null() ? std::string("\x01<null>") : v.ToString();
    k += '\x1f';
  }
  return k;
}

std::vector<Row> Canonical(const Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return RowKey(a) < RowKey(b); });
  return rows;
}

TEST(VacuumExchangeStressTest, JoinsStayExactWhileVacuumRuns) {
  Cluster cluster(4, Protocol::kGtmLite);
  Schema fact({Column{"id", TypeId::kInt64, ""},
               Column{"dim_id", TypeId::kInt64, ""},
               Column{"v", TypeId::kInt64, ""}});
  Schema dim({Column{"d_id", TypeId::kInt64, ""},
              Column{"tag", TypeId::kInt64, ""}});
  ASSERT_TRUE(cluster.CreateTable("fact", fact).ok());
  ASSERT_TRUE(cluster.CreateTable("dim", dim).ok());

  Rng rng(99);
  std::vector<Row> fact_rows, dim_rows;
  for (int64_t d = 0; d < 30; ++d) {
    Row row = {Value(d), Value(rng.Uniform(0, 4))};
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("dim", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
    dim_rows.push_back(row);
  }
  for (int64_t i = 0; i < 240; ++i) {
    Row row = {Value(i), Value(rng.Uniform(0, 29)), Value(rng.Uniform(1, 100))};
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("fact", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
    fact_rows.push_back(row);
  }
  // Churn: update every fact row a few times so vacuum has dead versions to
  // reclaim during the concurrent phase. The FINAL image is the reference.
  for (int round = 0; round < 3; ++round) {
    for (int64_t i = 0; i < 240; ++i) {
      Row row = {Value(i), Value(rng.Uniform(0, 29)), Value(rng.Uniform(1, 100))};
      Txn t = cluster.Begin(TxnScope::kSingleShard);
      ASSERT_TRUE(t.Update("fact", row[0], row).ok());
      ASSERT_TRUE(t.Commit().ok());
      fact_rows[static_cast<size_t>(i)] = row;
    }
  }

  JoinQuery spec{"fact", "dim", "dim_id", "d_id"};

  // Single-node reference over the final committed images.
  sql::Catalog catalog;
  catalog.Register("fact", Table(fact, fact_rows));
  catalog.Register("dim", Table(dim, dim_rows));
  sql::Executor exec(&catalog);
  Table want_table =
      exec.Execute(sql::MakeJoin(sql::MakeScan("fact"), sql::MakeScan("dim"),
                                 Expr::EqCols("dim_id", "d_id")))
          .ValueOrDie();
  std::vector<Row> want = Canonical(want_table);

  // Vacuum thread: hammer cluster-wide GC (unique locks + metrics writes)
  // until the joins are done.
  std::atomic<bool> stop{false};
  std::atomic<size_t> total_removed{0};
  std::thread vacuumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      total_removed.fetch_add(cluster.Vacuum(), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  for (int iter = 0; iter < 12; ++iter) {
    const JoinStrategy strategy = iter % 2 == 0 ? JoinStrategy::kBroadcast
                                                : JoinStrategy::kRepartition;
    auto result = ExecuteDistPlan(&cluster, spec.Plan(strategy));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Row> got = Canonical(result->table);
    ASSERT_EQ(got.size(), want.size()) << "iter " << iter;
    for (size_t i = 0; i < got.size(); ++i) {
      for (size_t c = 0; c < got[i].size(); ++c) {
        ASSERT_TRUE(got[i][c].Equals(want[i][c]))
            << "iter " << iter << " row " << i << " col " << c;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  vacuumer.join();

  // The churn left ~3x240 dead versions; the concurrent vacuum reclaimed
  // them (possibly across several passes) without upsetting any join.
  EXPECT_GT(total_removed.load(), 0u);
}

}  // namespace
}  // namespace ofi::cluster
