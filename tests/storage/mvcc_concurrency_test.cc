/// Concurrency smoke test for the shared-mutex read path the parallel MPP
/// scatter relies on: concurrent ScanVisible/ForEachVisible against
/// MvccTable while writer threads insert and commit through
/// LocalTxnManager. Correctness assertions are deliberately coarse
/// (snapshot isolation bounds, visit == copy); the real teeth are under
/// ThreadSanitizer (the tsan CMake preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "storage/mvcc_table.h"
#include "txn/local_txn_manager.h"

namespace ofi::storage {
namespace {

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

TEST(MvccConcurrencyTest, ConcurrentScansAndCommittedWrites) {
  MvccTable table(Schema({Column{"k", TypeId::kInt64, ""},
                          Column{"v", TypeId::kInt64, ""}}));
  txn::LocalTxnManager mgr;
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 200;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> scans{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Start writing only once the readers are scanning: 400 inserts can
      // otherwise finish before any reader thread is scheduled, and the
      // scans would never overlap a write.
      while (scans.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kPerWriter; ++i) {
        int64_t key = w * kPerWriter + i;
        txn::Xid xid = mgr.Begin();
        txn::Snapshot snap = mgr.TakeSnapshot();
        txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
        ASSERT_TRUE(
            table.Insert(Value(key), {Value(key), Value(key * 2)}, xid, vis)
                .ok());
        ASSERT_TRUE(mgr.Commit(xid).ok());
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        txn::Xid xid = mgr.Begin();
        txn::Snapshot snap = mgr.TakeSnapshot();
        txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
        std::vector<Row> rows = table.ScanVisible(vis);
        // Snapshot isolation: only committed inserts are visible, each with
        // an intact (key, 2*key) payload.
        EXPECT_LE(rows.size(), static_cast<size_t>(kWriters * kPerWriter));
        for (const auto& row : rows) {
          ASSERT_EQ(row.size(), 2u);
          EXPECT_EQ(row[1].AsInt(), row[0].AsInt() * 2);
        }
        ASSERT_TRUE(mgr.Commit(xid).ok());
        scans.fetch_add(1, std::memory_order_release);
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(scans.load(), 0);

  // Final state: everything committed and visible.
  txn::Xid xid = mgr.Begin();
  txn::Snapshot snap = mgr.TakeSnapshot();
  txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
  EXPECT_EQ(table.ScanVisible(vis).size(),
            static_cast<size_t>(kWriters * kPerWriter));
  ASSERT_TRUE(mgr.Commit(xid).ok());
}

TEST(MvccConcurrencyTest, PoolScansWhileWriterCommits) {
  MvccTable table(Schema({Column{"k", TypeId::kInt64, ""},
                          Column{"v", TypeId::kInt64, ""}}));
  txn::LocalTxnManager mgr;
  // Seed rows.
  for (int64_t i = 0; i < 50; ++i) {
    txn::Xid xid = mgr.Begin();
    txn::Snapshot snap = mgr.TakeSnapshot();
    txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
    ASSERT_TRUE(table.Insert(Value(i), {Value(i), Value(i)}, xid, vis).ok());
    ASSERT_TRUE(mgr.Commit(xid).ok());
  }

  std::thread writer([&] {
    for (int64_t i = 50; i < 150; ++i) {
      txn::Xid xid = mgr.Begin();
      txn::Snapshot snap = mgr.TakeSnapshot();
      txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
      ASSERT_TRUE(table.Insert(Value(i), {Value(i), Value(i)}, xid, vis).ok());
      ASSERT_TRUE(mgr.Commit(xid).ok());
    }
  });

  // The MPP scatter shape: ParallelFor over "shards", each task scanning
  // under its own snapshot while the writer runs.
  common::ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(4, [&](int) {
      txn::Xid xid = mgr.Begin();
      txn::Snapshot snap = mgr.TakeSnapshot();
      txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
      std::vector<Row> rows = table.ScanVisible(vis);
      EXPECT_GE(rows.size(), 50u);
      EXPECT_LE(rows.size(), 150u);
      ASSERT_TRUE(mgr.Commit(xid).ok());
    });
  }
  writer.join();
}

// The visiting scan the MPP row path uses: ForEachVisible hands out
// references under the shared lock while a writer inserts, updates and
// commits beside it, and at one snapshot it must visit exactly the rows
// ScanVisible copies. (Order is compared only as a set: a concurrent insert
// may rehash the heap between the two calls.)
TEST(MvccConcurrencyTest, ForEachVisibleMatchesScanVisibleBesideWriter) {
  MvccTable table(Schema({Column{"k", TypeId::kInt64, ""},
                          Column{"v", TypeId::kInt64, ""}}));
  txn::LocalTxnManager mgr;
  auto write = [&](int64_t key, int64_t v, bool update) {
    txn::Xid xid = mgr.Begin();
    txn::Snapshot snap = mgr.TakeSnapshot();
    txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
    Status st =
        update ? table.Update(Value(key), {Value(key), Value(v)}, xid, vis)
               : table.Insert(Value(key), {Value(key), Value(v)}, xid, vis);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(mgr.Commit(xid).ok());
  };
  for (int64_t i = 0; i < 50; ++i) write(i, 0, /*update=*/false);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t i = 50; i < 250; ++i) {
      write(i, 0, /*update=*/false);
      write(i % 50, i, /*update=*/true);
    }
    done.store(true, std::memory_order_release);
  });

  auto by_key = [](std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a[0].AsInt() < b[0].AsInt();
    });
    return rows;
  };
  int rounds = 0;
  while (!done.load(std::memory_order_acquire) || rounds < 5) {
    txn::Xid xid = mgr.Begin();
    txn::Snapshot snap = mgr.TakeSnapshot();
    txn::VisibilityChecker vis(&snap, &mgr.clog(), xid);
    std::vector<Row> visited;
    table.ForEachVisible(vis, [&](const Row& row) { visited.push_back(row); });
    const std::vector<Row> copied = by_key(table.ScanVisible(vis));
    visited = by_key(std::move(visited));
    ASSERT_EQ(visited.size(), copied.size());
    EXPECT_GE(visited.size(), 50u);
    for (size_t r = 0; r < visited.size(); ++r) {
      ASSERT_EQ(visited[r].size(), 2u);
      EXPECT_TRUE(visited[r][0].Equals(copied[r][0])) << "row " << r;
      EXPECT_TRUE(visited[r][1].Equals(copied[r][1])) << "row " << r;
    }
    ASSERT_TRUE(mgr.Commit(xid).ok());
    ++rounds;
  }
  writer.join();
}

}  // namespace
}  // namespace ofi::storage
