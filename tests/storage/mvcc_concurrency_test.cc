/// Concurrency smoke test for the shared-mutex read path the parallel MPP
/// scatter relies on: concurrent ScanVisible/Read against MvccTable while
/// writer threads insert and commit through LocalTxnManager. Correctness
/// assertions are deliberately coarse (snapshot isolation bounds); the real
/// teeth are under ThreadSanitizer (the tsan CMake preset).
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ofi::storage
