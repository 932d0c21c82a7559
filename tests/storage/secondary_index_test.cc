/// Randomized writer-vs-oracle equivalence for the MVCC-aware secondary
/// index (storage/secondary_index.h). The oracle is the heap itself:
/// ScanVisible under the same VisibilityChecker, filtered on the indexed
/// column. A probe must match the oracle bit for bit at ANY snapshot —
/// current or saved — across inserts, updates, deletes, delete/reinsert
/// cycles, rollbacks, and Compact. The concurrent sections are sized so the
/// tsan preset gives them real teeth.
#include "storage/secondary_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/delta_store.h"
#include "storage/mvcc_table.h"
#include "txn/local_txn_manager.h"

namespace ofi::storage {
namespace {

using ofi::Rng;
using sql::Column;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

Schema TestSchema() {
  return Schema({Column{"k", TypeId::kInt64, ""},
                 Column{"grp", TypeId::kInt64, ""},
                 Column{"payload", TypeId::kInt64, ""}});
}

bool RowLess(const Row& a, const Row& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (size_t i = 0; i < a.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return false;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

/// The full-scan oracle: every visible row whose indexed column is in
/// [lo, hi] (equality = lo == hi).
std::vector<Row> OracleRange(const MvccTable& table,
                             const txn::VisibilityChecker& vis, size_t col,
                             const Value& lo, const Value& hi) {
  std::vector<Row> out;
  for (auto& row : table.ScanVisible(vis)) {
    if (!(row[col] < lo) && !(hi < row[col])) out.push_back(std::move(row));
  }
  return Sorted(std::move(out));
}

struct Harness {
  MvccTable table{TestSchema()};
  txn::LocalTxnManager mgr;
  std::shared_ptr<SecondaryIndex> index;
  ListenerId listener = 0;

  explicit Harness(SecondaryIndex::Kind kind) {
    index = *SecondaryIndex::Make(TestSchema(), "grp", kind);
    HeapDump dump = table.AttachChangeListener(
        [idx = index](const HeapChange& c) { idx->OnHeapChange(c); },
        &listener);
    index->InstallBase(std::move(dump));
  }

  txn::VisibilityChecker CheckerFor(const txn::Snapshot* snap,
                                    txn::Xid xid) const {
    return txn::VisibilityChecker(snap, &mgr.clog(), xid);
  }

  void CheckEquivalence(const txn::Snapshot* snap, txn::Xid xid,
                        int64_t max_grp) {
    txn::VisibilityChecker vis = CheckerFor(snap, xid);
    for (int64_t g = 0; g <= max_grp; ++g) {
      Value v(g);
      std::vector<Row> got = Sorted(index->Probe(v, vis));
      std::vector<Row> want = OracleRange(table, vis, 1, v, v);
      ASSERT_EQ(got, want) << "equality probe grp=" << g;
    }
    if (index->kind() == SecondaryIndex::Kind::kOrdered) {
      Value lo(max_grp / 3), hi(2 * max_grp / 3);
      std::vector<Row> got = Sorted(index->RangeProbe(lo, hi, vis));
      std::vector<Row> want = OracleRange(table, vis, 1, lo, hi);
      ASSERT_EQ(got, want) << "range probe";
    }
  }
};

/// One committed mutation step driven by the rng: insert a fresh key,
/// update an existing key to a new group, delete a key, reinsert a deleted
/// key, or begin-and-rollback a mutation.
void RandomStep(Harness* h, Rng* rng, std::vector<int64_t>* live,
                std::vector<int64_t>* dead, int64_t* next_key,
                int64_t max_grp) {
  txn::Xid xid = h->mgr.Begin();
  txn::Snapshot snap = h->mgr.TakeSnapshot();
  txn::VisibilityChecker vis = h->CheckerFor(&snap, xid);
  const double dice = rng->NextDouble();
  bool wrote = false;
  if (dice < 0.35 || live->empty()) {
    int64_t k = (*next_key)++;
    ASSERT_TRUE(h->table
                    .Insert(Value(k),
                            {Value(k), Value(rng->Uniform(0, max_grp)),
                             Value(rng->Uniform(0, 1000))},
                            xid, vis)
                    .ok());
    live->push_back(k);
    wrote = true;
  } else if (dice < 0.60) {
    int64_t k = (*live)[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(live->size()) - 1))];
    ASSERT_TRUE(h->table
                    .Update(Value(k),
                            {Value(k), Value(rng->Uniform(0, max_grp)),
                             Value(rng->Uniform(0, 1000))},
                            xid, vis)
                    .ok());
    wrote = true;
  } else if (dice < 0.80) {
    size_t at = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(live->size()) - 1));
    int64_t k = (*live)[at];
    ASSERT_TRUE(h->table.Delete(Value(k), xid, vis).ok());
    live->erase(live->begin() + static_cast<long>(at));
    dead->push_back(k);
    wrote = true;
  } else if (dice < 0.90 && !dead->empty()) {
    // Delete/reinsert cycle: the key gets a brand-new version chain entry
    // while older dead versions still hold postings.
    size_t at = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(dead->size()) - 1));
    int64_t k = (*dead)[at];
    ASSERT_TRUE(h->table
                    .Insert(Value(k),
                            {Value(k), Value(rng->Uniform(0, max_grp)),
                             Value(rng->Uniform(0, 1000))},
                            xid, vis)
                    .ok());
    dead->erase(dead->begin() + static_cast<long>(at));
    live->push_back(k);
    wrote = true;
  }
  if (wrote && rng->Chance(0.1)) {
    h->table.RollbackXid(xid);
    h->mgr.Abort(xid);
    // Undo the bookkeeping: the heap state did not change.
    // (Cheapest correct fix: rebuild live/dead from the oracle.)
    live->clear();
    dead->clear();
    txn::Snapshot s2 = h->mgr.TakeSnapshot();
    txn::VisibilityChecker v2 = h->CheckerFor(&s2, h->mgr.Begin());
    for (const auto& row : h->table.ScanVisible(v2)) {
      live->push_back(row[0].AsInt());
    }
    for (int64_t k = 0; k < *next_key; ++k) {
      if (std::find(live->begin(), live->end(), k) == live->end()) {
        dead->push_back(k);
      }
    }
    return;
  }
  ASSERT_TRUE(h->mgr.Commit(xid).ok());
}

class SecondaryIndexEquivalenceTest
    : public ::testing::TestWithParam<SecondaryIndex::Kind> {};

TEST_P(SecondaryIndexEquivalenceTest, RandomizedWriterVsOracle) {
  Harness h(GetParam());
  Rng rng(GetParam() == SecondaryIndex::Kind::kHash ? 7 : 8);
  constexpr int64_t kMaxGrp = 12;
  std::vector<int64_t> live, dead;
  int64_t next_key = 0;

  // Saved snapshots (with a live reader xid each) re-checked at the end:
  // probes must answer correctly AT ANY SNAPSHOT, not just the newest.
  std::vector<std::pair<txn::Snapshot, txn::Xid>> saved;

  for (int step = 0; step < 400; ++step) {
    ASSERT_NO_FATAL_FAILURE(
        RandomStep(&h, &rng, &live, &dead, &next_key, kMaxGrp));
    if (step % 25 == 7) {
      txn::Xid rd = h.mgr.Begin();
      saved.emplace_back(h.mgr.TakeSnapshot(), rd);
    }
    if (step % 50 == 13) {
      txn::Xid rd = h.mgr.Begin();
      txn::Snapshot snap = h.mgr.TakeSnapshot();
      ASSERT_NO_FATAL_FAILURE(h.CheckEquivalence(&snap, rd, kMaxGrp));
      ASSERT_TRUE(h.mgr.Commit(rd).ok());
    }
  }
  // Old snapshots still answer exactly as the heap does under them.
  for (auto& [snap, xid] : saved) {
    ASSERT_NO_FATAL_FAILURE(h.CheckEquivalence(&snap, xid, kMaxGrp));
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SecondaryIndexEquivalenceTest,
                         ::testing::Values(SecondaryIndex::Kind::kHash,
                                           SecondaryIndex::Kind::kOrdered));

TEST(SecondaryIndexTest, ProbeHeapKeyMatchesHeapRead) {
  Harness h(SecondaryIndex::Kind::kHash);
  Rng rng(11);
  std::vector<int64_t> live, dead;
  int64_t next_key = 0;
  for (int step = 0; step < 200; ++step) {
    ASSERT_NO_FATAL_FAILURE(RandomStep(&h, &rng, &live, &dead, &next_key, 6));
  }
  txn::Xid rd = h.mgr.Begin();
  txn::Snapshot snap = h.mgr.TakeSnapshot();
  txn::VisibilityChecker vis = h.CheckerFor(&snap, rd);
  for (int64_t k = 0; k < next_key; ++k) {
    Result<Row> via_index = h.index->ProbeHeapKey(Value(k), vis);
    Result<Row> via_heap = h.table.Read(Value(k), vis);
    ASSERT_EQ(via_index.ok(), via_heap.ok()) << "key " << k;
    if (via_index.ok()) {
      ASSERT_EQ(*via_index, *via_heap) << "key " << k;
    }
  }
}

TEST(SecondaryIndexTest, CompactPrunesDeadPostingsOnly) {
  Harness h(SecondaryIndex::Kind::kOrdered);
  txn::Xid w1 = h.mgr.Begin();
  {
    txn::Snapshot s = h.mgr.TakeSnapshot();
    txn::VisibilityChecker vis = h.CheckerFor(&s, w1);
    for (int64_t k = 0; k < 20; ++k) {
      ASSERT_TRUE(
          h.table.Insert(Value(k), {Value(k), Value(k % 4), Value(k)}, w1, vis)
              .ok());
    }
  }
  ASSERT_TRUE(h.mgr.Commit(w1).ok());
  // Delete half; the deleted versions become universally dead once the
  // deleter commits below the horizon.
  txn::Xid w2 = h.mgr.Begin();
  {
    txn::Snapshot s = h.mgr.TakeSnapshot();
    txn::VisibilityChecker vis = h.CheckerFor(&s, w2);
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(h.table.Delete(Value(k), w2, vis).ok());
    }
  }
  ASSERT_TRUE(h.mgr.Commit(w2).ok());
  ASSERT_EQ(h.index->postings(), 20u);

  txn::Xid horizon = h.mgr.Begin();
  ASSERT_TRUE(h.mgr.Commit(horizon).ok());
  size_t pruned = h.index->Compact(h.mgr.clog(), horizon);
  EXPECT_EQ(pruned, 10u);
  EXPECT_EQ(h.index->postings(), 10u);

  // Probes after Compact still mirror the heap exactly.
  txn::Xid rd = h.mgr.Begin();
  txn::Snapshot snap = h.mgr.TakeSnapshot();
  ASSERT_NO_FATAL_FAILURE(h.CheckEquivalence(&snap, rd, 4));
}

TEST(SecondaryIndexTest, HashIndexReturnsEmptyForRangeProbe) {
  Harness h(SecondaryIndex::Kind::kHash);
  txn::Xid w = h.mgr.Begin();
  {
    txn::Snapshot s = h.mgr.TakeSnapshot();
    txn::VisibilityChecker vis = h.CheckerFor(&s, w);
    ASSERT_TRUE(
        h.table.Insert(Value(1), {Value(1), Value(2), Value(3)}, w, vis).ok());
  }
  ASSERT_TRUE(h.mgr.Commit(w).ok());
  txn::Xid rd = h.mgr.Begin();
  txn::Snapshot snap = h.mgr.TakeSnapshot();
  txn::VisibilityChecker vis = h.CheckerFor(&snap, rd);
  EXPECT_TRUE(h.index->RangeProbe(Value(0), Value(9), vis).empty());
  EXPECT_EQ(h.index->Probe(Value(2), vis).size(), 1u);
}

TEST(SecondaryIndexTest, CoexistsWithDeltaStoreListener) {
  // The multi-listener heap: a columnar delta shard and a secondary index
  // attached to the SAME table, fed by the same event stream; detaching one
  // must not starve the other.
  MvccTable table(TestSchema());
  txn::LocalTxnManager mgr;

  auto index = *SecondaryIndex::Make(TestSchema(), "grp",
                                     SecondaryIndex::Kind::kHash);
  ListenerId index_listener = 0;
  HeapDump dump1 = table.AttachChangeListener(
      [index](const HeapChange& c) { index->OnHeapChange(c); },
      &index_listener);
  index->InstallBase(std::move(dump1));

  auto shard = std::make_shared<DeltaShard>(table.schema());
  ListenerId delta_listener = 0;
  HeapDump dump2 = table.AttachChangeListener(
      [shard](const HeapChange& c) { shard->OnHeapChange(c); },
      &delta_listener);
  shard->InstallBase(std::move(dump2), &mgr.clog(),
                     mgr.TakeSnapshot().xmin, txn::kNoGxid, table.epoch());

  auto write = [&](int64_t k) {
    txn::Xid xid = mgr.Begin();
    txn::Snapshot s = mgr.TakeSnapshot();
    txn::VisibilityChecker vis(&s, &mgr.clog(), xid);
    ASSERT_TRUE(
        table.Insert(Value(k), {Value(k), Value(k % 3), Value(k)}, xid, vis)
            .ok());
    ASSERT_TRUE(mgr.Commit(xid).ok());
  };
  for (int64_t k = 0; k < 10; ++k) write(k);

  txn::Xid rd = mgr.Begin();
  txn::Snapshot snap = mgr.TakeSnapshot();
  txn::VisibilityChecker vis(&snap, &mgr.clog(), rd);
  EXPECT_EQ(index->Probe(Value(0), vis).size(), 4u);  // 0,3,6,9
  DeltaShard::View view = shard->Snapshot(vis);
  EXPECT_EQ(view.sealed->sealed_rows() + view.delta_rows.size(), 10u);

  // Detach the delta listener; the index keeps receiving events.
  table.DetachChangeListener(delta_listener);
  for (int64_t k = 10; k < 16; ++k) write(k);
  txn::Xid rd2 = mgr.Begin();
  txn::Snapshot snap2 = mgr.TakeSnapshot();
  txn::VisibilityChecker vis2(&snap2, &mgr.clog(), rd2);
  EXPECT_EQ(index->Probe(Value(0), vis2).size(), 6u);  // +12, +15
  table.DetachChangeListener(index_listener);
}

TEST(SecondaryIndexConcurrencyTest, ConcurrentWritersAndProbes) {
  // Writers mutate through the txn manager while probe threads hammer the
  // index. Assertions are coarse (every returned row carries the probed
  // group; ProbeHeapKey agrees with the heap); the real teeth are under
  // the tsan preset.
  Harness h(SecondaryIndex::Kind::kOrdered);
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 150;
  constexpr int64_t kMaxGrp = 5;
  constexpr int kProbers = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> probes{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Start writing only once the probers are running: the writes can
      // otherwise finish before any prober thread is scheduled, and the
      // probes would never overlap a write.
      while (probes.load(std::memory_order_acquire) < kProbers) {
        std::this_thread::yield();
      }
      Rng rng(100 + w);
      for (int i = 0; i < kPerWriter; ++i) {
        int64_t k = w * kPerWriter + i;
        txn::Xid xid = h.mgr.Begin();
        txn::Snapshot s = h.mgr.TakeSnapshot();
        txn::VisibilityChecker vis = h.CheckerFor(&s, xid);
        ASSERT_TRUE(h.table
                        .Insert(Value(k),
                                {Value(k), Value(rng.Uniform(0, kMaxGrp)),
                                 Value(k)},
                                xid, vis)
                        .ok());
        if (rng.Chance(0.3)) {
          ASSERT_TRUE(h.table
                          .Update(Value(k),
                                  {Value(k), Value(rng.Uniform(0, kMaxGrp)),
                                   Value(k + 1)},
                                  xid, vis)
                          .ok());
        }
        if (rng.Chance(0.15)) {
          h.table.RollbackXid(xid);
          h.mgr.Abort(xid);
        } else {
          ASSERT_TRUE(h.mgr.Commit(xid).ok());
        }
      }
    });
  }

  std::vector<std::thread> probers;
  for (int r = 0; r < kProbers; ++r) {
    probers.emplace_back([&, r] {
      Rng rng(200 + r);
      while (!stop.load(std::memory_order_acquire)) {
        txn::Xid xid = h.mgr.Begin();
        txn::Snapshot s = h.mgr.TakeSnapshot();
        txn::VisibilityChecker vis = h.CheckerFor(&s, xid);
        Value g(rng.Uniform(0, kMaxGrp));
        for (const Row& row : h.index->Probe(g, vis)) {
          ASSERT_EQ(row.size(), 3u);
          ASSERT_TRUE(row[1].Equals(g));
        }
        int64_t k = rng.Uniform(0, kWriters * kPerWriter - 1);
        Result<Row> via_index = h.index->ProbeHeapKey(Value(k), vis);
        Result<Row> via_heap = h.table.Read(Value(k), vis);
        ASSERT_EQ(via_index.ok(), via_heap.ok());
        if (via_index.ok()) {
          ASSERT_EQ(*via_index, *via_heap);
        }
        ASSERT_TRUE(h.mgr.Commit(xid).ok());
        probes.fetch_add(1, std::memory_order_release);
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : probers) t.join();
  EXPECT_GT(probes.load(), 0);

  // Final full equivalence once quiescent.
  txn::Xid rd = h.mgr.Begin();
  txn::Snapshot snap = h.mgr.TakeSnapshot();
  ASSERT_NO_FATAL_FAILURE(h.CheckEquivalence(&snap, rd, kMaxGrp));
}

}  // namespace
}  // namespace ofi::storage
