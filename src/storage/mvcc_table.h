/// \file mvcc_table.h
/// \brief A versioned row store: every key holds a chain of tuple versions
/// with (xmin, xmax) headers, exactly the representation the paper's
/// Anomaly2 walkthrough uses (Fig. 2 table: tuple1 deleted by T1, tuple2
/// created by T1 and deleted by T3, tuple3 created by T3).
#pragma once

#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sql/schema.h"
#include "txn/snapshot.h"
#include "txn/types.h"

namespace ofi::storage {

/// One tuple version with its MVCC header.
struct TupleVersion {
  txn::Xid xmin = txn::kInvalidXid;  // creator
  txn::Xid xmax = txn::kInvalidXid;  // deleter (kInvalidXid = live)
  sql::Row data;
};

/// \brief One heap mutation, streamed to the columnar delta store (see
/// storage/delta_store.h). Fired under the table's exclusive lock, so a
/// listener observes changes in exactly the heap's serialization order.
struct HeapChange {
  enum class Op : uint8_t {
    kInsert,        ///< new version appended (xid, key, row)
    kMarkDeleted,   ///< xmax set on the version created by `target_xmin`
    kClearXmax,     ///< rollback: clear xmax == xid on one key's chain
    kClearXmaxAll,  ///< rollback: clear xmax == xid everywhere
  };
  Op op = Op::kInsert;
  txn::Xid xid = txn::kInvalidXid;
  sql::Value key;
  sql::Row row;                            // kInsert only
  txn::Xid target_xmin = txn::kInvalidXid; // kMarkDeleted only
};

/// Invoked under the heap's exclusive lock — must not re-enter the table
/// and must not block on anything that can wait on a heap reader/writer.
using HeapChangeListener = std::function<void(const HeapChange&)>;

/// Full version-chain dump returned by AttachChangeListener: the base state
/// a delta store builds from, atomic with the listener installation.
using HeapDump = std::vector<std::pair<sql::Value, std::vector<TupleVersion>>>;

/// Handle for one attached listener; pass it to DetachChangeListener.
/// 0 is never issued, so a zero-initialized id means "not attached".
using ListenerId = uint64_t;

/// \brief A keyed MVCC heap. Writes are first-updater-wins: updating or
/// deleting a version whose xmax is already set by a live transaction
/// aborts the second writer (write-write conflict).
///
/// Thread safety: version chains are guarded by a std::shared_mutex —
/// reads/scans take a shared lock and run concurrently (the parallel MPP
/// scatter path), writes take an exclusive lock. Versions() returns a
/// pointer into guarded state; it is for single-threaded use (tests).
class MvccTable {
 public:
  explicit MvccTable(sql::Schema schema) : schema_(std::move(schema)) {}

  const sql::Schema& schema() const { return schema_; }

  /// Inserts a new row under `key`. Fails with AlreadyExists if a version
  /// visible to `vis` already exists for the key.
  Status Insert(const sql::Value& key, sql::Row row, txn::Xid xid,
                const txn::VisibilityChecker& vis);

  /// Updates the visible version: sets its xmax and appends the new version.
  Status Update(const sql::Value& key, sql::Row row, txn::Xid xid,
                const txn::VisibilityChecker& vis);

  /// Deletes the visible version (sets xmax).
  Status Delete(const sql::Value& key, txn::Xid xid,
                const txn::VisibilityChecker& vis);

  /// Point read of the visible version.
  Result<sql::Row> Read(const sql::Value& key,
                        const txn::VisibilityChecker& vis) const;

  /// Full scan: all visible rows, in unspecified order (the order
  /// ForEachVisible visits them in).
  std::vector<sql::Row> ScanVisible(const txn::VisibilityChecker& vis) const;

  /// Calls `fn(const sql::Row&)` on every visible row, under the shared
  /// lock and without copying it, in the heap's iteration order. `fn` must
  /// not re-enter the table.
  template <typename Fn>
  void ForEachVisible(const txn::VisibilityChecker& vis, Fn&& fn) const {
    std::shared_lock lock(mu_);
    for (const auto& [key, chain] : chains_) {
      int idx = FindVisible(chain, vis);
      if (idx >= 0) fn(chain[static_cast<size_t>(idx)].data);
    }
  }

  /// Undoes the effects of an aborted transaction: clears xmax it set and
  /// leaves its insertions dead (their xmin is aborted, so they are
  /// invisible; physical removal happens in Vacuum).
  void RollbackXid(txn::Xid xid);

  /// Targeted rollback for one key (write-set driven abort path).
  void RollbackKey(const sql::Value& key, txn::Xid xid);

  /// Removes versions invisible to everyone older than `horizon` (dead
  /// versions from aborted or superseded writes).
  size_t Vacuum(txn::Xid horizon, const txn::CommitLog& clog);

  /// Raw version chain for a key (tests and the Fig. 2 walkthrough).
  const std::vector<TupleVersion>* Versions(const sql::Value& key) const;

  /// Atomically snapshots every version chain AND installs `listener`
  /// under one exclusive lock, so no mutation can fall between the dump
  /// and the first notification — the delta store's build contract.
  /// Multiple listeners can coexist (a columnar delta store and any number
  /// of secondary indexes); each gets every change in heap serialization
  /// order. The issued id (written to `id_out` when non-null) detaches
  /// exactly this listener.
  HeapDump AttachChangeListener(HeapChangeListener listener,
                                ListenerId* id_out = nullptr);
  void DetachChangeListener(ListenerId id);

  size_t num_keys() const {
    std::shared_lock lock(mu_);
    return chains_.size();
  }
  size_t num_versions() const {
    std::shared_lock lock(mu_);
    return num_versions_;
  }
  /// Monotone counter bumped by every mutating call (Insert/Update/Delete/
  /// Rollback*/Vacuum). Deletes only set xmax, so num_versions() cannot
  /// detect them; the columnar side-store (cluster/data_node) compares
  /// epochs to decide whether its chunks are stale.
  uint64_t epoch() const {
    std::shared_lock lock(mu_);
    return mutation_epoch_;
  }

 private:
  // Newest visible version index in a chain, or -1. Caller holds mu_.
  int FindVisible(const std::vector<TupleVersion>& chain,
                  const txn::VisibilityChecker& vis) const;

  // Fires `change` at every listener. Caller holds mu_ exclusively.
  void Notify(const HeapChange& change) const {
    for (const auto& [id, fn] : listeners_) fn(change);
  }
  bool HasListeners() const { return !listeners_.empty(); }

  mutable std::shared_mutex mu_;  // guards chains_, num_versions_, epoch
  sql::Schema schema_;
  std::unordered_map<sql::Value, std::vector<TupleVersion>> chains_;
  size_t num_versions_ = 0;
  uint64_t mutation_epoch_ = 0;
  // Attached listeners, fired in attach order under the unique_lock.
  // A small vector keeps Notify allocation-free on the hot write path.
  std::vector<std::pair<ListenerId, HeapChangeListener>> listeners_;
  ListenerId next_listener_id_ = 1;
};

}  // namespace ofi::storage
