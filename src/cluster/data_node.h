/// \file data_node.h
/// \brief One shard server: hosts MVCC tables and a local transaction
/// manager, and models the commit-confirmation queue whose delivery delay
/// creates the Anomaly1 window.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/column_store.h"
#include "storage/delta_store.h"
#include "storage/mvcc_table.h"
#include "storage/secondary_index.h"
#include "txn/gtm.h"
#include "txn/local_txn_manager.h"

namespace ofi::cluster {

/// \brief A data node (DN).
class DataNode {
 public:
  explicit DataNode(int id) : id_(id) {}

  int id() const { return id_; }

  /// Creates this DN's shard of `name`.
  Status CreateTable(const std::string& name, const sql::Schema& schema);

  Result<storage::MvccTable*> GetTable(const std::string& name);

  txn::LocalTxnManager& txn_mgr() { return txn_mgr_; }
  const txn::LocalTxnManager& txn_mgr() const { return txn_mgr_; }

  /// Registers an externally allocated xid (baseline protocol: the GXID is
  /// used directly as this DN's xid).
  void BeginExternal(txn::Xid xid);

  // --- Commit-confirmation queue (Anomaly1 window) --------------------------
  /// Queues the commit of a prepared transaction instead of applying it.
  void EnqueuePendingCommit(txn::Xid xid, txn::Gxid gxid) {
    pending_commits_.push_back({xid, gxid});
  }
  /// Forces delivery of the pending commit for `xid` (the UPGRADE wait).
  /// Returns the final state (kCommitted, or current state if not pending).
  txn::TxnState FinishPendingCommit(txn::Xid xid);
  /// Delivers every queued confirmation in order.
  void DeliverAllPendingCommits();
  size_t pending_commit_count() const { return pending_commits_.size(); }

  const std::unordered_map<std::string, std::unique_ptr<storage::MvccTable>>&
  tables() const {
    return tables_;
  }
  std::unordered_map<std::string, std::unique_ptr<storage::MvccTable>>&
  mutable_tables() {
    return tables_;
  }

  /// 2PC in-doubt recovery: every prepared transaction asks the GTM for the
  /// global outcome — commit if globally committed, roll back if globally
  /// aborted, stay prepared while the global transaction is still live.
  /// Returns the number of transactions resolved.
  int RecoverInDoubt(const txn::Gtm& gtm);

  // --- Columnar side-store (OLAP scan path, see cluster/distributed_plan) ---
  /// One table's columnar copy on this DN: a storage::DeltaShard of sealed
  /// chunks plus the row-format delta tail the heap's change listener feeds
  /// (see storage/delta_store.h). Scans union sealed kernels with the tail,
  /// so the columnar path never goes stale and never falls back for
  /// freshness. Registration wires the heap listener; DropColumnar detaches
  /// it before releasing the shard.
  void RegisterColumnar(const std::string& name,
                        std::shared_ptr<storage::DeltaShard> shard,
                        storage::ListenerId listener) {
    columnar_[name] = ColumnarEntry{std::move(shard), listener};
  }
  /// nullptr when the table has no columnar copy on this DN. Returned by
  /// value: the shard outlives a scan even if dropped mid-flight.
  std::shared_ptr<storage::DeltaShard> GetColumnarShard(
      const std::string& name) const {
    auto it = columnar_.find(name);
    return it == columnar_.end() ? nullptr : it->second.shard;
  }
  void DropColumnar(const std::string& name) {
    auto it = columnar_.find(name);
    if (it == columnar_.end()) return;
    auto tit = tables_.find(name);
    if (tit != tables_.end()) {
      tit->second->DetachChangeListener(it->second.listener);
    }
    columnar_.erase(it);
  }

  // --- Secondary indexes (OLTP point-lookup path, storage/secondary_index) --
  /// Registers this DN's shard of an index; the heap listener that feeds it
  /// is detached by DropIndex. At most one index per (table, column).
  /// The registry mutex only guards the map — index objects are returned by
  /// shared_ptr so a probe outlives a concurrent drop.
  void RegisterIndex(const std::string& table,
                     std::shared_ptr<storage::SecondaryIndex> index,
                     storage::ListenerId listener) {
    std::lock_guard<std::mutex> lock(indexes_mu_);
    indexes_[table].push_back(IndexEntry{std::move(index), listener});
  }
  /// The index on `table` whose column resolves to position `col`, or
  /// nullptr.
  std::shared_ptr<storage::SecondaryIndex> GetIndex(const std::string& table,
                                                    size_t col) const {
    std::lock_guard<std::mutex> lock(indexes_mu_);
    auto it = indexes_.find(table);
    if (it == indexes_.end()) return nullptr;
    for (const auto& e : it->second) {
      if (e.index->column_index() == col) return e.index;
    }
    return nullptr;
  }
  /// Any index on `table` (first registered) — every index carries covering
  /// heap-key postings, so the Txn::Read fast path can use whichever exists.
  std::shared_ptr<storage::SecondaryIndex> GetAnyIndex(
      const std::string& table) const {
    std::lock_guard<std::mutex> lock(indexes_mu_);
    auto it = indexes_.find(table);
    return it == indexes_.end() || it->second.empty() ? nullptr
                                                      : it->second.front().index;
  }
  std::vector<std::shared_ptr<storage::SecondaryIndex>> Indexes(
      const std::string& table) const {
    std::vector<std::shared_ptr<storage::SecondaryIndex>> out;
    std::lock_guard<std::mutex> lock(indexes_mu_);
    auto it = indexes_.find(table);
    if (it != indexes_.end()) {
      for (const auto& e : it->second) out.push_back(e.index);
    }
    return out;
  }
  void DropIndexes(const std::string& table) {
    // Detach outside the registry lock: DetachChangeListener takes the heap
    // mutex, and heap change notifications may race with registry reads.
    std::vector<IndexEntry> dropped;
    {
      std::lock_guard<std::mutex> lock(indexes_mu_);
      auto it = indexes_.find(table);
      if (it == indexes_.end()) return;
      dropped = std::move(it->second);
      indexes_.erase(it);
    }
    auto tit = tables_.find(table);
    if (tit != tables_.end()) {
      for (const auto& e : dropped) {
        tit->second->DetachChangeListener(e.listener);
      }
    }
  }

 private:
  struct PendingCommit {
    txn::Xid xid;
    txn::Gxid gxid;
  };

  struct ColumnarEntry {
    std::shared_ptr<storage::DeltaShard> shard;
    storage::ListenerId listener = 0;
  };
  struct IndexEntry {
    std::shared_ptr<storage::SecondaryIndex> index;
    storage::ListenerId listener = 0;
  };

  int id_;
  txn::LocalTxnManager txn_mgr_;
  std::unordered_map<std::string, std::unique_ptr<storage::MvccTable>> tables_;
  std::unordered_map<std::string, ColumnarEntry> columnar_;
  mutable std::mutex indexes_mu_;
  std::unordered_map<std::string, std::vector<IndexEntry>> indexes_;
  std::deque<PendingCommit> pending_commits_;
};

}  // namespace ofi::cluster
