#include "storage/mvcc_table.h"

#include <algorithm>

namespace ofi::storage {

int MvccTable::FindVisible(const std::vector<TupleVersion>& chain,
                           const txn::VisibilityChecker& vis) const {
  // Scan newest-to-oldest; a consistent snapshot sees at most one version.
  for (int i = static_cast<int>(chain.size()) - 1; i >= 0; --i) {
    if (vis.TupleVisible(chain[i].xmin, chain[i].xmax)) return i;
  }
  return -1;
}

Status MvccTable::Insert(const sql::Value& key, sql::Row row, txn::Xid xid,
                         const txn::VisibilityChecker& vis) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("insert: row arity mismatch");
  }
  std::unique_lock lock(mu_);
  auto& chain = chains_[key];
  if (FindVisible(chain, vis) >= 0) {
    return Status::AlreadyExists("insert: key exists: " + key.ToString());
  }
  chain.push_back(TupleVersion{xid, txn::kInvalidXid, std::move(row)});
  ++num_versions_;
  ++mutation_epoch_;
  if (HasListeners()) {
    HeapChange c;
    c.op = HeapChange::Op::kInsert;
    c.xid = xid;
    c.key = key;
    c.row = chain.back().data;
    Notify(c);
  }
  return Status::OK();
}

Status MvccTable::Update(const sql::Value& key, sql::Row row, txn::Xid xid,
                         const txn::VisibilityChecker& vis) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("update: row arity mismatch");
  }
  std::unique_lock lock(mu_);
  auto it = chains_.find(key);
  if (it == chains_.end()) return Status::NotFound("update: " + key.ToString());
  int idx = FindVisible(it->second, vis);
  if (idx < 0) return Status::NotFound("update: " + key.ToString());
  TupleVersion& cur = it->second[idx];
  if (cur.xmax != txn::kInvalidXid && cur.xmax != xid) {
    // First-updater-wins: someone else already marked this version deleted.
    return Status::Aborted("write-write conflict on " + key.ToString());
  }
  cur.xmax = xid;
  const txn::Xid replaced_xmin = cur.xmin;
  it->second.push_back(TupleVersion{xid, txn::kInvalidXid, std::move(row)});
  ++num_versions_;
  ++mutation_epoch_;
  if (HasListeners()) {
    HeapChange del;
    del.op = HeapChange::Op::kMarkDeleted;
    del.xid = xid;
    del.key = key;
    del.target_xmin = replaced_xmin;
    Notify(del);
    HeapChange ins;
    ins.op = HeapChange::Op::kInsert;
    ins.xid = xid;
    ins.key = key;
    ins.row = it->second.back().data;
    Notify(ins);
  }
  return Status::OK();
}

Status MvccTable::Delete(const sql::Value& key, txn::Xid xid,
                         const txn::VisibilityChecker& vis) {
  std::unique_lock lock(mu_);
  auto it = chains_.find(key);
  if (it == chains_.end()) return Status::NotFound("delete: " + key.ToString());
  int idx = FindVisible(it->second, vis);
  if (idx < 0) return Status::NotFound("delete: " + key.ToString());
  TupleVersion& cur = it->second[idx];
  if (cur.xmax != txn::kInvalidXid && cur.xmax != xid) {
    return Status::Aborted("write-write conflict on " + key.ToString());
  }
  cur.xmax = xid;
  ++mutation_epoch_;
  if (HasListeners()) {
    HeapChange c;
    c.op = HeapChange::Op::kMarkDeleted;
    c.xid = xid;
    c.key = key;
    c.target_xmin = cur.xmin;
    Notify(c);
  }
  return Status::OK();
}

Result<sql::Row> MvccTable::Read(const sql::Value& key,
                                 const txn::VisibilityChecker& vis) const {
  std::shared_lock lock(mu_);
  auto it = chains_.find(key);
  if (it == chains_.end()) return Status::NotFound("read: " + key.ToString());
  int idx = FindVisible(it->second, vis);
  if (idx < 0) return Status::NotFound("read: " + key.ToString());
  return it->second[idx].data;
}

std::vector<sql::Row> MvccTable::ScanVisible(
    const txn::VisibilityChecker& vis) const {
  std::vector<sql::Row> out;
  ForEachVisible(vis, [&out](const sql::Row& row) { out.push_back(row); });
  return out;
}

void MvccTable::RollbackXid(txn::Xid xid) {
  std::unique_lock lock(mu_);
  for (auto& [key, chain] : chains_) {
    for (auto& v : chain) {
      if (v.xmax == xid) v.xmax = txn::kInvalidXid;
    }
  }
  ++mutation_epoch_;
  if (HasListeners()) {
    HeapChange c;
    c.op = HeapChange::Op::kClearXmaxAll;
    c.xid = xid;
    Notify(c);
  }
}

void MvccTable::RollbackKey(const sql::Value& key, txn::Xid xid) {
  std::unique_lock lock(mu_);
  auto it = chains_.find(key);
  if (it == chains_.end()) return;
  for (auto& v : it->second) {
    if (v.xmax == xid) v.xmax = txn::kInvalidXid;
  }
  ++mutation_epoch_;
  if (HasListeners()) {
    HeapChange c;
    c.op = HeapChange::Op::kClearXmax;
    c.xid = xid;
    c.key = key;
    Notify(c);
  }
}

size_t MvccTable::Vacuum(txn::Xid horizon, const txn::CommitLog& clog) {
  std::unique_lock lock(mu_);
  size_t removed = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    auto& chain = it->second;
    auto keep = std::remove_if(chain.begin(), chain.end(), [&](const TupleVersion& v) {
      // Dead: creator aborted, or deleted by a committed txn older than the
      // horizon (no snapshot can still see it).
      if (clog.IsAborted(v.xmin)) return true;
      if (v.xmax != txn::kInvalidXid && v.xmax < horizon && clog.IsCommitted(v.xmax)) {
        return true;
      }
      return false;
    });
    removed += static_cast<size_t>(chain.end() - keep);
    chain.erase(keep, chain.end());
    if (chain.empty()) {
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
  num_versions_ -= removed;
  if (removed > 0) ++mutation_epoch_;
  return removed;
}

const std::vector<TupleVersion>* MvccTable::Versions(const sql::Value& key) const {
  std::shared_lock lock(mu_);
  auto it = chains_.find(key);
  return it == chains_.end() ? nullptr : &it->second;
}

HeapDump MvccTable::AttachChangeListener(HeapChangeListener listener,
                                         ListenerId* id_out) {
  std::unique_lock lock(mu_);
  HeapDump dump;
  dump.reserve(chains_.size());
  for (const auto& [key, chain] : chains_) dump.emplace_back(key, chain);
  ListenerId id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  if (id_out != nullptr) *id_out = id;
  return dump;
}

void MvccTable::DetachChangeListener(ListenerId id) {
  std::unique_lock lock(mu_);
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == id) {
      listeners_.erase(it);
      return;
    }
  }
}

}  // namespace ofi::storage
