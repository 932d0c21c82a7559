#include "cluster/cluster.h"

#include <map>

#include "common/thread_pool.h"
#include "txn/snapshot.h"

namespace ofi::cluster {

Cluster::Cluster(int num_dns, Protocol protocol, LatencyModel latency)
    : protocol_(protocol), latency_(latency) {
  gtm_resource_ = scheduler_.AddResource();
  for (int i = 0; i < num_dns; ++i) {
    dns_.push_back(std::make_unique<DataNode>(i));
    dn_resources_.push_back(scheduler_.AddResource());
  }
}

Status Cluster::CreateTable(const std::string& name, const sql::Schema& schema) {
  for (auto& dn : dns_) {
    OFI_RETURN_NOT_OK(dn->CreateTable(name, schema));
  }
  return Status::OK();
}

namespace {

/// Builds one DN's delta-store shard and registers it, replacing any
/// existing shard. AttachChangeListener snapshots the heap and installs
/// the listener under one exclusive lock, so the shard's base state plus
/// its event stream cover every heap version exactly once.
Status BuildColumnarShard(DataNode* dn, const std::string& name,
                          const txn::Gtm& gtm) {
  OFI_ASSIGN_OR_RETURN(storage::MvccTable * heap, dn->GetTable(name));
  auto shard = std::make_shared<storage::DeltaShard>(heap->schema());
  storage::ListenerId listener = 0;
  storage::HeapDump dump = heap->AttachChangeListener(
      [shard](const storage::HeapChange& c) { shard->OnHeapChange(c); },
      &listener);
  // The DN-local horizon (Vacuum's convention) and the GTM safe horizon
  // bound what the base build may fold into sealed chunks; the rest of the
  // dump starts life in the delta tail.
  txn::Xid horizon = dn->txn_mgr().TakeSnapshot().xmin;
  shard->InstallBase(std::move(dump), &dn->txn_mgr().clog(), horizon,
                     gtm.SafeHorizon(), heap->epoch());
  dn->RegisterColumnar(name, std::move(shard), listener);
  return Status::OK();
}

/// Builds one DN's index shard: AttachChangeListener's atomic dump+install
/// guarantees the base postings plus the event stream cover every heap
/// version exactly once. The build itself is synchronous and takes no pool
/// task and no heap lock while installing (the dump is a copy), so it can
/// never deadlock against background delta merges sharing the thread pool.
Status BuildIndexShard(DataNode* dn, const std::string& table,
                       const std::string& column,
                       storage::SecondaryIndex::Kind kind) {
  OFI_ASSIGN_OR_RETURN(storage::MvccTable * heap, dn->GetTable(table));
  OFI_ASSIGN_OR_RETURN(auto index, storage::SecondaryIndex::Make(
                                       heap->schema(), column, kind));
  storage::ListenerId listener = 0;
  storage::HeapDump dump = heap->AttachChangeListener(
      [index](const storage::HeapChange& c) { index->OnHeapChange(c); },
      &listener);
  index->InstallBase(std::move(dump));
  dn->RegisterIndex(table, std::move(index), listener);
  return Status::OK();
}

}  // namespace

Status Cluster::RegisterColumnar(const std::string& name) {
  for (auto& dn : dns_) {
    OFI_RETURN_NOT_OK(BuildColumnarShard(dn.get(), name, gtm_));
  }
  columnar_tables_.insert(name);
  metrics_.Add("columnar.registered");
  return Status::OK();
}

storage::DeltaShard::MergeResult Cluster::RunMerge(
    int dn, const std::shared_ptr<storage::DeltaShard>& shard,
    const std::string& name, SimTime arrival) {
  DataNode* node = dns_[dn].get();
  auto heap = node->GetTable(name);
  if (!heap.ok()) return storage::DeltaShard::MergeResult{};
  txn::Xid horizon = node->txn_mgr().TakeSnapshot().xmin;
  storage::DeltaShard::MergeResult res = shard->Merge(
      node->txn_mgr().clog(), horizon, gtm_.SafeHorizon(), (*heap)->epoch());
  if (res.changed()) {
    size_t work = res.folded + res.dropped;
    (void)ChargeDnMerge(dn, arrival, work);
    metrics_.Add("columnar.merges");
    metrics_.Add("columnar.merge_rows", static_cast<int64_t>(work));
  }
  return res;
}

Result<size_t> Cluster::RefreshColumnar(const std::string& name) {
  if (!IsColumnar(name)) {
    return Status::NotFound("no columnar copy registered for " + name);
  }
  size_t merged = 0;
  for (size_t i = 0; i < dns_.size(); ++i) {
    auto shard = dns_[i]->GetColumnarShard(name);
    if (shard == nullptr) continue;
    if (RunMerge(static_cast<int>(i), shard, name, 0).changed()) ++merged;
  }
  if (merged > 0) {
    metrics_.Add("columnar.refreshes", static_cast<int64_t>(merged));
  }
  return merged;
}

void Cluster::NoteColumnarWrite(int dn, const std::string& table, SimTime now) {
  if (!auto_merge_ || columnar_tables_.count(table) == 0) return;
  auto shard = dns_[dn]->GetColumnarShard(table);
  if (shard == nullptr || shard->delta_size() < delta_merge_threshold_) return;
  if (!shard->TryScheduleMerge()) return;  // a merge task is already queued
  {
    std::lock_guard lock(merge_wait_mu_);
    ++merges_inflight_;
  }
  // The merge runs off the query path on the shared pool; its simulated
  // cost is charged on the DN resource with the triggering write's time as
  // arrival (the DN starts folding as soon as the tail crosses the
  // threshold).
  common::ThreadPool::Shared().Submit([this, dn, shard, table, now] {
    (void)RunMerge(dn, shard, table, now);
    shard->MergeTaskDone();
    std::lock_guard lock(merge_wait_mu_);
    if (--merges_inflight_ == 0) merge_cv_.notify_all();
  });
}

void Cluster::WaitForMerges() {
  std::unique_lock lock(merge_wait_mu_);
  merge_cv_.wait(lock, [this] { return merges_inflight_ == 0; });
}

Cluster::~Cluster() { WaitForMerges(); }

bool Cluster::IsColumnar(const std::string& name) const {
  return columnar_tables_.count(name) > 0;
}

void Cluster::DropColumnar(const std::string& name) {
  for (auto& dn : dns_) dn->DropColumnar(name);
  columnar_tables_.erase(name);
}

Status Cluster::CreateIndex(const std::string& table, const std::string& column,
                            bool ordered) {
  if (HasIndex(table, column)) {
    return Status::AlreadyExists("index exists: " + table + "(" + column + ")");
  }
  storage::SecondaryIndex::Kind kind = ordered
                                           ? storage::SecondaryIndex::Kind::kOrdered
                                           : storage::SecondaryIndex::Kind::kHash;
  for (auto& dn : dns_) {
    OFI_RETURN_NOT_OK(BuildIndexShard(dn.get(), table, column, kind));
  }
  {
    std::lock_guard<std::mutex> lock(indexed_tables_mu_);
    ++indexed_tables_[table];
  }
  metrics_.Add("index.created");
  return Status::OK();
}

void Cluster::DropIndexes(const std::string& table) {
  for (auto& dn : dns_) dn->DropIndexes(table);
  std::lock_guard<std::mutex> lock(indexed_tables_mu_);
  indexed_tables_.erase(table);
}

bool Cluster::HasIndex(const std::string& table,
                       const std::string& column) const {
  if (dns_.empty()) return false;
  for (const auto& idx : dns_[0]->Indexes(table)) {
    if (idx->column() == column) return true;
    // Accept a bare name against the registered qualified one.
    const std::string& q = idx->column();
    size_t dot = q.rfind('.');
    if (dot != std::string::npos && q.compare(dot + 1, std::string::npos,
                                              column) == 0) {
      return true;
    }
  }
  return false;
}

std::shared_ptr<storage::SecondaryIndex> Cluster::IndexOn(
    int dn, const std::string& table, size_t col) const {
  return dns_[dn]->GetIndex(table, col);
}

void Cluster::NoteIndexWrite(const std::string& table) {
  int count = 0;
  {
    std::lock_guard<std::mutex> lock(indexed_tables_mu_);
    auto it = indexed_tables_.find(table);
    if (it == indexed_tables_.end()) return;
    count = it->second;
  }
  metrics_.Add("index.maintenance_ops", count);
}

SimTime Cluster::ChargeGtm(SimTime arrival) {
  SimTime a = arrival + latency_.network_hop_us;
  SimTime done = scheduler_.Charge(gtm_resource_, a, latency_.gtm_service_us);
  return done + latency_.network_hop_us;
}

SimTime Cluster::ChargeDnStmt(int dn, SimTime arrival) {
  SimTime a = arrival + latency_.network_hop_us;
  SimTime done = scheduler_.Charge(dn_resources_[dn], a, latency_.dn_stmt_service_us);
  return done + latency_.network_hop_us;
}

SimTime Cluster::ChargeDnCommit(int dn, SimTime arrival) {
  SimTime a = arrival + latency_.network_hop_us;
  SimTime done =
      scheduler_.Charge(dn_resources_[dn], a, latency_.dn_commit_service_us);
  return done + latency_.network_hop_us;
}

SimTime Cluster::ChargeDnCommitBatch(int dn, SimTime arrival, size_t records,
                                     bool durable) {
  SimTime a = arrival + latency_.network_hop_us;
  SimTime service = latency_.dn_commit_service_us;
  if (records > 1) {
    service += static_cast<SimTime>(records - 1) * latency_.dn_batch_record_service_us;
  }
  if (durable) {
    service += latency_.log_write_service_us;
    metrics_.Add("commitlog.log_writes");
  }
  SimTime done = scheduler_.Charge(dn_resources_[dn], a, service);
  return done + latency_.network_hop_us;
}

SimTime Cluster::ChargeDnColumnarScan(int dn, SimTime arrival,
                                      size_t chunks_scanned,
                                      size_t delta_rows) {
  SimTime a = arrival + latency_.network_hop_us;
  SimTime service = latency_.columnar_stmt_service_us +
                    static_cast<SimTime>(chunks_scanned) *
                        latency_.columnar_chunk_service_us +
                    static_cast<SimTime>((delta_rows + 255) / 256) *
                        latency_.columnar_delta_block_service_us;
  SimTime done = scheduler_.Charge(dn_resources_[dn], a, service);
  return done + latency_.network_hop_us;
}

SimTime Cluster::ChargeDnIndexProbe(int dn, SimTime arrival,
                                    size_t rows_returned) {
  SimTime a = arrival + latency_.network_hop_us;
  SimTime service = latency_.index_probe_service_us +
                    static_cast<SimTime>(rows_returned) *
                        latency_.index_row_service_us;
  SimTime done = scheduler_.Charge(dn_resources_[dn], a, service);
  metrics_.Add("index.lookups");
  metrics_.Add("index.rows_returned", static_cast<int64_t>(rows_returned));
  return done + latency_.network_hop_us;
}

SimTime Cluster::ChargeDnRowScan(int dn, SimTime arrival,
                                 size_t rows_examined) {
  SimTime a = arrival + latency_.network_hop_us;
  SimTime service = latency_.dn_stmt_service_us +
                    static_cast<SimTime>((rows_examined + 255) / 256) *
                        latency_.row_scan_block_service_us;
  SimTime done = scheduler_.Charge(dn_resources_[dn], a, service);
  return done + latency_.network_hop_us;
}

SimTime Cluster::ChargeDnMerge(int dn, SimTime arrival, size_t records) {
  SimTime blocks = static_cast<SimTime>((records + 255) / 256);
  SimTime service =
      std::max<SimTime>(1, blocks * latency_.columnar_merge_block_service_us);
  return scheduler_.Charge(dn_resources_[dn], arrival, service);
}

Status Cluster::EnableReplication() {
  if (dns_.size() < 2) {
    return Status::InvalidArgument("replication needs at least 2 data nodes");
  }
  replication_enabled_ = true;
  down_.assign(dns_.size(), false);
  shadows_.assign(dns_.size(), ShadowShard{});
  return Status::OK();
}

void Cluster::ShipToBackup(int primary, const ReplicationRecord& record) {
  shadows_[primary].Apply(record);
  metrics_.Add("repl.records");
  metrics_.Add("repl.bytes", static_cast<int64_t>(record.ByteSize()));
}

int Cluster::EffectiveDn(int shard) const {
  if (!replication_enabled_ || down_.empty() || !down_[shard]) return shard;
  return BackupOf(shard);
}

Status Cluster::FailDn(int dn) {
  if (!replication_enabled_) {
    return Status::InvalidArgument("replication is not enabled");
  }
  if (down_[dn]) return Status::InvalidArgument("dn already down");
  int backup = BackupOf(dn);
  if (down_[backup]) {
    return Status::Unavailable("backup is down too: data loss");
  }
  down_[dn] = true;
  // Promote: materialize the shadow into the backup's MVCC tables under a
  // single committed recovery transaction. Keys are disjoint from the
  // backup's own shard, so tables can be shared.
  DataNode* node = dns_[backup].get();
  txn::Xid rec_xid = node->txn_mgr().Begin();
  txn::Snapshot snap = node->txn_mgr().TakeSnapshot();
  txn::VisibilityChecker vis(&snap, &node->txn_mgr().clog(), rec_xid);
  for (const auto& [table_name, rows] : shadows_[dn].tables()) {
    auto table = node->GetTable(table_name);
    if (!table.ok()) continue;
    for (const auto& [key_str, rec] : rows) {
      if (rec.deleted) continue;
      (void)(*table)->Insert(rec.key, rec.row, rec_xid, vis);
    }
  }
  OFI_RETURN_NOT_OK(node->txn_mgr().Commit(rec_xid));
  metrics_.Add("ha.failovers");
  return Status::OK();
}

size_t Cluster::Vacuum() {
  size_t removed = 0;
  for (auto& dn : dns_) {
    // The DN-local horizon: the oldest xid any open local snapshot can
    // reference. With no active transactions this is next_xid (everything
    // committed is fair game).
    txn::Snapshot snap = dn->txn_mgr().TakeSnapshot();
    txn::Xid horizon = snap.xmin;
    for (auto& [name, table] : dn->mutable_tables()) {
      removed += table->Vacuum(horizon, dn->txn_mgr().clog());
      // Index postings age out under the same horizon rule; the heap fires
      // no vacuum events, so indexes compact themselves here.
      for (const auto& idx : dn->Indexes(name)) {
        size_t pruned = idx->Compact(dn->txn_mgr().clog(), horizon);
        if (pruned > 0) {
          metrics_.Add("index.compacted", static_cast<int64_t>(pruned));
        }
      }
    }
  }
  metrics_.Add("vacuum.removed", static_cast<int64_t>(removed));
  return removed;
}

int Cluster::RecoverInDoubtTransactions() {
  int resolved = 0;
  for (auto& dn : dns_) {
    resolved += dn->RecoverInDoubt(gtm_);
  }
  return resolved;
}

Txn Cluster::Begin(TxnScope scope, SimTime start_time) {
  // Periodic background maintenance: prune per-DN merge state below the
  // global safe horizon so xidMap/LCO scans stay O(recent transactions).
  // (Atomic counter: concurrent Begins may both cross the boundary, which
  // just prunes twice — PruneBelowHorizon is idempotent.)
  if (begins_since_maintenance_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      64) {
    begins_since_maintenance_.store(0, std::memory_order_relaxed);
    txn::Gxid horizon = gtm_.SafeHorizon();
    for (auto& dn : dns_) {
      dn->txn_mgr().mutable_clog().PruneBelowHorizon(horizon);
    }
  }
  Txn t(this, scope, start_time);
  bool needs_gtm =
      protocol_ == Protocol::kBaselineGtm || scope == TxnScope::kMultiShard;
  if (needs_gtm) {
    // One round trip carrying two serialized GTM requests: GXID allocation
    // and the global snapshot.
    t.gxid_ = gtm_.BeginGlobal();
    t.global_snapshot_ = gtm_.TakeGlobalSnapshot();
    SimTime a = t.now_ + latency_.network_hop_us;
    SimTime done = scheduler_.Charge(gtm_resource_, a, 2 * latency_.gtm_service_us);
    t.now_ = done + latency_.network_hop_us;
    metrics_.Add("gtm.begin");
  }
  metrics_.Add("txn.begin");
  return t;
}

Txn::Txn(Cluster* cluster, TxnScope scope, SimTime start)
    : cluster_(cluster), scope_(scope), now_(start) {}

Result<Txn::DnContext*> Txn::OpenContext(int dn, SimTime* clock) {
  if (cluster_->IsDown(dn)) {
    return Status::Unavailable("dn" + std::to_string(dn) + " is down");
  }
  auto it = dns_.find(dn);
  if (it != dns_.end()) return &it->second;

  if (cluster_->protocol() == Protocol::kGtmLite &&
      scope_ == TxnScope::kSingleShard && !dns_.empty()) {
    return Status::InvalidArgument(
        "single-shard transaction touched a second shard (dn" +
        std::to_string(dn) + ")");
  }

  DataNode* node = cluster_->dn(dn);
  DnContext ctx;
  if (cluster_->protocol() == Protocol::kBaselineGtm) {
    // The GXID doubles as this DN's xid; visibility uses the global snapshot.
    node->BeginExternal(gxid_);
    ctx.xid = gxid_;
  } else if (scope_ == TxnScope::kSingleShard) {
    ctx.xid = node->txn_mgr().Begin();
    ctx.local_snapshot = node->txn_mgr().TakeSnapshot();
  } else {
    // Multi-shard GTM-lite: local xid + local snapshot, then Algorithm 1.
    // The snapshot merge is real DN work (xidMap probe + LCO traversal):
    // charge one statement's worth of service for it.
    *clock = cluster_->ChargeDnStmt(dn, *clock);
    ctx.xid = node->txn_mgr().Begin();
    node->txn_mgr().BindGxid(ctx.xid, gxid_);
    ctx.local_snapshot = node->txn_mgr().TakeSnapshot();
    auto waiter = [this, node, clock](txn::Xid lxid, txn::Gxid) {
      // UPGRADE: the reader waits out the commit-confirmation window.
      *clock += cluster_->latency().commit_confirm_delay_us;
      return node->FinishPendingCommit(lxid);
    };
    ctx.merged = txn::MergeSnapshots(*global_snapshot_, *ctx.local_snapshot,
                                     node->txn_mgr().clog(), waiter);
    upgrades_ += ctx.merged->upgrades;
    downgrades_ += ctx.merged->downgrades;
    cluster_->metrics().Add("merge.upgrades", ctx.merged->upgrades);
    cluster_->metrics().Add("merge.downgrades", ctx.merged->downgrades);
  }
  auto [ins, _] = dns_.emplace(dn, std::move(ctx));
  return &ins->second;
}

Result<Txn::DnContext*> Txn::Touch(int dn) { return OpenContext(dn, &now_); }

Result<SimTime> Txn::PrepareShard(int dn, SimTime arrival) {
  if (finished_) return Status::InvalidArgument("txn finished");
  SimTime clock = arrival;
  OFI_ASSIGN_OR_RETURN(DnContext * ctx, OpenContext(dn, &clock));
  (void)ctx;
  return clock;
}

Result<txn::VisibilityChecker> Txn::VisibilityForPrepared(int dn) const {
  auto it = dns_.find(dn);
  if (it == dns_.end()) {
    return Status::InvalidArgument("shard not prepared: dn" + std::to_string(dn));
  }
  return CheckerFor(dn, it->second);
}

txn::VisibilityChecker Txn::CheckerFor(int dn, const DnContext& ctx) const {
  const txn::CommitLog& clog = cluster_->dn(dn)->txn_mgr().clog();
  if (cluster_->protocol() == Protocol::kBaselineGtm) {
    return txn::VisibilityChecker(&*global_snapshot_, &clog, ctx.xid);
  }
  if (ctx.merged.has_value()) {
    return txn::VisibilityChecker(&*ctx.merged, &clog, ctx.xid);
  }
  return txn::VisibilityChecker(&*ctx.local_snapshot, &clog, ctx.xid);
}

Result<sql::Row> Txn::Read(const std::string& table, const sql::Value& key) {
  if (finished_) return Status::InvalidArgument("txn finished");
  int dn = cluster_->EffectiveDn(cluster_->ShardFor(key));
  OFI_ASSIGN_OR_RETURN(DnContext * ctx, Touch(dn));
  // OLTP fast path: any index on the table carries covering heap-key
  // postings, so a point read is an index probe (cheap per-probe service)
  // instead of a heap statement — same snapshot, same visible row.
  if (auto idx = cluster_->dn(dn)->GetAnyIndex(table)) {
    Result<sql::Row> row = idx->ProbeHeapKey(key, CheckerFor(dn, *ctx));
    now_ = cluster_->ChargeDnIndexProbe(dn, now_, row.ok() ? 1 : 0);
    return row;
  }
  OFI_ASSIGN_OR_RETURN(storage::MvccTable * t, cluster_->dn(dn)->GetTable(table));
  now_ = cluster_->ChargeDnStmt(dn, now_);
  return t->Read(key, CheckerFor(dn, *ctx));
}

Result<std::vector<sql::Row>> Txn::ScanShard(const std::string& table, int dn) {
  if (finished_) return Status::InvalidArgument("txn finished");
  OFI_ASSIGN_OR_RETURN(DnContext * ctx, Touch(dn));
  OFI_ASSIGN_OR_RETURN(storage::MvccTable * t, cluster_->dn(dn)->GetTable(table));
  now_ = cluster_->ChargeDnStmt(dn, now_);
  return t->ScanVisible(CheckerFor(dn, *ctx));
}

Status Txn::Insert(const std::string& table, const sql::Value& key, sql::Row row) {
  if (finished_) return Status::InvalidArgument("txn finished");
  int dn = cluster_->EffectiveDn(cluster_->ShardFor(key));
  OFI_ASSIGN_OR_RETURN(DnContext * ctx, Touch(dn));
  OFI_ASSIGN_OR_RETURN(storage::MvccTable * t, cluster_->dn(dn)->GetTable(table));
  now_ = cluster_->ChargeDnStmt(dn, now_);
  sql::Row row_copy = row;
  OFI_RETURN_NOT_OK(t->Insert(key, std::move(row), ctx->xid, CheckerFor(dn, *ctx)));
  ctx->writes.push_back(WriteRecord{table, key, row_copy, false});
  cluster_->NoteColumnarWrite(dn, table, now_);
  cluster_->NoteIndexWrite(table);
  return Status::OK();
}

Status Txn::Update(const std::string& table, const sql::Value& key, sql::Row row) {
  if (finished_) return Status::InvalidArgument("txn finished");
  int dn = cluster_->EffectiveDn(cluster_->ShardFor(key));
  OFI_ASSIGN_OR_RETURN(DnContext * ctx, Touch(dn));
  OFI_ASSIGN_OR_RETURN(storage::MvccTable * t, cluster_->dn(dn)->GetTable(table));
  now_ = cluster_->ChargeDnStmt(dn, now_);
  sql::Row row_copy = row;
  OFI_RETURN_NOT_OK(t->Update(key, std::move(row), ctx->xid, CheckerFor(dn, *ctx)));
  ctx->writes.push_back(WriteRecord{table, key, row_copy, false});
  cluster_->NoteColumnarWrite(dn, table, now_);
  cluster_->NoteIndexWrite(table);
  return Status::OK();
}

Status Txn::Delete(const std::string& table, const sql::Value& key) {
  if (finished_) return Status::InvalidArgument("txn finished");
  int dn = cluster_->EffectiveDn(cluster_->ShardFor(key));
  OFI_ASSIGN_OR_RETURN(DnContext * ctx, Touch(dn));
  OFI_ASSIGN_OR_RETURN(storage::MvccTable * t, cluster_->dn(dn)->GetTable(table));
  now_ = cluster_->ChargeDnStmt(dn, now_);
  OFI_RETURN_NOT_OK(t->Delete(key, ctx->xid, CheckerFor(dn, *ctx)));
  ctx->writes.push_back(WriteRecord{table, key, {}, true});
  cluster_->NoteColumnarWrite(dn, table, now_);
  cluster_->NoteIndexWrite(table);
  return Status::OK();
}

Status Txn::CommitSingleShard() {
  // GTM-lite single-shard: one local commit message (with its own log
  // force), zero GTM traffic.
  for (auto& [dn, ctx] : dns_) {
    now_ = cluster_->ChargeDnCommitBatch(dn, now_, 1, /*durable=*/true);
    OFI_RETURN_NOT_OK(cluster_->dn(dn)->txn_mgr().Commit(ctx.xid, txn::kNoGxid));
  }
  return Status::OK();
}

Status Txn::CommitTwoPhase() {
  const bool baseline = cluster_->protocol() == Protocol::kBaselineGtm;
  const bool single_dn = dns_.size() <= 1;

  // Phase one: prepare every participant (skipped for a 1-DN transaction).
  // A prepare is durable — the DN must survive a crash still knowing it
  // promised to commit — so each message carries a log force.
  if (!single_dn) {
    for (auto& [dn, ctx] : dns_) {
      now_ = cluster_->ChargeDnCommitBatch(dn, now_, 1, /*durable=*/true);
      Status st = cluster_->dn(dn)->txn_mgr().Prepare(ctx.xid);
      if (!st.ok()) {
        Abort();
        return st;
      }
    }
  }

  if (baseline) {
    // PG-XC order: commit on every node, then dequeue from the GTM, so a
    // fresh global snapshot never exposes a half-committed transaction.
    for (auto& [dn, ctx] : dns_) {
      now_ = cluster_->ChargeDnCommitBatch(dn, now_, 1, /*durable=*/true);
      OFI_RETURN_NOT_OK(cluster_->dn(dn)->txn_mgr().Commit(ctx.xid, gxid_));
    }
    now_ = cluster_->ChargeGtm(now_);
    OFI_RETURN_NOT_OK(cluster_->gtm().CommitGlobal(gxid_));
    return Status::OK();
  }

  // GTM-lite order (paper §II-A2): the GTM marks the transaction committed
  // FIRST, then confirmations reach the DNs — the Anomaly1 window that
  // UPGRADE closes on the reader side.
  now_ = cluster_->ChargeGtm(now_);
  OFI_RETURN_NOT_OK(cluster_->gtm().CommitGlobal(gxid_));
  for (auto& [dn, ctx] : dns_) {
    now_ = cluster_->ChargeDnCommitBatch(dn, now_, 1, /*durable=*/true);
    if (cluster_->delay_commit_confirmations() && !single_dn) {
      cluster_->dn(dn)->EnqueuePendingCommit(ctx.xid, gxid_);
    } else {
      OFI_RETURN_NOT_OK(cluster_->dn(dn)->txn_mgr().Commit(ctx.xid, gxid_));
    }
  }
  return Status::OK();
}

Status Txn::Commit() {
  if (finished_) return Status::InvalidArgument("txn already finished");
  finished_ = true;
  Status st;
  if (cluster_->protocol() == Protocol::kGtmLite &&
      scope_ == TxnScope::kSingleShard) {
    st = CommitSingleShard();
  } else {
    st = CommitTwoPhase();
  }
  if (st.ok()) {
    committed_ = true;
    cluster_->metrics().Add("txn.commit");
    if (cluster_->replication_enabled()) {
      // Synchronous logical replication of the committed write set to each
      // touched primary's backup (one round trip per participant).
      for (auto& [dn, ctx] : dns_) {
        if (ctx.writes.empty()) continue;
        for (const auto& w : ctx.writes) {
          cluster_->ShipToBackup(dn, ReplicationRecord{w.table, w.key, w.row,
                                                       w.deleted});
        }
        now_ = cluster_->ChargeDnCommit(cluster_->BackupOf(dn), now_);
      }
    }
  } else {
    cluster_->metrics().Add("txn.commit_failed");
  }
  return st;
}

std::vector<GroupCommitOutcome> Cluster::CommitBatch(
    const std::vector<Txn*>& txns, SimTime flush_time) {
  std::vector<GroupCommitOutcome> out(txns.size());
  const bool baseline = protocol_ == Protocol::kBaselineGtm;

  std::vector<bool> live(txns.size(), false);
  for (size_t i = 0; i < txns.size(); ++i) {
    Txn* t = txns[i];
    if (t == nullptr || t->finished_) {
      out[i].status = Status::InvalidArgument("txn already finished");
      continue;
    }
    t->finished_ = true;
    live[i] = true;
    out[i].done = flush_time;
  }

  // One record per (transaction, participant DN). A transaction prepares
  // only when it spans more than one DN — same rule as the per-commit path.
  struct Rec {
    size_t i;
    Txn* t;
    Txn::DnContext* ctx;
  };
  std::map<int, std::vector<Rec>> by_dn;
  std::map<int, std::vector<Rec>> prep_by_dn;
  for (size_t i = 0; i < txns.size(); ++i) {
    if (!live[i]) continue;
    Txn* t = txns[i];
    for (auto& [dn, ctx] : t->dns_) {
      by_dn[dn].push_back(Rec{i, t, &ctx});
      if (t->dns_.size() > 1) prep_by_dn[dn].push_back(Rec{i, t, &ctx});
    }
  }

  // Phase one: one batched prepare message per DN, all records sharing one
  // round trip and one log force. The batch's prepare barrier is the max
  // over DNs — the coordinator sends the decision only once every
  // participant has promised.
  SimTime prep_barrier = flush_time;
  for (auto& [dn, recs] : prep_by_dn) {
    SimTime done = ChargeDnCommitBatch(dn, flush_time, recs.size(), true);
    prep_barrier = std::max(prep_barrier, done);
    for (Rec& r : recs) {
      if (!live[r.i]) continue;
      Status st = dns_[dn]->txn_mgr().Prepare(r.ctx->xid);
      if (!st.ok()) {
        live[r.i] = false;
        out[r.i].status = st;
        (void)r.t->Abort();  // rolls back every touched DN, frees the gxid
      }
    }
  }

  // The global decision: one GTM round trip carrying every global commit in
  // the batch (GTM-lite sends it before the DN confirmations, the baseline
  // dequeues after every DN has committed).
  auto charge_gtm_batch = [this](SimTime arrival, size_t n) {
    SimTime a = arrival + latency_.network_hop_us;
    SimTime done = scheduler_.Charge(gtm_resource_, a,
                                     static_cast<SimTime>(n) * latency_.gtm_service_us);
    return done + latency_.network_hop_us;
  };
  SimTime gtm_done = prep_barrier;
  if (!baseline) {
    std::vector<Txn*> global;
    for (size_t i = 0; i < txns.size(); ++i) {
      if (live[i] && txns[i]->gxid_ != txn::kNoGxid) global.push_back(txns[i]);
    }
    if (!global.empty()) {
      gtm_done = charge_gtm_batch(prep_barrier, global.size());
      for (Txn* t : global) (void)gtm_.CommitGlobal(t->gxid_);
    }
  }

  // Apply phase: one batched confirmation message per DN. Every record is
  // staged into the DN's group-commit window and the window is flushed
  // once — a single log write makes the whole batch visible atomically
  // with respect to snapshots taken before/after the flush.
  SimTime apply_barrier = flush_time;
  for (auto& [dn, recs] : by_dn) {
    size_t n_live = 0;
    SimTime arrival = flush_time;
    for (Rec& r : recs) {
      if (!live[r.i]) continue;
      ++n_live;
      if (r.t->dns_.size() > 1) arrival = std::max(arrival, prep_barrier);
      if (!baseline && r.t->gxid_ != txn::kNoGxid) {
        arrival = std::max(arrival, gtm_done);
      }
    }
    if (n_live == 0) continue;
    SimTime done = ChargeDnCommitBatch(dn, arrival, n_live, true);
    apply_barrier = std::max(apply_barrier, done);
    for (Rec& r : recs) {
      if (!live[r.i]) continue;
      if (!baseline && delay_commit_confirm_ && r.t->dns_.size() > 1) {
        // Anomaly1 test hook: the confirmation queues instead of applying.
        dns_[dn]->EnqueuePendingCommit(r.ctx->xid, r.t->gxid_);
      } else {
        Status st = dns_[dn]->txn_mgr().StageCommit(r.ctx->xid, r.t->gxid_);
        if (!st.ok()) {
          live[r.i] = false;
          out[r.i].status = st;
        }
      }
      out[r.i].done = std::max(out[r.i].done, done);
    }
    dns_[dn]->txn_mgr().FlushStaged();
  }
  {
    int64_t survivors = 0;
    for (size_t i = 0; i < txns.size(); ++i) {
      if (live[i]) ++survivors;
    }
    metrics_.Add("group_commit.txns", survivors);
  }
  metrics_.Add("group_commit.batches");

  if (baseline) {
    // PG-XC order: the GTM dequeue happens only after every node committed.
    std::vector<Txn*> global;
    for (size_t i = 0; i < txns.size(); ++i) {
      if (live[i] && txns[i]->gxid_ != txn::kNoGxid) global.push_back(txns[i]);
    }
    if (!global.empty()) {
      gtm_done = charge_gtm_batch(apply_barrier, global.size());
      for (Txn* t : global) (void)gtm_.CommitGlobal(t->gxid_);
      for (size_t i = 0; i < txns.size(); ++i) {
        if (live[i] && txns[i]->gxid_ != txn::kNoGxid) {
          out[i].done = std::max(out[i].done, gtm_done);
        }
      }
    }
  }

  // Wrap-up per survivor: committed flag, metrics, replication shipping.
  for (size_t i = 0; i < txns.size(); ++i) {
    if (!live[i]) continue;
    Txn* t = txns[i];
    t->committed_ = true;
    metrics_.Add("txn.commit");
    if (replication_enabled_) {
      SimTime done = out[i].done;
      for (auto& [dn, ctx] : t->dns_) {
        if (ctx.writes.empty()) continue;
        for (const auto& w : ctx.writes) {
          ShipToBackup(dn, ReplicationRecord{w.table, w.key, w.row, w.deleted});
        }
        done = ChargeDnCommit(BackupOf(dn), done);
      }
      out[i].done = done;
    }
    t->now_ = std::max(t->now_, out[i].done);
  }
  return out;
}

Status Txn::Abort() {
  // A committed transaction must never be rolled back: its version-chain
  // edits are visible to others already.
  if (committed_) {
    return Status::InvalidArgument("cannot abort a committed transaction");
  }
  if (finished_ && dns_.empty()) return Status::OK();
  finished_ = true;
  for (auto& [dn, ctx] : dns_) {
    DataNode* node = cluster_->dn(dn);
    for (const auto& w : ctx.writes) {
      auto t = node->GetTable(w.table);
      if (t.ok()) (*t)->RollbackKey(w.key, ctx.xid);
    }
    now_ = cluster_->ChargeDnCommit(dn, now_);
    // Abort may race with an earlier failure; ignore state errors.
    (void)node->txn_mgr().Abort(ctx.xid);
  }
  if (gxid_ != txn::kNoGxid && !cluster_->gtm().IsCommitted(gxid_)) {
    now_ = cluster_->ChargeGtm(now_);
    (void)cluster_->gtm().AbortGlobal(gxid_);
  }
  cluster_->metrics().Add("txn.abort");
  return Status::OK();
}

}  // namespace ofi::cluster
