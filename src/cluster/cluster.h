/// \file cluster.h
/// \brief The sharded OLTP cluster (paper Fig. 1): a coordinator routing
/// statements to hash-sharded data nodes, a GTM, and two transaction
/// protocols:
///
/// * kBaselineGtm — Postgres-XC style: every transaction takes a GXID and a
///   global snapshot from the GTM and commits through it; GXIDs double as
///   each DN's local xid.
/// * kGtmLite — the paper's contribution: single-shard transactions never
///   talk to the GTM (local xid + local snapshot + local commit); only
///   multi-shard transactions take a GXID/global snapshot and use merged
///   snapshots (Algorithm 1) for visibility, committing via 2PC.
///
/// Every GTM request, DN statement and commit message charges simulated
/// time against serialized resources (see latency_model.h), which is what
/// the Fig. 3 scalability bench measures.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/data_node.h"
#include "cluster/latency_model.h"
#include "cluster/replication.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "txn/gtm.h"
#include "txn/merge_snapshot.h"

namespace ofi::cluster {

enum class Protocol { kBaselineGtm, kGtmLite };

/// Per-transaction outcome of a batched group commit (Cluster::CommitBatch).
struct GroupCommitOutcome {
  Status status;
  /// Simulated time the commit ack reached the coordinator (valid when
  /// status is OK).
  SimTime done = 0;
};

/// Declared scope of a transaction. Applications shard by design (paper:
/// "database is designed with application sharding in mind"), so the CN
/// knows upfront whether a transaction is single-shard.
enum class TxnScope { kSingleShard, kMultiShard };

class Cluster;

/// \brief A coordinator-side transaction handle. Obtain from
/// Cluster::Begin(); every operation routes by shard key, charges simulated
/// time, and enforces the declared scope.
class Txn {
 public:
  /// Point read of `key` in `table` on its owning shard.
  Result<sql::Row> Read(const std::string& table, const sql::Value& key);
  /// Visible-row scan of one shard (tests / examples).
  Result<std::vector<sql::Row>> ScanShard(const std::string& table, int dn);

  // --- Parallel MPP scatter support (see cluster/distributed_plan.cc) -------
  /// Opens this transaction's context on `dn` (local xid + local snapshot +
  /// Algorithm-1 merge for multi-shard GTM-lite), charging the merge work as
  /// an independent request arriving at `arrival` on that DN instead of
  /// chaining this transaction's serial clock — the scatter fans out to all
  /// DNs at once. Returns the simulated completion time of the context setup
  /// (== `arrival` if the shard was already open). Not thread-safe; call
  /// from the coordinator thread before any concurrent scans.
  Result<SimTime> PrepareShard(int dn, SimTime arrival);

  /// This transaction's MVCC visibility checker on a shard previously opened
  /// via PrepareShard() (or any statement). The checker holds pointers into
  /// the transaction's own context storage (stable until commit/abort), so
  /// heap visits, index probes and columnar delta tails all read at exactly
  /// this snapshot. Charges no simulated time and mutates nothing on this
  /// transaction, so distinct DNs may be scanned concurrently from thread
  /// pool workers while writers run under the storage/txn shared locks.
  Result<txn::VisibilityChecker> VisibilityForPrepared(int dn) const;

  /// Advances this transaction's serial clock to at least `t` (the CN
  /// resumes once the last gathered partial has arrived).
  void AdvanceTo(SimTime t) { now_ = std::max(now_, t); }

  Status Insert(const std::string& table, const sql::Value& key, sql::Row row);
  Status Update(const std::string& table, const sql::Value& key, sql::Row row);
  Status Delete(const std::string& table, const sql::Value& key);

  /// Commits: local commit for single-shard GTM-lite; 2PC + GTM otherwise.
  Status Commit();
  Status Abort();

  /// Simulated time consumed so far by this transaction (its critical path
  /// through network hops and serialized resources).
  SimTime now() const { return now_; }
  TxnScope scope() const { return scope_; }
  bool finished() const { return finished_; }
  txn::Gxid gxid() const { return gxid_; }

  /// Merge statistics accumulated across DN first-touches (multi-shard
  /// GTM-lite only).
  int upgrades() const { return upgrades_; }
  int downgrades() const { return downgrades_; }

 private:
  friend class Cluster;
  Txn(Cluster* cluster, TxnScope scope, SimTime start);

  struct WriteRecord {
    std::string table;
    sql::Value key;
    sql::Row row;       // committed image (empty for deletes)
    bool deleted = false;
  };
  struct DnContext {
    txn::Xid xid = txn::kInvalidXid;
    std::optional<txn::Snapshot> local_snapshot;
    std::optional<txn::MergedSnapshot> merged;
    // Write set: targeted rollback on abort, replication log on commit.
    std::vector<WriteRecord> writes;
  };

  /// Lazily opens this transaction's context on DN `dn` (local xid, local
  /// snapshot, snapshot merge for multi-shard GTM-lite), chaining the
  /// simulated merge work onto `*clock`.
  Result<DnContext*> OpenContext(int dn, SimTime* clock);
  /// OpenContext chained on this transaction's serial clock.
  Result<DnContext*> Touch(int dn);
  txn::VisibilityChecker CheckerFor(int dn, const DnContext& ctx) const;
  Status CommitSingleShard();
  Status CommitTwoPhase();

  Cluster* cluster_;
  TxnScope scope_;
  txn::Gxid gxid_ = txn::kNoGxid;
  std::optional<txn::Snapshot> global_snapshot_;
  std::unordered_map<int, DnContext> dns_;
  SimTime now_ = 0;
  bool finished_ = false;
  bool committed_ = false;
  int upgrades_ = 0;
  int downgrades_ = 0;
};

/// \brief The cluster: GTM + N data nodes + routing + simulated resources.
class Cluster {
 public:
  Cluster(int num_dns, Protocol protocol, LatencyModel latency = LatencyModel{});

  /// Creates `name` on every DN; rows are hash-sharded by their key.
  Status CreateTable(const std::string& name, const sql::Schema& schema);

  /// Builds a columnar delta-store copy of `name` on every DN (see
  /// storage/delta_store.h): universally visible versions seal into
  /// clustered chunks, everything newer lands in a row-format delta tail
  /// that the heap's change listener keeps current from then on. Scans
  /// union sealed kernels with the tail, so the copy never goes stale —
  /// there is no freshness fallback. Re-registering rebuilds from scratch.
  Status RegisterColumnar(const std::string& name);
  /// Synchronously force-merges every shard of `name` — folds the delta
  /// tail into sealed chunks up to the current visibility horizons — and
  /// returns how many shards changed (counted in the columnar.refreshes
  /// metric). NotFound when no columnar copy is registered. With auto
  /// merge on, background merges already bound tail growth; this is the
  /// deterministic "make the tail short now" hook.
  Result<size_t> RefreshColumnar(const std::string& name);

  // --- Delta-merge policy (see storage/delta_store.h) ------------------------
  /// Tail size at which a write schedules a background merge of that shard
  /// on the shared thread pool.
  void set_delta_merge_threshold(size_t rows) { delta_merge_threshold_ = rows; }
  size_t delta_merge_threshold() const { return delta_merge_threshold_; }
  /// When false, writes never schedule background merges (tails grow until
  /// RefreshColumnar is called) — the knob the HTAP bench sweeps.
  void set_auto_merge(bool v) { auto_merge_ = v; }
  bool auto_merge() const { return auto_merge_; }
  /// Write-path hook: called after a successful Insert/Update/Delete on a
  /// columnar table's shard. Schedules at most one background merge task
  /// per shard at a time once the tail passes the threshold.
  void NoteColumnarWrite(int dn, const std::string& table, SimTime now);
  /// Blocks until every scheduled background merge has completed (tests,
  /// benches, and the destructor).
  void WaitForMerges();

  ~Cluster();
  /// True when `name` has a columnar copy registered (on DN 0, which implies
  /// all DNs — registration is all-or-nothing).
  bool IsColumnar(const std::string& name) const;
  void DropColumnar(const std::string& name);

  // --- Secondary indexes (storage/secondary_index.h) -------------------------
  /// Builds a secondary index on `table`(`column`) on every DN: each shard
  /// attaches a heap-change listener (atomic dump + install, the same
  /// contract as the columnar delta store) so postings stay transactionally
  /// current from then on. `ordered` selects the std::map variant that also
  /// serves range probes. Fails with AlreadyExists when the (table, column)
  /// pair is already indexed.
  Status CreateIndex(const std::string& table, const std::string& column,
                     bool ordered = false);
  /// Detaches and drops every index on `table` on every DN.
  void DropIndexes(const std::string& table);
  /// True when (table, column) is indexed (checked on DN 0 — index DDL is
  /// all-or-nothing across DNs, like columnar registration).
  bool HasIndex(const std::string& table, const std::string& column) const;
  /// The index shard serving (table, column-position) on `dn`, or nullptr.
  std::shared_ptr<storage::SecondaryIndex> IndexOn(int dn,
                                                   const std::string& table,
                                                   size_t col) const;

  /// Starts a transaction whose simulated clock begins at `start_time`
  /// (closed-loop clients pass their own current time).
  Txn Begin(TxnScope scope, SimTime start_time = 0);

  /// Group commit: commits every transaction in `txns` through ONE batched
  /// 2PC round per data node departing at `flush_time` — one prepare message
  /// per DN carrying every participant record, one GTM round trip carrying
  /// every global commit, one apply message per DN that stages the whole
  /// window into the commit log and forces it with a single log write.
  /// Visibility order matches the per-commit path (GTM-lite: GTM first,
  /// then DNs; baseline: DNs first, then GTM dequeue), and the applied
  /// state is bit-identical to committing each transaction individually.
  /// Transactions whose prepare fails are aborted; the rest proceed.
  std::vector<GroupCommitOutcome> CommitBatch(const std::vector<Txn*>& txns,
                                              SimTime flush_time);

  int ShardFor(const sql::Value& key) const {
    if (sharder_) return sharder_(key) % static_cast<int>(dns_.size());
    return static_cast<int>(key.Hash() % dns_.size());
  }

  /// Overrides hash sharding with an application sharding function (the
  /// paper assumes databases "designed with application sharding in mind",
  /// e.g. TPC-C keys co-located by warehouse).
  void set_sharder(std::function<int(const sql::Value&)> sharder) {
    sharder_ = std::move(sharder);
  }

  int num_dns() const { return static_cast<int>(dns_.size()); }
  Protocol protocol() const { return protocol_; }
  DataNode* dn(int i) { return dns_[i].get(); }
  txn::Gtm& gtm() { return gtm_; }
  const LatencyModel& latency() const { return latency_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// When true, multi-shard commit confirmations queue on DNs instead of
  /// applying immediately — opens the Anomaly1 window for tests.
  void set_delay_commit_confirmations(bool v) { delay_commit_confirm_ = v; }
  bool delay_commit_confirmations() const { return delay_commit_confirm_; }

  // --- High availability (paper: "smart replication scheme") ----------------
  /// Turns on primary/backup replication: DN i's shard is backed up on DN
  /// (i+1) % N. Requires at least 2 DNs. Committed write sets ship to the
  /// backup synchronously at commit time.
  Status EnableReplication();
  bool replication_enabled() const { return replication_enabled_; }

  /// Simulates a data-node crash: the node stops serving, its backup
  /// promotes (shadow rows materialize into the backup's MVCC tables under
  /// a recovery transaction) and routing fails over. In-flight transactions
  /// on the failed node are lost; committed ones survive.
  Status FailDn(int dn);
  bool IsDown(int dn) const { return down_.size() > static_cast<size_t>(dn) && down_[dn]; }
  /// The node currently serving a shard (backup after failover).
  int EffectiveDn(int shard) const;
  int BackupOf(int dn) const { return (dn + 1) % static_cast<int>(dns_.size()); }
  const ShadowShard& shadow(int primary) const { return shadows_[primary]; }
  /// Applies one committed record to `primary`'s backup shadow.
  void ShipToBackup(int primary, const ReplicationRecord& record);

  /// 2PC recovery sweep (run after a coordinator failure): every in-doubt
  /// prepared transaction on every DN consults the GTM for the global
  /// outcome. Returns the number of transactions resolved.
  int RecoverInDoubtTransactions();

  /// Background garbage collection: vacuums dead tuple versions on every
  /// DN below that DN's local visibility horizon (no open local snapshot
  /// can still see them). Returns versions removed across the cluster.
  size_t Vacuum();

  // --- Simulated-resource charging (used by Txn) -----------------------------
  /// One GTM round trip arriving at `arrival`; returns completion time.
  SimTime ChargeGtm(SimTime arrival);
  /// One DN statement round trip.
  SimTime ChargeDnStmt(int dn, SimTime arrival);
  /// One DN prepare/commit/abort message round trip.
  SimTime ChargeDnCommit(int dn, SimTime arrival);
  /// One batched prepare/commit round trip carrying `records` transaction
  /// records: the first record costs dn_commit_service_us, each further one
  /// the marginal dn_batch_record_service_us, plus one log_write_service_us
  /// when `durable` (the whole batch shares a single log force).
  SimTime ChargeDnCommitBatch(int dn, SimTime arrival, size_t records,
                              bool durable);
  /// One columnar partial-scan round trip: fixed statement setup plus a
  /// per-chunk term for chunks actually scanned (zone-map-pruned chunks are
  /// free, so pruning is visible in sim_latency_us) plus a per-256-record
  /// term for delta-tail rows examined by the unioned row-path pass.
  SimTime ChargeDnColumnarScan(int dn, SimTime arrival, size_t chunks_scanned,
                               size_t delta_rows = 0);
  /// DN-internal merge work: per-256-record folding cost, charged on the
  /// DN's serialized resource but without network hops (no CN round trip).
  SimTime ChargeDnMerge(int dn, SimTime arrival, size_t records);
  /// One index-probe round trip: fixed probe setup (bucket lookup +
  /// visibility checks) plus a per-returned-row term — the point-lookup
  /// fast path never pays the full scan's per-block cost. Bumps the
  /// index.lookups / index.rows_returned counters.
  SimTime ChargeDnIndexProbe(int dn, SimTime arrival, size_t rows_returned);
  /// One full-shard row-path scan round trip: statement setup plus a
  /// per-256-row examination term, so scan cost scales with shard size the
  /// way columnar scans already do (and index probes visibly do not).
  SimTime ChargeDnRowScan(int dn, SimTime arrival, size_t rows_examined);

  void ResetSimTime() { scheduler_.Reset(); }

  SimScheduler& scheduler() { return scheduler_; }
  int gtm_resource() const { return gtm_resource_; }
  int dn_resource(int dn) const { return dn_resources_[dn]; }

 private:
  friend class Txn;

  /// Merges one shard's delta tail against the current visibility horizons,
  /// charging the DN and publishing metrics when anything changed.
  storage::DeltaShard::MergeResult RunMerge(
      int dn, const std::shared_ptr<storage::DeltaShard>& shard,
      const std::string& name, SimTime arrival);

  Protocol protocol_;
  LatencyModel latency_;
  txn::Gtm gtm_;
  std::vector<std::unique_ptr<DataNode>> dns_;
  SimScheduler scheduler_;
  int gtm_resource_;
  std::vector<int> dn_resources_;
  MetricsRegistry metrics_;
  bool delay_commit_confirm_ = false;
  std::function<int(const sql::Value&)> sharder_;
  std::atomic<int> begins_since_maintenance_{0};
  /// Bumps index.maintenance_ops once per index on `table` — called by the
  /// Txn write paths after a successful heap mutation (the listener already
  /// applied the change; this is the metrics mirror).
  void NoteIndexWrite(const std::string& table);

  bool replication_enabled_ = false;
  std::set<std::string> columnar_tables_;
  /// table → number of indexes; mirrors DN-side registries so the write
  /// path can bump maintenance metrics without a per-write DN lookup.
  /// Guarded by indexed_tables_mu_: DDL mutates it while writers read it.
  mutable std::mutex indexed_tables_mu_;
  std::unordered_map<std::string, int> indexed_tables_;
  size_t delta_merge_threshold_ = 4096;
  bool auto_merge_ = true;
  std::mutex merge_wait_mu_;
  std::condition_variable merge_cv_;
  int merges_inflight_ = 0;  // guarded by merge_wait_mu_
  std::vector<bool> down_;
  std::vector<ShadowShard> shadows_;  // indexed by primary DN
};

}  // namespace ofi::cluster
