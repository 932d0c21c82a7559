/// \file distributed_plan.h
/// \brief The distributed physical-operator layer (paper Fig. 1: the CN
/// "plans SQL and executes it across data nodes"). Every distributed query
/// is a small tree of composable physical operators run by one executor,
/// ExecuteDistPlan:
///
///   DistScan       per-DN shard scan: one fragment whose three row sources
///                  (the MVCC heap visited in place, an index probe for
///                  DistIndexScan, or the columnar view's kernels) feed one
///                  sink that applies the pushed filter below any data
///                  movement
///   DistHashJoin   per-DN sql::HashJoin over two DistScans. The join
///                  moves its own inputs (both relations' traffic shares
///                  each DN's serialized resource in one exchange step):
///                  from the scanned encoded sizes it picks the smaller side
///                  (left on a tie), which broadcast ships and every DN
///                  builds its hash table on, and resolves kAuto; each match
///                  goes into the same sink as a scan's rows
///   DistPartialAgg per-DN partial aggregation, fused into its child
///                  fragment: the sink folds each passing row or join match
///                  into a sql::Aggregator (or pure column kernels serve a
///                  scan), so a fused join builds no joined table
///   Gather         CN-side union of per-DN partials in DN order
///   DistFinalAgg   CN-side final aggregation (COUNT->sum of counts,
///                  AVG->sum/count division) over the gathered partials
///
/// Each operator carries its own data-movement and max-over-DNs simulated
/// latency accounting. The SimScheduler's gap-fitting Charge is
/// order-independent across distinct resources, so only the per-DN charge
/// order matters, and the fragment executor fixes it: prepare -> scan
/// stmt(s) -> exchange -> join stmt per DN.
///
/// On top sits a lowering pass (LowerSelectPlan) from the sql::PlanSelect
/// logical plan to a distributed physical plan — columnar vs row scan from
/// Cluster columnar registration + filter recognizability, broadcast vs
/// repartition from StatsRegistry::EstimatedBytes when both tables have
/// stats (kAuto otherwise) — with a clean
/// single-node fallback (outer joins, set ops, expressions the cluster
/// cannot run). Plan nodes above the distributable core (Project / Sort /
/// Limit / HAVING filters) are re-executed CN-side on the gathered result.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/exchange/exchange.h"
#include "optimizer/stats.h"
#include "sql/plan.h"

namespace ofi::cluster {

/// One requested aggregate.
struct DistributedAgg {
  sql::AggFunc func = sql::AggFunc::kCount;
  std::string column;  // ignored for COUNT(*)
  std::string name;
};

/// How the two sides of a distributed join are moved so matching keys meet.
enum class JoinStrategy {
  /// Choose at execution from the scanned encoded side sizes: broadcast the
  /// smaller side when |small| x (N-1) <= (|L|+|R|) x (N-1)/N, repartition
  /// otherwise. LowerSelectPlan stamps kBroadcast / kRepartition instead
  /// when both tables have optimizer stats.
  kAuto,
  /// Ship the (smaller) build side, whole, to every DN; the probe side
  /// never moves. Bytes ~ |build| x (N-1).
  kBroadcast,
  /// Hash-partition BOTH sides on the join key; row with key k goes to DN
  /// hash(k) % N. Bytes ~ (|L|+|R|) x (N-1)/N.
  kRepartition,
};

enum class DistOpKind : uint8_t {
  kDistScan,
  kDistIndexScan,
  kDistHashJoin,
  kDistPartialAgg,
  kDistFinalAgg,
  kGather,
};

/// Planner's scan-path choice. kColumnar means "serve from the columnar
/// copy where possible": the executor still re-checks filter
/// recognizability and per-shard freshness at run time and falls back to
/// the row store per shard (results are identical either way).
enum class ScanPath : uint8_t { kRow, kColumnar };

struct DistOp;
using DistOpPtr = std::shared_ptr<DistOp>;

/// \brief One node of a distributed physical plan.
struct DistOp {
  DistOpKind kind = DistOpKind::kDistScan;
  std::vector<DistOpPtr> children;

  // kDistScan
  std::string table;
  sql::ExprPtr filter;  // pushed below the exchange; owned by this plan
  ScanPath path = ScanPath::kRow;

  // kDistIndexScan — replaces a kDistScan when LowerSelectPlan finds an
  // equality (or, on an ordered index, range) conjunct binding an indexed
  // column and ANALYZE stats predict fewer matching rows than the scan
  // crossover. The FULL original predicate rides along in `filter` as the
  // residual, so results are bit-identical to the scan it replaces.
  std::string index_column;  // qualified name the index was created on
  size_t index_col = 0;      // its resolved position in the shard schema
  bool probe_is_range = false;
  sql::Value probe_eq;             // equality probe key
  sql::Value probe_lo, probe_hi;   // inclusive range bounds (ordered index)
  /// >= 0: the equality key is the shard key (schema column 0), so only
  /// this shard can hold matches — the executor routes to that one DN
  /// under a single-shard snapshot. -1 = probe every serving DN.
  int probe_shard = -1;
  /// ANALYZE-estimated matching rows across the table; -1 = no stats.
  double est_rows = -1;

  // kDistHashJoin
  std::string left_key, right_key;
  sql::ExprPtr residual;  // evaluated on the joined row
  /// kAuto = resolve at execution from the scanned bytes; kBroadcast /
  /// kRepartition force that strategy (lowering stamps it from stats,
  /// hand-built plans pass it to MakeDistHashJoin). Which side moves under
  /// broadcast and which side is built is decided at execution either way.
  JoinStrategy strategy = JoinStrategy::kAuto;

  // kDistPartialAgg / kDistFinalAgg
  std::vector<std::string> group_by;
  std::vector<DistributedAgg> aggs;

  /// Planner-estimated relation bytes (EXPLAIN); -1 = not estimated.
  double est_bytes = -1;

  /// kDistScan: the lowered execution flavor for EXPLAIN, e.g.
  /// "columnar(grouped-kernel)", "columnar(materialize:agg)" or
  /// "row(filter not recognized)". Empty = nothing noteworthy (plain row
  /// scan of a table with no columnar copy). Predictive — the executor
  /// still re-checks per shard and may fall back (see DistExecStats::per_dn
  /// for what actually ran).
  std::string scan_detail;

  /// Physical-tree rendering for EXPLAIN (same indent style as
  /// sql::PlanNode::ToString).
  std::string ToString(int indent = 0) const;
};

// --- Builder helpers ---------------------------------------------------------
DistOpPtr MakeDistScan(std::string table, sql::ExprPtr filter,
                       ScanPath path = ScanPath::kRow);
DistOpPtr MakeDistIndexScan(std::string table, sql::ExprPtr filter,
                            std::string index_column, size_t index_col);
DistOpPtr MakeDistHashJoin(DistOpPtr left, DistOpPtr right,
                           std::string left_key, std::string right_key,
                           sql::ExprPtr residual,
                           JoinStrategy strategy = JoinStrategy::kAuto);
DistOpPtr MakeDistPartialAgg(DistOpPtr child,
                             std::vector<std::string> group_by,
                             std::vector<DistributedAgg> aggs);
DistOpPtr MakeDistFinalAgg(DistOpPtr child, std::vector<std::string> group_by,
                           std::vector<DistributedAgg> aggs);
/// Gathers partials when the child is a DistPartialAgg, else rows (the CN
/// then pays a size-aware receive on top of the per-partial merge cost).
DistOpPtr MakeGather(DistOpPtr child);

// --- Execution ---------------------------------------------------------------

/// Knobs for executing a distributed physical plan: scatter mode
/// (parallel), the index permission for lowering (use_index), exchange
/// batching and memory (batch_rows, max_channel_bytes, spill_dir,
/// max_spill_bytes, max_build_bytes) and the exchange schedule (pipeline).
/// The join strategy (DistOp::strategy) and the scan path (DistOp::path,
/// columnar whenever the table has a columnar copy and the filter is
/// kernel-recognizable) are plan properties, not options; a join's moving
/// and build side come from the scanned sizes.
struct DistExecOptions {
  /// Run per-DN fragments on common::ThreadPool::Shared(). When false the
  /// scatter executes inline on the caller thread. Results and simulated
  /// latencies are identical either way — partials are always merged in DN
  /// order.
  bool parallel = true;
  /// Let LowerSelectPlan choose a DistIndexScan when a predicate binds an
  /// indexed column and stats predict it is cheaper than the scan. Off =
  /// always scan (the sql_shell --no-index escape hatch); execution of an
  /// already-lowered index plan is unaffected.
  bool use_index = true;
  /// Rows per serialized exchange batch.
  size_t batch_rows = 64;
  /// Per-exchange-channel in-memory queued-byte cap; 0 = unbounded. A Send
  /// over the cap transparently spills the batch to a per-channel temp file
  /// (results stay bit-identical, the query just pays spill I/O in
  /// simulated time; see exchange.h).
  size_t max_channel_bytes = 0;
  /// Directory for exchange/build spill segment files; empty = the system
  /// temp directory. Segments are deleted as they are consumed and always
  /// by the time the query returns, success or failure.
  std::string spill_dir;
  /// Cap on this query's total live on-disk spill bytes across every
  /// exchange channel and join build side; 0 = unbounded. Exhausting it is
  /// the one overflow failure mode (ResourceExhausted, counted in
  /// exchange.bytes_denied).
  size_t max_spill_bytes = 0;
  /// Per-DN cap on the in-memory hash-join build partition; a build side
  /// exceeding it is spooled through a spill channel and re-read at build
  /// time (bit-identical, charged as spill I/O). 0 = never spill the build.
  size_t max_build_bytes = 0;
  /// The exchange schedule: when a join's consumers may run in the
  /// simulated-time exchange loop (exchange::RunExchange), whose producers
  /// always stream batches as each partition fills.
  /// false (barrier): consumer j starts once every channel into j has
  /// closed (a remote close arrives one hop after that producer's last
  /// encode). true (pipelined): consumers decode batches as they land, so
  /// decoding overlaps the slowest producer, and the CN gather merges each
  /// DN as it finishes. Results are bit-identical; only simulated latency
  /// and spill change.
  bool pipeline = false;
};

/// Accounting produced by one distributed plan execution, filled in by
/// whichever operators ran.
struct DistExecStats {
  /// Simulated CN-observed latency: max over DNs of each DN's fragment
  /// work on its own serialized resource, plus the CN gather.
  SimTime sim_latency_us = 0;
  int num_serving = 0;
  // Aggregate-path accounting.
  /// Bytes of partial state shipped DN -> CN.
  size_t partial_bytes = 0;
  /// Bytes a naive plan — ship every (filtered) row to one node — would
  /// have moved.
  size_t naive_bytes = 0;
  /// Shards served from the columnar store (0 = pure row path).
  size_t columnar_shards = 0;
  storage::ScanStats scan_stats;
  /// What each DN actually did for each scanned table (`path` is the
  /// realized flavor, e.g. "columnar(grouped-kernel)" or
  /// "row(filter not recognized)") with that shard's scan counters — the
  /// per-DN breakdown of scan_stats.
  struct DnScanInfo {
    int dn = 0;
    std::string table;
    std::string path;
    storage::ScanStats stats;
  };
  std::vector<DnScanInfo> per_dn;
  // Join-path accounting.
  bool joined = false;
  /// Strategy actually executed (kAuto resolved).
  JoinStrategy strategy = JoinStrategy::kBroadcast;
  /// True if the left side was the build side: the smaller one by scanned
  /// encoded bytes (left on a tie), which broadcast ships and every DN's
  /// hash table indexes under either strategy.
  bool build_left = false;
  size_t shuffle_bytes = 0;
  size_t broadcast_bytes = 0;
  /// Encoded bytes of joined rows gathered DN -> CN.
  size_t result_bytes = 0;
  size_t exchange_batches = 0;
  /// Exchange payload spilled to temp files by capped channels (loopback
  /// included — the disk I/O is real even for the local partition): the
  /// channels' own counters, which the exchange loop charges as spill I/O
  /// and which are the same on every run under either schedule.
  size_t spill_bytes = 0;
  size_t spill_segments = 0;
  /// Join build partitions spooled to disk under max_build_bytes, summed
  /// over DNs.
  size_t build_spill_bytes = 0;
  /// Per-(src DN, dst DN) byte/batch accounting, loopback included.
  std::vector<exchange::ChannelStats> channels;
  // Pipelined-execution accounting (DistExecOptions::pipeline).
  /// Batches consumers drained under the pipelined schedule (loopback
  /// included); 0 under barrier.
  size_t batches_streamed = 0;
  /// Simulated consumer/producer overlap: summed over consumers (and the
  /// CN gather), the time spent decoding/merging before the last producer
  /// finished. 0 under barrier execution by construction.
  SimTime pipeline_overlap_us = 0;
};

struct DistPlanResult {
  sql::Table table;
  DistExecStats stats;
};

/// Executes a distributed physical plan on the cluster inside one
/// multi-shard snapshot (single-shard when an index probe pins the plan to
/// one DN). The root must be a Gather, optionally under a DistFinalAgg.
/// This is the one way a distributed query runs: SQL lowered by
/// LowerSelectPlan and hand-built plans (MakeGather over MakeDistScan /
/// MakeDistHashJoin, with MakeDistPartialAgg + MakeDistFinalAgg for a
/// scatter-gather aggregate) take the same path. With replication enabled,
/// shards whose primary is down are served (exactly once) by the promoted
/// backup.
Result<DistPlanResult> ExecuteDistPlan(Cluster* cluster, const DistOpPtr& root,
                                       const DistExecOptions& options = {});

// --- Lowering (sql::PlanSelect logical plan -> distributed physical plan) ----

/// Outcome of trying to lower a logical plan. `root == nullptr` means the
/// shape cannot run distributed; `fallback_reason` says why. `cut` is the
/// logical node the distributed plan replaces and `cn_post` the ancestors
/// above it (outermost first) the CN re-executes over the gathered result;
/// both point into the logical tree passed in, which must outlive them.
struct DistLowering {
  DistOpPtr root;
  std::string fallback_reason;
  const sql::PlanNode* cut = nullptr;
  std::vector<const sql::PlanNode*> cn_post;

  bool ok() const { return root != nullptr; }
};

/// Lowers a planned SELECT onto the cluster. Distributable cores: a single
/// table scan, an inner equi-join of two table scans, or either under an
/// aggregate whose arguments are plain columns. Everything else (outer /
/// semi joins, multi-way joins, set ops / DISTINCT, aliased scans,
/// non-column aggregate arguments, predicates that do not bind against the
/// shard schemas) falls back single-node with a reason.
DistLowering LowerSelectPlan(const sql::PlanPtr& logical, Cluster* cluster,
                             const optimizer::StatsRegistry* stats,
                             const DistExecOptions& options = {});

/// Per-DN scan forecast for EXPLAIN: for every DistScan in the plan, one
/// line per serving DN with the predicted path (columnar or row), the
/// shard's sealed chunk and delta-tail row counts and the zone-map pruning
/// estimate for the scan's
/// recognized filter; for every DistIndexScan, one line per probed DN —
/// computed from metadata only, nothing runs.
std::string ExplainScanPaths(Cluster* cluster, const DistOpPtr& root);

/// The nodes serving data, one entry per live serving node (after failover
/// the promoted backup hosts the failed primary's rows in its own MVCC
/// tables, so scanning each serving node once covers every shard once).
std::vector<int> ServingDns(Cluster* cluster);

const char* ToString(JoinStrategy s);
const char* ToString(ScanPath p);

/// Test/bench seam, not a query knob: while one is alive, a fused columnar
/// aggregate the grouped kernel could serve takes the materialize (Gather +
/// row aggregate) path instead, reported as "columnar(materialize:forced)".
/// Isolates kernel-vs-materialize cost on identical data and plans.
/// Process-wide.
class ForceColumnarMaterializeForTesting {
 public:
  ForceColumnarMaterializeForTesting();
  ~ForceColumnarMaterializeForTesting();
  ForceColumnarMaterializeForTesting(
      const ForceColumnarMaterializeForTesting&) = delete;
  ForceColumnarMaterializeForTesting& operator=(
      const ForceColumnarMaterializeForTesting&) = delete;
};

}  // namespace ofi::cluster
