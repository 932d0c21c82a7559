/// \file exchange.h
/// \brief The distributed exchange subsystem: moving serialized row batches
/// between data nodes (paper Fig. 1: data nodes "exchange data on-demand and
/// execute the query in parallel"). Before this layer the cluster could only
/// scatter-gather aggregate — rows never crossed shards, so every join was
/// single-node. StreamingScatter provides the two classic MPP data-movement
/// operators:
///
/// * hash-repartition: every node routes its local rows by a hash of the
///   join key and ships partition j to node j, so rows with equal keys meet
///   on one node regardless of where they started.
/// * broadcast: every node ships its full local row set to every node, so
///   one (small) side of a join is complete everywhere.
///
/// Rows move as *serialized* batches through per-(src,dst) channels with
/// byte/batch accounting, because bytes moved is the quantity MPP planners
/// optimize (broadcast ~ |small| x (N-1) vs repartition ~ (|L|+|R|) x
/// (N-1)/N). Delivery is deterministic: a receiver drains channels in
/// source-node order and each channel preserves send order, so downstream
/// operators see a platform-independent row order.
///
/// Channels are *streaming* queues with a bounded in-memory window: a Send
/// that would exceed `max_bytes` of queued (sent, not yet received) payload
/// transparently spills the overflow batch to a per-channel temp file
/// instead of failing. Spilled segments are re-read in send order on the
/// receive path, so delivery order — and therefore query results — are
/// bit-identical to the uncapped run; the query just pays disk I/O in
/// simulated time (see ExchangeLatencyParams). A shared SpillBudget bounds
/// total on-disk bytes per query; exhausting it denies the send with
/// ResourceExhausted, and a capped channel with no spill config denies
/// outright.
///
/// RunExchange both executes and times an exchange: one single-threaded
/// loop in simulated time advances whichever producer step (stream rows
/// until a batch flushes, charge its encode) or consumer step (pop the next
/// batch once it has arrived, charge its decode) is due first. Every node
/// serializes its encode and decode work on its own resource (per-batch
/// overhead + per-KiB payload cost, see LatencyModel), so the exchange is
/// the max-over-DNs scatter of cluster/distributed_plan.h, not the serial
/// sum over nodes. An ExchangeSchedule only decides when consumers may run:
/// as batches land (pipelined) or once every channel into the node has
/// closed (barrier). Because sends and pops hit the real channels at their
/// simulated times, the channels' own spill counters are the spill the
/// simulation charges, and every figure is the same on every run.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "sql/schema.h"

namespace ofi::cluster::exchange {

// --- Row/batch wire format ---------------------------------------------------
// Batch   := u32 row_count, Row*
// Row     := u32 value_count, Value*
// Value   := u8 TypeId tag, payload
// Payload := bool: u8 | int64/timestamp: i64 LE | double: IEEE bits LE
//          | string: u32 LE length + bytes | null: empty
// All integers little-endian, so encoded bytes (and therefore the byte
// accounting) are platform-independent.

/// Appends the encoding of one value to `out`.
void EncodeValue(const sql::Value& v, std::string* out);
/// Appends the encoding of one row to `out`.
void EncodeRow(const sql::Row& row, std::string* out);
/// Encodes `rows[begin, end)` as one batch.
std::string EncodeBatch(const std::vector<sql::Row>& rows, size_t begin,
                        size_t end);

/// Decodes one batch produced by EncodeBatch; InvalidArgument on corrupt or
/// truncated input.
Result<std::vector<sql::Row>> DecodeBatch(const std::string& buf);

/// Encoded size of a value/row without materializing the bytes (used for
/// the ship-all-rows baseline and planner-side cost estimates).
size_t EncodedValueSize(const sql::Value& v);
size_t EncodedRowSize(const sql::Row& row);
/// Total encoded bytes of `rows` framed into batches of `batch_rows`.
size_t EncodedBytes(const std::vector<sql::Row>& rows, size_t batch_rows);

/// Partition hash, consistent with sql::Value::Equals (1, 1.0 and
/// TIMESTAMP(1) hash identically; NULLs hash together) and stable across
/// platforms (FNV-1a over the normalized payload) — so a repartitioned join
/// routes every matching pair to the same partition on any host.
uint64_t HashForPartition(const sql::Value& v);

// --- Spill-to-disk -----------------------------------------------------------

/// Shared cap on the bytes a query may hold spilled on disk at once, across
/// every consumer (both relations' exchange networks and the join build
/// side). max_bytes == 0 means unbounded; `used` tracks live on-disk bytes
/// (reserved on spill, released when the segment is consumed or discarded).
struct SpillBudget {
  explicit SpillBudget(size_t max = 0) : max_bytes(max) {}
  size_t max_bytes = 0;
  std::atomic<size_t> used{0};

  /// Reserves `n` bytes; false when the budget would be exceeded.
  bool Reserve(size_t n) {
    if (max_bytes == 0) {
      used.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
    size_t cur = used.load(std::memory_order_relaxed);
    while (cur + n <= max_bytes) {
      if (used.compare_exchange_weak(cur, cur + n,
                                     std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  void Release(size_t n) { used.fetch_sub(n, std::memory_order_relaxed); }
};

/// How a channel handles a Send that would exceed its queued-byte cap.
struct ExchangeSpillConfig {
  /// Directory for spill segment files; empty = the system temp directory.
  std::string temp_dir;
  /// Shared on-disk byte budget; nullptr = unbounded. Exhaustion denies
  /// with ResourceExhausted — the one overflow failure mode.
  SpillBudget* budget = nullptr;
};

/// \brief An append-only temp file of spill segments, with random-access
/// reads. Created lazily on first Append, deleted on Remove()/destruction —
/// a failing query can never leak segments because the owning channel (and
/// network) destructors call Remove().
///
/// Not thread-safe on its own; the owning ExchangeChannel serializes access
/// under its mutex.
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile() { Remove(); }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends `blob` at the logical end, creating the file on first use.
  /// Returns the segment's offset in `*offset_out`.
  Status Append(const std::string& blob, const std::string& dir,
                size_t* offset_out);
  /// Reads `size` bytes at `offset`; Corruption when the file is shorter
  /// than the recorded segment (truncated/corrupt spill).
  Result<std::string> Read(size_t offset, size_t size);
  /// Rolls the logical end back (failed partial send); later Appends
  /// overwrite the abandoned tail.
  void TruncateTo(size_t logical_end) { end_ = logical_end; }
  /// Closes and unlinks the file now (all segments consumed or discarded).
  void Remove();

  bool active() const { return f_ != nullptr; }
  size_t logical_end() const { return end_; }
  const std::string& path() const { return path_; }

 private:
  FILE* f_ = nullptr;
  std::string path_;
  size_t end_ = 0;  // logical append offset (file may be longer after rollback)
};

// --- Channels ----------------------------------------------------------------

/// Byte/batch accounting for one (src,dst) channel.
struct ChannelStats {
  int src = 0;
  int dst = 0;
  size_t bytes = 0;
  size_t batches = 0;
  /// Part of `bytes` that went through the spill file, and in how many
  /// segments.
  size_t spilled_bytes = 0;
  size_t spill_segments = 0;
};

/// \brief One directed src->dst streaming mailbox carrying serialized
/// batches. Mutex-guarded, so it stays safe to share across threads. FIFO:
/// receive order is always send order, spilled or not.
///
/// The in-memory queue is bounded by SendLimits::max_queued_bytes
/// (backpressure): an over-cap Send spills the batch to the channel's temp
/// file instead of growing the queue (or is denied when the channel has no
/// spill config or the spill budget is exhausted).
/// Once any segment is on disk, subsequent sends spill too until the spill
/// is fully consumed, so disk never reorders ahead of memory.
class ExchangeChannel {
 public:
  /// Per-send policy (owned by the network, shared across its channels).
  struct SendLimits {
    /// Cap on in-memory queued (sent, not yet received) bytes; 0 = no cap.
    size_t max_queued_bytes = 0;
    /// Overflow handling; nullptr with a cap = deny (no spill configured).
    const ExchangeSpillConfig* spill = nullptr;
  };

  /// Snapshot of the send-side state, for rolling back a failed multi-
  /// channel scatter (see ScatterGuard). Every queued
  /// batch and spill segment carries the monotone send sequence number it
  /// was accepted under, so RollbackTo drops exactly the batches sent after
  /// the Mark — even when a consumer drained some of them in between (the
  /// pipelined producer-fails-mid-stream path).
  struct Checkpoint {
    size_t batches = 0;
    size_t bytes = 0;
    size_t spilled_bytes = 0;
    size_t spill_segments = 0;
    size_t spill_end = 0;
    uint64_t send_seq = 0;
  };

  ExchangeChannel() = default;
  ~ExchangeChannel() { Discard(); }

  /// Queues one batch, spilling or denying per `limits` (see class docs).
  Status Send(std::string batch, const SendLimits& limits);
  /// Uncapped send (no limit, no spill).
  Status Send(std::string batch) { return Send(std::move(batch), SendLimits{}); }

  /// Removes and returns the oldest queued batch (reading it back from the
  /// spill file when the memory queue is empty); nullopt when the channel
  /// is empty. Corruption when a spill segment cannot be read back whole.
  /// Once the channel is closed with an error, every pop fails fast with
  /// that status — a consumer never sees a silently truncated stream.
  Result<std::optional<std::string>> PopBatch();

  /// Marks the stream complete. Close(OK) lets consumers drain the
  /// remaining payload and then see end-of-stream; Close(error) propagates
  /// the producer's failure to every later pop. Idempotent; the first
  /// non-OK status wins (a later OK close never masks it).
  void Close(Status st = Status::OK());

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }
  Status close_status() const {
    std::lock_guard lock(mu_);
    return close_status_;
  }

  /// Removes and returns every queued batch in send order (memory window
  /// first, then spilled segments — which is exactly send order).
  Result<std::vector<std::string>> Drain();

  /// Drops all queued and spilled payload without delivering it, rolling
  /// the lifetime byte/batch totals back so an aborted exchange does not
  /// inflate traffic accounting; the dropped payload moves to
  /// aborted_bytes(). Deletes the spill file.
  void Discard();

  Checkpoint Mark() const;
  /// Restores the send-side state captured by Mark(), discarding batches
  /// sent since (see Discard for the accounting contract).
  void RollbackTo(const Checkpoint& cp);

  size_t bytes() const {
    std::lock_guard lock(mu_);
    return bytes_;
  }
  size_t batches() const {
    std::lock_guard lock(mu_);
    return batches_;
  }
  size_t queued_bytes() const {
    std::lock_guard lock(mu_);
    return queued_bytes_;
  }
  /// Payload refused for lack of a spill config or an exhausted budget.
  size_t denied_bytes() const {
    std::lock_guard lock(mu_);
    return denied_bytes_;
  }
  /// Spilled payload delivered or still deliverable (not reduced by
  /// receives; Discard/RollbackTo move undelivered spill to aborted_bytes).
  size_t spilled_bytes() const {
    std::lock_guard lock(mu_);
    return spilled_bytes_;
  }
  size_t spill_segments() const {
    std::lock_guard lock(mu_);
    return spill_segments_;
  }
  /// Payload dropped by Discard/RollbackTo (failed exchanges).
  size_t aborted_bytes() const {
    std::lock_guard lock(mu_);
    return aborted_bytes_;
  }
  /// Path of the live spill file; empty when nothing is spilled (test and
  /// debugging hook — e.g. the truncated-segment error-path test).
  std::string spill_path() const {
    std::lock_guard lock(mu_);
    return spill_.path();
  }

 private:
  struct MemBatch {
    uint64_t seq = 0;
    std::string payload;
  };
  struct Seg {
    uint64_t seq = 0;
    size_t offset = 0;
    size_t size = 0;
  };

  void DiscardLocked();
  // Pops the oldest batch (memory first, then spill) under mu_; the caller
  // has already checked that something is queued.
  Result<std::string> PopLocked();

  mutable std::mutex mu_;
  std::deque<MemBatch> queue_;     // in-memory window (oldest first)
  std::deque<Seg> spill_segs_;     // on-disk overflow, newer than everything in queue_
  SpillFile spill_;
  SpillBudget* budget_ = nullptr;  // budget the live spill bytes are held on
  bool closed_ = false;
  Status close_status_;            // non-OK: producer failed mid-stream
  uint64_t send_seq_ = 0;          // monotone id of the last accepted Send
  size_t bytes_ = 0;    // lifetime accepted payload, rolled back on Discard
  size_t batches_ = 0;
  size_t queued_bytes_ = 0;   // currently in queue_; receives decrement
  size_t denied_bytes_ = 0;   // refused: no spill config / budget
  size_t spilled_bytes_ = 0;  // lifetime payload written to disk
  size_t spill_segments_ = 0;
  size_t aborted_bytes_ = 0;  // dropped by Discard / RollbackTo
};

/// \brief The all-to-all mailbox grid for one exchange step: num_nodes^2
/// channels. Loopback (src == dst) traffic still goes through the codec —
/// the receive path is identical for local and remote rows — but is excluded
/// from the cross-node byte/batch accounting and from simulated network
/// latency, matching a real DN keeping its own partition in memory. Spilled
/// loopback bytes DO count (and charge): disk I/O is paid even for the
/// partition that never crosses the wire.
class ExchangeNetwork {
 public:
  /// `max_channel_bytes` caps each channel's in-memory queued bytes (0 =
  /// unbounded); overflow spills per `spill` (see ExchangeChannel).
  explicit ExchangeNetwork(int num_nodes, size_t batch_rows = 64,
                           size_t max_channel_bytes = 0,
                           ExchangeSpillConfig spill = {})
      : n_(num_nodes),
        batch_rows_(batch_rows == 0 ? 1 : batch_rows),
        max_channel_bytes_(max_channel_bytes),
        spill_(std::move(spill)),
        channels_(static_cast<size_t>(num_nodes) * num_nodes) {}

  int num_nodes() const { return n_; }
  size_t batch_rows() const { return batch_rows_; }
  size_t max_channel_bytes() const { return max_channel_bytes_; }
  ExchangeChannel::SendLimits send_limits() const {
    return ExchangeChannel::SendLimits{max_channel_bytes_, &spill_};
  }

  ExchangeChannel& channel(int src, int dst) {
    return channels_[static_cast<size_t>(src) * n_ + dst];
  }
  const ExchangeChannel& channel(int src, int dst) const {
    return channels_[static_cast<size_t>(src) * n_ + dst];
  }

  /// Decodes every batch queued for `dst` now, in source-node order then
  /// send order — the same rows in the same order whether or not they
  /// spilled. Never waits: call it once the producers have closed.
  /// Consumed spill segments free their budget; a channel's spill file is
  /// deleted the moment its last segment is read. Fails with a producer's
  /// error close status.
  Result<std::vector<sql::Row>> ReceiveRows(int dst);

  /// Closes every channel out of `src` with `st` (producer completion or
  /// failure — see ExchangeChannel::Close).
  void CloseAllFrom(int src, Status st = Status::OK());

  /// Per-channel accounting for every non-empty channel, in (src,dst) order.
  std::vector<ChannelStats> Stats() const;

  /// Cross-node traffic (loopback excluded) — the bytes a real network moves.
  size_t CrossNodeBytes() const;
  size_t CrossNodeBatches() const;
  /// Cross-node traffic leaving `src` / entering `dst`.
  size_t OutBytes(int src) const;
  size_t InBytes(int dst) const;
  /// Total payload denied across every channel (no spill config / budget).
  size_t DeniedBytes() const;
  /// Total payload spilled to disk across every channel (loopback included —
  /// the disk write is real even when the network hop is not).
  size_t SpilledBytes() const;
  size_t SpillSegments() const;
  /// Spilled payload entering `dst` (loopback included), the bytes whose
  /// disk write+read charge lands on the receiving node.
  size_t SpilledInBytes(int dst) const;
  /// Total payload dropped by failed sends' rollback across every channel.
  size_t AbortedBytes() const;

 private:
  int n_;
  size_t batch_rows_;
  size_t max_channel_bytes_;
  ExchangeSpillConfig spill_;
  std::vector<ExchangeChannel> channels_;  // row-major [src][dst]
};

// --- Operators ---------------------------------------------------------------

/// \brief RAII rollback of a multi-destination send: marks every channel out
/// of `src` at construction and rolls all of them back unless Commit() is
/// called — a failed scatter leaves no queued payload and no inflated
/// byte/batch accounting behind (the dropped payload lands in
/// AbortedBytes). Rollback drops exactly the post-mark batches (by send
/// sequence), and payload a consumer already drained is still subtracted
/// from the lifetime accounting.
class ScatterGuard {
 public:
  ScatterGuard(ExchangeNetwork* net, int src) : net_(net), src_(src) {
    marks_.reserve(static_cast<size_t>(net->num_nodes()));
    for (int dst = 0; dst < net->num_nodes(); ++dst) {
      marks_.push_back(net->channel(src, dst).Mark());
    }
  }
  ~ScatterGuard() {
    if (armed_) {
      for (int dst = 0; dst < net_->num_nodes(); ++dst) {
        net_->channel(src_, dst).RollbackTo(marks_[static_cast<size_t>(dst)]);
      }
    }
  }
  void Commit() { armed_ = false; }

 private:
  ExchangeNetwork* net_;
  int src_;
  bool armed_ = true;
  std::vector<ExchangeChannel::Checkpoint> marks_;
};

/// \brief The one exchange producer: rows are routed one at a time and each
/// destination's batch is flushed into its channel the moment batch_rows()
/// have accumulated, so a consumer can start decoding while the producer is
/// still scanning. Hash-repartition routes a row to node
/// HashForPartition(row[key_idx]) % num_nodes (rows with NULL keys are
/// routed like any other value; an inner join drops them at the probe);
/// broadcast sends every row to every node, the loopback copy included, so
/// receivers assemble the full relation from channels alone. Per
/// destination, batches hold at most batch_rows() rows in input order —
/// the framing depends only on the rows, never on the schedule. Run it
/// under a ScatterGuard so a failed scatter leaves no payload behind.
///
/// Not thread-safe: one StreamingScatter per producer.
class StreamingScatter {
 public:
  /// Called after each batch a channel accepted, with its destination and
  /// payload size (RunExchange charges the encode here).
  using OnFlush = std::function<void(int dst, size_t bytes)>;

  /// Broadcast when `key_idx` is nullopt, hash-repartition otherwise.
  StreamingScatter(ExchangeNetwork* net, int src,
                   std::optional<size_t> key_idx, OnFlush on_flush = {});

  /// Routes one row; may flush one or more full batches.
  Status Push(const sql::Row& row);
  /// Flushes every destination's partial tail batch.
  Status Finish();

 private:
  Status FlushDst(int dst);

  ExchangeNetwork* net_;
  int src_;
  std::optional<size_t> key_idx_;  // nullopt = broadcast
  ExchangeChannel::SendLimits limits_;
  OnFlush on_flush_;
  std::vector<std::vector<sql::Row>> pending_;  // per dst
};

/// Streams all of `rows` out of node `src` at once through a
/// StreamingScatter (hash-repartition on `key_idx`, broadcast when nullopt)
/// under a ScatterGuard, so a failed scatter leaves no queued payload and
/// no inflated accounting behind (the payload lands in AbortedBytes). Does
/// not close the channels.
Status ScatterRows(ExchangeNetwork* net, int src,
                   const std::vector<sql::Row>& rows,
                   std::optional<size_t> key_idx);

// --- The exchange loop -------------------------------------------------------

/// When consumers may run relative to producers.
enum class ExchangeSchedule {
  /// A consumer runs once every channel into its node has closed.
  kBarrier,
  /// A consumer drains each batch as it lands.
  kPipelined,
};

/// Cost constants for one exchange step (taken from cluster::LatencyModel).
struct ExchangeLatencyParams {
  SimTime network_hop_us = 25;
  SimTime batch_service_us = 4;  // per-batch serialize/deserialize overhead
  SimTime kb_service_us = 2;     // per KiB of payload, sender and receiver
  SimTime spill_write_kb_us = 6;  // per KiB written to a spill file
  SimTime spill_read_kb_us = 4;   // per KiB read back from a spill file
};

/// Serialized service time for moving `bytes` in `batches` on one node.
SimTime ExchangeServiceTime(size_t bytes, size_t batches,
                            const ExchangeLatencyParams& p);

/// Serialized service time for writing `bytes` to spill and reading them
/// back (both halves are paid by the node that owns the spill file).
SimTime SpillServiceTime(size_t bytes, const ExchangeLatencyParams& p);

/// One relation a producer streams into the exchange.
struct ScatterInput {
  size_t net = 0;  // index into RunExchange's `nets`
  const std::vector<sql::Row>* rows = nullptr;
  std::optional<size_t> key_idx;  // nullopt = broadcast
};

/// What RunExchange delivered and when (per node, indexes match
/// node_resources).
struct ExchangeRun {
  /// rows[k][j]: every row net k delivered to node j, in drain order.
  std::vector<std::vector<std::vector<sql::Row>>> rows;
  /// Producer i's scatter outcome; a failed scatter was rolled back and
  /// closed its channels with this status.
  std::vector<Status> producer_status;
  /// Consumer j's outcome (a producer's error close, a corrupt batch or
  /// spill segment); rows[*][j] is incomplete unless it is OK.
  std::vector<Status> consumer_status;
  /// Input fully decoded (and spill paid): when the consumer-side
  /// join/merge may start.
  std::vector<SimTime> ready;
  /// Producer i finished encoding its last batch and closed its channels
  /// on every net.
  std::vector<SimTime> producer_done;
  /// Start of the node's first decode charge (ready[j] when it decodes
  /// nothing).
  std::vector<SimTime> first_consume;
  /// Sum over consumers of (last producer close - first_consume), clamped
  /// at 0: the simulated time consumers ran while producers were still
  /// producing. 0 under the barrier schedule by construction.
  SimTime overlap_us = 0;
  /// Batches consumers popped, loopback included.
  size_t batches_popped = 0;
};

/// Executes an exchange and charges it in simulated time, in one
/// deterministic single-threaded loop. Producer i streams `inputs[i]` in
/// order, each through a StreamingScatter under a ScatterGuard. It closes
/// its channels on net k as soon as its last input on k ends (from the
/// start when it has none), and on a failure closes every net still open
/// with the error. Consumer j drains net-major, then source-node order,
/// then send order. The loop always runs the due step with the smallest
/// simulated time (ties: producers first, then lower node id):
///
/// * A producer step starts at the end of the producer's previous encode
///   (start[i] at first) and pushes rows until at least one batch flushes.
///   Each flushed cross-node batch charges its encode on the producer's
///   resource; the charge uses telescoped cumulative KiB, so the total
///   equals ExchangeServiceTime over its whole cross-node output. A batch
///   arrives one network hop after its encode ends (loopback: when it is
///   flushed, with no charge and no hop).
/// * A consumer step pops the next batch no earlier than its arrival and
///   charges the decode of a cross-node batch on the consumer's resource,
///   telescoped the same way. Sharing the resource serializes a node's
///   decodes against its own encodes. A consumer whose next channel is
///   empty and still open waits until that producer sends to it or closes
///   that net; a remote close is seen one hop after the producer's last
///   encode before it.
/// * kPipelined lets consumer j run from start[j]; kBarrier holds it until
///   every channel into j has closed.
/// * Sends and pops hit the real channels in this order, so a capped
///   channel spills exactly when its in-memory window is full at that
///   simulated instant, and the channels' spill counters are the figure.
///   The spilled bytes entering j (loopback included) charge
///   SpillServiceTime on j's resource after its last pop.
ExchangeRun RunExchange(const std::vector<ExchangeNetwork*>& nets,
                        const std::vector<std::vector<ScatterInput>>& inputs,
                        SimScheduler* scheduler,
                        const std::vector<int>& node_resources,
                        const std::vector<SimTime>& start,
                        const ExchangeLatencyParams& p,
                        ExchangeSchedule schedule);

}  // namespace ofi::cluster::exchange
