/// \file sim_clock.h
/// \brief Simulated time. The paper's experiments ran on clusters of
/// physical machines; we reproduce their *queueing behaviour* (e.g. the GTM
/// becoming a serialized bottleneck, Fig. 3) deterministically by charging
/// simulated microseconds for network hops and critical sections instead of
/// relying on wall-clock contention.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace ofi {

/// Simulated microseconds since simulation start.
using SimTime = int64_t;

/// \brief A discrete-event scheduler with per-actor serialization.
///
/// Actors (clients, data nodes, the GTM) are modeled as serialized
/// resources. Each resource keeps its set of busy intervals; charging work
/// packs the request into the earliest idle gap at or after its arrival
/// (gap-fitting). Closed-loop clients can thus execute whole transactions
/// in code order while their requests still interleave in simulated time,
/// and a shared resource still saturates at 1/service-time requests per
/// second, the bottleneck behaviour GTM-lite removes from the GTM.
///
/// Resources are independent of each other: completion times on one
/// resource depend only on the charges made to that resource. Within one
/// resource the order of charges matters. With [100,200) idle, charging
/// (arrival 100, 100 µs) then (arrival 150, 50 µs) completes at 200 and
/// 350; the reverse order completes at 400 and 200. Charges made from
/// background threads, such as the delta-merge charges of
/// `Cluster::ChargeDnMerge`, race with foreground charges on the same DN,
/// and are one source of run-to-run variation in simulated numbers.
///
/// Cost: a charge costs O(log n) in the number of disjoint busy intervals
/// of its resource, however long the history (see BusyIntervals).
///
/// Thread safety: all methods take an internal mutex.
class SimScheduler {
 public:
  /// Registers a serialized resource; returns its id.
  int AddResource();

  /// Charges `service_us` of serialized work on `resource` for a request
  /// arriving at `arrival`. Returns the completion time (the request waits
  /// for the first idle gap big enough to hold it). A zero-service charge
  /// records nothing and returns the first idle instant at or after
  /// `arrival`.
  SimTime Charge(int resource, SimTime arrival, SimTime service_us);

  /// Total service ever charged to `resource` (trimmed work included) —
  /// utilization reporting for benches.
  SimTime BusyTime(int resource) const;

  /// Drops interval bookkeeping that ended before `floor` (no future arrival
  /// may be earlier: the completion of an earlier one depends on what was
  /// dropped). Call periodically from closed-loop event loops such as
  /// `RunTraffic`.
  void Trim(SimTime floor);

  void Reset();

 private:
  /// \brief The busy intervals of one serialized resource, as a first-fit
  /// index: the set of maximal busy intervals [start, end) — abutting
  /// intervals are coalesced into one — kept in a treap keyed by start.
  /// Each node also stores the idle gap to its successor and the largest
  /// such gap in its subtree, so the first gap that holds a request is
  /// found, and the interval inserted, in O(log n) expected, n = the number
  /// of disjoint busy intervals. Treap priorities are a hash of the key:
  /// no RNG state, no seed.
  ///
  /// Not thread-safe; SimScheduler serializes access.
  class BusyIntervals {
   public:
    /// Where a request fits: it starts at `start`, between the intervals
    /// `before` and `after` (node ids, -1 for none).
    struct Slot {
      SimTime start;
      int32_t before;
      int32_t after;
    };

    /// The earliest idle stretch of `service_us` at or after `arrival`
    /// (for `service_us == 0`, the first idle instant).
    Slot Fit(SimTime arrival, SimTime service_us) const;

    /// Marks [slot.start, slot.start + service_us) busy; `slot` comes from
    /// Fit(…, service_us) with no change in between, and service_us > 0.
    void Insert(const Slot& slot, SimTime service_us);

    /// Drops the intervals that ended before `floor`.
    void DropEndingBefore(SimTime floor);

    void Clear();

   private:
    // 48 bytes, held in a pool with no per-node allocation: no more than
    // a std::map<SimTime, SimTime> node, before the allocator's overhead.
    struct Node {
      SimTime start;
      SimTime end;
      SimTime gap;      // idle time to the next interval; open after the last
      SimTime max_gap;  // largest `gap` in this subtree
      int32_t left;
      int32_t right;
      int32_t parent;
    };

    SimTime MaxGap(int32_t n) const;
    bool Pull(int32_t n);
    void PullUp(int32_t n);
    void SetGap(int32_t n, SimTime gap);
    int32_t FirstFitFrom(int32_t n, SimTime service_us) const;
    int32_t Next(int32_t n) const;
    void RotateUp(int32_t x);
    void InsertNode(SimTime start, SimTime end, SimTime gap, int32_t before,
                    int32_t after);
    void RemoveNode(int32_t n);
    int32_t Alloc(const Node& node);
    void Free(int32_t n);
    void FreeTree(int32_t n);

    std::vector<Node> nodes_;  // node pool; free slots chain through `left`
    int32_t root_ = -1;
    int32_t free_ = -1;
  };

  struct Resource {
    BusyIntervals busy;
    SimTime busy_total = 0;
  };
  mutable std::mutex mu_;
  std::vector<Resource> resources_;
};

/// \brief A monotonically advancing simulated clock usable where only
/// "now" is needed (GMDB checkpointing, metrics windows, edge sync).
class SimClock {
 public:
  SimTime Now() const { return now_; }
  void Advance(SimTime delta_us) { now_ += delta_us; }
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }
  void Reset() { now_ = 0; }

 private:
  SimTime now_ = 0;
};

}  // namespace ofi
