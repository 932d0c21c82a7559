#include "common/sim_clock.h"

#include <algorithm>
#include <limits>

namespace ofi {
namespace {

constexpr int32_t kNil = -1;
constexpr SimTime kOpenGap = std::numeric_limits<SimTime>::max();

/// Treap priority of the node keyed `start` (the splitmix64 finalizer).
uint64_t Priority(SimTime start) {
  uint64_t z = static_cast<uint64_t>(start) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

SimTime SimScheduler::BusyIntervals::MaxGap(int32_t n) const {
  return n == kNil ? -1 : nodes_[n].max_gap;
}

// Recomputes `n`'s max_gap from its children; returns whether it changed.
bool SimScheduler::BusyIntervals::Pull(int32_t n) {
  Node& x = nodes_[n];
  SimTime max_gap = std::max({x.gap, MaxGap(x.left), MaxGap(x.right)});
  if (max_gap == x.max_gap) return false;
  x.max_gap = max_gap;
  return true;
}

// Re-derives max_gap from `n` towards the root after one change below or
// at `n`, stopping at the first node whose value holds.
void SimScheduler::BusyIntervals::PullUp(int32_t n) {
  while (n != kNil && Pull(n)) n = nodes_[n].parent;
}

void SimScheduler::BusyIntervals::SetGap(int32_t n, SimTime gap) {
  nodes_[n].gap = gap;
  PullUp(n);
}

// The first node at or after `n` in key order whose gap holds
// `service_us`: `n` itself, else in its right subtree, else at or beyond
// the first ancestor `n` precedes. `max_gap` steers the descent. One always
// fits: the last interval's gap is open.
int32_t SimScheduler::BusyIntervals::FirstFitFrom(int32_t n,
                                                  SimTime service_us) const {
  int32_t sub = kNil;  // a subtree holding the answer
  if (nodes_[n].gap >= service_us) return n;
  if (MaxGap(nodes_[n].right) >= service_us) {
    sub = nodes_[n].right;
  } else {
    int32_t child = n;
    for (int32_t p = nodes_[n].parent;; child = p, p = nodes_[p].parent) {
      if (nodes_[p].left != child) continue;  // `p` precedes `child`
      if (nodes_[p].gap >= service_us) return p;
      if (MaxGap(nodes_[p].right) >= service_us) {
        sub = nodes_[p].right;
        break;
      }
    }
  }
  while (true) {
    const Node& x = nodes_[sub];
    if (MaxGap(x.left) >= service_us) {
      sub = x.left;
    } else if (x.gap >= service_us) {
      return sub;
    } else {
      sub = x.right;
    }
  }
}

// The node after `n` in key order, or kNil.
int32_t SimScheduler::BusyIntervals::Next(int32_t n) const {
  if (nodes_[n].right != kNil) {
    n = nodes_[n].right;
    while (nodes_[n].left != kNil) n = nodes_[n].left;
    return n;
  }
  int32_t p = nodes_[n].parent;
  while (p != kNil && nodes_[p].right == n) {
    n = p;
    p = nodes_[p].parent;
  }
  return p;
}

// Rotates `x` above its parent, keeping both nodes' max_gap exact.
void SimScheduler::BusyIntervals::RotateUp(int32_t x) {
  int32_t p = nodes_[x].parent;
  int32_t g = nodes_[p].parent;
  int32_t moved;  // the subtree of `x` that changes sides
  if (nodes_[p].left == x) {
    moved = nodes_[x].right;
    nodes_[p].left = moved;
    nodes_[x].right = p;
  } else {
    moved = nodes_[x].left;
    nodes_[p].right = moved;
    nodes_[x].left = p;
  }
  if (moved != kNil) nodes_[moved].parent = p;
  nodes_[p].parent = x;
  nodes_[x].parent = g;
  if (g == kNil) {
    root_ = x;
  } else if (nodes_[g].left == p) {
    nodes_[g].left = x;
  } else {
    nodes_[g].right = x;
  }
  Pull(p);
  Pull(x);
}

// Links a new node between the adjacent nodes `before` and `after` (either
// may be kNil): as the right child of `before` if it has none, else as the
// left child of `after`, which then has none. Then restores heap order.
void SimScheduler::BusyIntervals::InsertNode(SimTime start, SimTime end,
                                             SimTime gap, int32_t before,
                                             int32_t after) {
  int32_t p = kNil;
  bool as_left = false;
  if (before != kNil && nodes_[before].right == kNil) {
    p = before;
  } else if (after != kNil) {
    p = after;
    as_left = true;
  }
  int32_t x = Alloc({start, end, gap, gap, kNil, kNil, p});
  if (p == kNil) {
    root_ = x;
  } else if (as_left) {
    nodes_[p].left = x;
  } else {
    nodes_[p].right = x;
  }
  const uint64_t priority = Priority(start);
  while (nodes_[x].parent != kNil &&
         priority > Priority(nodes_[nodes_[x].parent].start)) {
    RotateUp(x);
  }
  PullUp(nodes_[x].parent);
}

void SimScheduler::BusyIntervals::RemoveNode(int32_t n) {
  while (nodes_[n].left != kNil && nodes_[n].right != kNil) {
    int32_t l = nodes_[n].left;
    int32_t r = nodes_[n].right;
    RotateUp(Priority(nodes_[l].start) > Priority(nodes_[r].start) ? l : r);
  }
  int32_t child = nodes_[n].left != kNil ? nodes_[n].left : nodes_[n].right;
  int32_t p = nodes_[n].parent;
  if (child != kNil) nodes_[child].parent = p;
  if (p == kNil) {
    root_ = child;
  } else if (nodes_[p].left == n) {
    nodes_[p].left = child;
  } else {
    nodes_[p].right = child;
  }
  Free(n);
  PullUp(p);
}

int32_t SimScheduler::BusyIntervals::Alloc(const Node& node) {
  static_assert(sizeof(Node) <= 48,
                "no larger than a std::map<SimTime, SimTime> node");
  if (free_ == kNil) {
    nodes_.push_back(node);
    return static_cast<int32_t>(nodes_.size()) - 1;
  }
  int32_t n = free_;
  free_ = nodes_[n].left;
  nodes_[n] = node;
  return n;
}

void SimScheduler::BusyIntervals::Free(int32_t n) {
  nodes_[n].left = free_;
  free_ = n;
}

void SimScheduler::BusyIntervals::FreeTree(int32_t n) {
  if (n == kNil) return;
  FreeTree(nodes_[n].left);
  FreeTree(nodes_[n].right);
  Free(n);
}

SimScheduler::BusyIntervals::Slot SimScheduler::BusyIntervals::Fit(
    SimTime arrival, SimTime service_us) const {
  // `floor`: the last interval starting at or before `arrival`;
  // `ceil`: the first one starting after it.
  int32_t floor = kNil;
  int32_t ceil = kNil;
  for (int32_t n = root_; n != kNil;) {
    if (nodes_[n].start <= arrival) {
      floor = n;
      n = nodes_[n].right;
    } else {
      ceil = n;
      n = nodes_[n].left;
    }
  }
  int32_t from;
  if (floor != kNil && nodes_[floor].end > arrival) {
    from = floor;  // arrival is busy: fit after `floor`
  } else if (ceil == kNil || nodes_[ceil].start - arrival >= service_us) {
    return {arrival, floor, ceil};
  } else {
    from = ceil;
  }
  int32_t fit = FirstFitFrom(from, service_us);
  return {nodes_[fit].end, fit, Next(fit)};
}

void SimScheduler::BusyIntervals::Insert(const Slot& slot,
                                         SimTime service_us) {
  const SimTime start = slot.start;
  SimTime end = start + service_us;
  const int32_t before = slot.before;
  int32_t after = slot.after;
  SimTime gap = kOpenGap;  // idle time after the new interval
  if (after != kNil) {
    gap = nodes_[after].start - end;
    if (gap == 0) {  // coalesce with the interval starting at `end`
      end = nodes_[after].end;
      gap = nodes_[after].gap;
      int32_t next = Next(after);
      RemoveNode(after);
      after = next;
    }
  }
  if (before != kNil && nodes_[before].end == start) {
    nodes_[before].end = end;  // coalesce with the interval ending at `start`
    SetGap(before, gap);
    return;
  }
  InsertNode(start, end, gap, before, after);
  if (before != kNil) SetGap(before, start - nodes_[before].end);
}

void SimScheduler::BusyIntervals::DropEndingBefore(SimTime floor) {
  // Ends rise with starts, so the intervals to drop are a prefix: all that
  // precede `keep`, the first interval still ending at or after `floor`.
  int32_t keep = kNil;
  for (int32_t n = root_; n != kNil;) {
    if (nodes_[n].end >= floor) {
      keep = n;
      n = nodes_[n].left;
    } else {
      n = nodes_[n].right;
    }
  }
  if (keep == kNil) {
    FreeTree(root_);
    root_ = kNil;
    return;
  }
  // Walk from `keep` to the root. The walk enters an ancestor from its
  // left child when the ancestor follows `keep` (it stays and adopts the
  // kept tree as its left child) and from its right child when the
  // ancestor precedes `keep` (it goes, with its left subtree).
  FreeTree(nodes_[keep].left);
  nodes_[keep].left = kNil;
  Pull(keep);
  int32_t kept = keep;
  for (int32_t child = keep, p = nodes_[keep].parent; p != kNil;) {
    int32_t up = nodes_[p].parent;
    if (nodes_[p].left == child) {
      nodes_[p].left = kept;
      nodes_[kept].parent = p;
      Pull(p);
      kept = p;
    } else {
      FreeTree(nodes_[p].left);
      Free(p);
    }
    child = p;
    p = up;
  }
  nodes_[kept].parent = kNil;
  root_ = kept;
}

void SimScheduler::BusyIntervals::Clear() {
  nodes_.clear();
  root_ = free_ = kNil;
}

int SimScheduler::AddResource() {
  std::lock_guard lock(mu_);
  resources_.emplace_back();
  return static_cast<int>(resources_.size()) - 1;
}

SimTime SimScheduler::Charge(int resource, SimTime arrival,
                             SimTime service_us) {
  std::lock_guard lock(mu_);
  Resource& r = resources_[resource];
  BusyIntervals::Slot slot = r.busy.Fit(arrival, service_us);
  if (service_us > 0) {
    r.busy.Insert(slot, service_us);
    r.busy_total += service_us;
  }
  return slot.start + service_us;
}

SimTime SimScheduler::BusyTime(int resource) const {
  std::lock_guard lock(mu_);
  return resources_[resource].busy_total;
}

void SimScheduler::Trim(SimTime floor) {
  std::lock_guard lock(mu_);
  for (auto& r : resources_) r.busy.DropEndingBefore(floor);
}

void SimScheduler::Reset() {
  std::lock_guard lock(mu_);
  for (auto& r : resources_) {
    r.busy.Clear();
    r.busy_total = 0;
  }
}

}  // namespace ofi
