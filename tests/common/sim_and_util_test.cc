#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/sim_clock.h"

namespace ofi {
namespace {

TEST(SimSchedulerTest, SerializedResourceQueues) {
  SimScheduler sched;
  int r = sched.AddResource();
  EXPECT_EQ(sched.Charge(r, 0, 100), 100);
  EXPECT_EQ(sched.Charge(r, 0, 100), 200);   // queues behind the first
  EXPECT_EQ(sched.Charge(r, 500, 100), 600); // idle gap, starts at arrival
}

TEST(SimSchedulerTest, GapFittingBackfillsIdleTime) {
  SimScheduler sched;
  int r = sched.AddResource();
  // A future charge first (out-of-order issue)...
  EXPECT_EQ(sched.Charge(r, 10'000, 100), 10'100);
  // ...must not starve an earlier arrival: it backfills the idle prefix.
  EXPECT_EQ(sched.Charge(r, 0, 100), 100);
  // A long job that doesn't fit before the reserved interval slides past it.
  EXPECT_EQ(sched.Charge(r, 200, 9'900), 20'000);
}

TEST(SimSchedulerTest, ExactGapFits) {
  SimScheduler sched;
  int r = sched.AddResource();
  sched.Charge(r, 0, 100);     // [0,100)
  sched.Charge(r, 300, 100);   // [300,400)
  EXPECT_EQ(sched.Charge(r, 100, 200), 300);  // exactly fills [100,300)
}

TEST(SimSchedulerTest, BusyTimeAndTrim) {
  SimScheduler sched;
  int r = sched.AddResource();
  sched.Charge(r, 0, 50);
  sched.Charge(r, 100, 50);
  EXPECT_EQ(sched.BusyTime(r), 100);
  sched.Trim(75);
  EXPECT_EQ(sched.BusyTime(r), 100);  // trimmed work still counted
  sched.Reset();
  EXPECT_EQ(sched.BusyTime(r), 0);
}

TEST(SimSchedulerTest, IndependentResources) {
  SimScheduler sched;
  int a = sched.AddResource();
  int b = sched.AddResource();
  EXPECT_EQ(sched.Charge(a, 0, 100), 100);
  EXPECT_EQ(sched.Charge(b, 0, 100), 100);  // no cross-resource queueing
}

TEST(SimSchedulerTest, ZeroServiceChargeRecordsNothing) {
  SimScheduler sched;
  int r = sched.AddResource();
  EXPECT_EQ(sched.Charge(r, 500, 0), 500);  // idle: returns the arrival
  EXPECT_EQ(sched.BusyTime(r), 0);
  EXPECT_EQ(sched.Charge(r, 500, 100), 600);
  EXPECT_EQ(sched.Charge(r, 500, 100), 700);
  EXPECT_EQ(sched.BusyTime(r), 200);
  // Inside a busy stretch: the first idle instant after it.
  EXPECT_EQ(sched.Charge(r, 550, 0), 700);
  EXPECT_EQ(sched.Charge(r, 700, 0), 700);
  EXPECT_EQ(sched.BusyTime(r), 200);
}

TEST(SimSchedulerTest, ChargeOrderMattersWithinOneResource) {
  auto run = [](bool long_first) {
    SimScheduler sched;
    int r = sched.AddResource();
    sched.Charge(r, 0, 100);    // [0,100)
    sched.Charge(r, 200, 100);  // [200,300): leaves the gap [100,200)
    SimTime long_done = 0, short_done = 0;
    if (long_first) {
      long_done = sched.Charge(r, 100, 100);
      short_done = sched.Charge(r, 150, 50);
    } else {
      short_done = sched.Charge(r, 150, 50);
      long_done = sched.Charge(r, 100, 100);
    }
    return std::pair{long_done, short_done};
  };
  using Done = std::pair<SimTime, SimTime>;  // (long, short) completions
  EXPECT_EQ(run(true), Done(200, 350));
  EXPECT_EQ(run(false), Done(400, 200));
}

TEST(SimSchedulerTest, ConcurrentUnitChargesFillEveryInstantOnce) {
  // Background merges charge one DN from several threads at once.
  SimScheduler sched;
  int r = sched.AddResource();
  constexpr int kThreads = 4, kCharges = 1000;
  std::vector<std::vector<SimTime>> done(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCharges; ++i) {
        done[t].push_back(sched.Charge(r, 0, 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<SimTime> all;
  for (const auto& d : done) all.insert(all.end(), d.begin(), d.end());
  std::sort(all.begin(), all.end());
  std::vector<SimTime> want(kThreads * kCharges);
  std::iota(want.begin(), want.end(), 1);
  EXPECT_EQ(all, want);
  EXPECT_EQ(sched.BusyTime(r), kThreads * kCharges);
}

/// The linear-slide scheduler SimScheduler used to be: one std::map of
/// uncoalesced intervals per resource, walked from the arrival. Kept here
/// as the reference its O(log n) first-fit must agree with.
class LinearSlideScheduler {
 public:
  explicit LinearSlideScheduler(int resources) : resources_(resources) {}

  SimTime Charge(int resource, SimTime arrival, SimTime service_us) {
    auto& busy = resources_[resource].busy;
    SimTime t = arrival;
    auto it = busy.upper_bound(t);
    if (it != busy.begin()) {
      auto prev = std::prev(it);
      if (prev->second > t) t = prev->second;
    }
    while (it != busy.end() && it->first < t + service_us) {
      t = it->second;
      ++it;
    }
    busy.emplace(t, t + service_us);
    return t + service_us;
  }

  SimTime BusyTime(int resource) const {
    SimTime total = 0;
    for (const auto& [start, end] : resources_[resource].busy) {
      total += end - start;
    }
    return total + resources_[resource].trimmed_busy;
  }

  void Trim(SimTime floor) {
    for (auto& r : resources_) {
      auto it = r.busy.begin();
      while (it != r.busy.end() && it->second < floor) {
        r.trimmed_busy += it->second - it->first;
        it = r.busy.erase(it);
      }
    }
  }

  /// Idle gaps [start, end) of `resource` between intervals, at or after
  /// `floor`.
  std::vector<std::pair<SimTime, SimTime>> Gaps(int resource,
                                                SimTime floor) const {
    std::vector<std::pair<SimTime, SimTime>> gaps;
    const auto& busy = resources_[resource].busy;
    for (auto it = busy.begin(); it != busy.end(); ++it) {
      auto next = std::next(it);
      if (next == busy.end()) break;
      if (it->second >= floor && next->first > it->second) {
        gaps.emplace_back(it->second, next->first);
      }
    }
    return gaps;
  }

 private:
  struct Resource {
    std::map<SimTime, SimTime> busy;
    SimTime trimmed_busy = 0;
  };
  std::vector<Resource> resources_;
};

TEST(SimSchedulerTest, MatchesTheLinearSlideOnRandomSequences) {
  constexpr int kResources = 3;
  constexpr int kSeeds = 10, kChargesPerSeed = 10'000;
  // Trims start after this many charges, so the first stretch of every
  // seed piles its history up at arrival 0.
  constexpr int kUntrimmedPrefix = 2'000;
  constexpr SimTime kDecades[] = {10, 100, 1'000, 10'000};
  int64_t exact_fits = 0, at_floor = 0, past_every_gap = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    SimScheduler sched;
    for (int i = 0; i < kResources; ++i) sched.AddResource();
    LinearSlideScheduler oracle(kResources);
    std::vector<SimTime> last_done(kResources, 0);
    SimTime floor = 0, horizon = 0;
    for (int i = 0; i < kChargesPerSeed; ++i) {
      int r = static_cast<int>(rng.Uniform(0, kResources - 1));
      // 1 µs to 10 ms, spread over four decades.
      SimTime service = rng.Uniform(1, kDecades[rng.Uniform(0, 3)]);
      SimTime arrival = floor;
      switch (rng.Uniform(0, 9)) {
        case 0: case 1: case 2: case 3:  // at the floor, as Begin arrives at 0
          ++at_floor;
          break;
        case 4: case 5:  // abutting this resource's last completion
          arrival = std::max(floor, last_done[r]);
          break;
        case 6: case 7:
          arrival = floor + rng.Uniform(0, horizon - floor + 1'000);
          break;
        case 8: {  // longer than every gap: only the open end fits
          SimTime longest = 0;
          for (auto [start, end] : oracle.Gaps(r, floor)) {
            longest = std::max(longest, end - start);
          }
          service = longest + 1;
          ++past_every_gap;
          break;
        }
        default: {  // exactly fills an idle gap, or misses it by 1 µs
          auto gaps = oracle.Gaps(r, floor);
          if (gaps.empty()) break;
          auto [start, end] =
              gaps[rng.Uniform(0, static_cast<int64_t>(gaps.size()) - 1)];
          // Arriving at the gap, or at the floor so that the first fit is
          // searched for across the intervals before it.
          if (rng.Chance(0.5)) arrival = start;
          service = std::max<SimTime>(1, end - start + rng.Uniform(-1, 1));
          ++exact_fits;
        }
      }
      SimTime want = oracle.Charge(r, arrival, service);
      ASSERT_EQ(sched.Charge(r, arrival, service), want)
          << "seed " << seed << " charge " << i << ": resource " << r
          << " arrival " << arrival << " service " << service;
      last_done[r] = want;
      horizon = std::max(horizon, want);
      if (i % 16 == 0) {
        ASSERT_EQ(sched.BusyTime(r), oracle.BusyTime(r))
            << "seed " << seed << " charge " << i;
      }
      if (i >= kUntrimmedPrefix && rng.Uniform(0, 249) == 0) {
        floor += (horizon - floor) * rng.Uniform(0, 90) / 100;
        sched.Trim(floor);
        oracle.Trim(floor);
      }
    }
    for (int r = 0; r < kResources; ++r) {
      ASSERT_EQ(sched.BusyTime(r), oracle.BusyTime(r)) << "seed " << seed;
    }
  }
  // The generator really produced the shapes it is meant to cover.
  EXPECT_GT(exact_fits, kSeeds * kChargesPerSeed / 50);
  EXPECT_GT(past_every_gap, kSeeds * kChargesPerSeed / 20);
  EXPECT_GT(at_floor, kSeeds * kChargesPerSeed / 4);
}

TEST(RngTest, DeterministicAndUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng r(7);
  int64_t lo = 100, hi = 0;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = r.Uniform(0, 99);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 99);
}

TEST(RngTest, NURandStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NURand(1023, 0, 2999);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 2999);
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.Chance(0.1);
  EXPECT_NEAR(hits / 100'000.0, 0.1, 0.01);
}

TEST(ZipfianTest, SkewsTowardLowRanks) {
  Zipfian z(1000, 0.99, 3);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100'000; ++i) {
    uint64_t v = z.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 must dominate the tail decisively.
  EXPECT_GT(counts[0], counts[500] * 10);
  EXPECT_GT(counts[0] + counts[1] + counts[2], 100'000 / 10);
}

TEST(LatencyHistogramTest, PercentilesAndMerge) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(h.Mean(), 500.5, 0.1);
  // Bucketed percentiles are approximate: within a bucket width.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500, 150);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 990, 300);

  LatencyHistogram other;
  other.Record(5000);
  h.Merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_EQ(h.max(), 5000);
}

TEST(LatencyHistogramTest, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(99), 0);
  h.Record(10);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistryTest, CountersAndHistograms) {
  MetricsRegistry m;
  m.Add("txn.commit");
  m.Add("txn.commit", 4);
  EXPECT_EQ(m.Get("txn.commit"), 5);
  EXPECT_EQ(m.Get("unknown"), 0);
  m.Histogram("lat").Record(100);
  EXPECT_EQ(m.Histogram("lat").count(), 1u);
  m.Reset();
  EXPECT_EQ(m.Get("txn.commit"), 0);
}

}  // namespace
}  // namespace ofi
