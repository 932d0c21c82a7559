/// \file harness.h
/// \brief Measurement plumbing shared by every perfbench workload: wall
/// clocks, percentiles, the span tracer of the traced run, the reference
/// canary loop, peak RSS, and the per-round record a workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (0 < p <= 100) of an unsorted sample; 0 when
/// the sample is empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Median latency of the last tenth of `ops` divided by that of the first
/// tenth (1.0 = flat; > 1 = per-op cost grows with session history). 0 when
/// there are fewer than 20 samples.
double Drift(const std::vector<double>& ops);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMiB();

/// A fixed reference loop (hash-map inserts and lookups over a seeded key
/// stream), timed in milliseconds. Run at the start and the end of every
/// benchmark run so a slow phase of the machine shows beside the numbers.
double CanaryMillis();

/// \brief In-memory span recorder for the traced run. Spans nest by call
/// order on one thread; a span's self time is its duration minus the time
/// its direct children cover.
class Tracer {
 public:
  /// RAII span: records [construction, destruction) under `name`. A null
  /// tracer makes the span free (the untraced run).
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  /// Self time of every recorded span, grouped by span name, in µs.
  std::map<std::string, std::vector<double>> SelfMicros() const;
  void Clear() { spans_.clear(); }

 private:
  struct Record {
    const char* name;
    Clock::time_point start, end;
    int64_t parent;  // index into spans_, -1 = root
    double child_us = 0;
  };
  std::vector<Record> spans_;
  int64_t open_ = -1;  // innermost open span
};

/// What one round of a workload measured: one fresh setup followed by the
/// workload's fixed, seeded operation list.
struct RoundResult {
  double setup_s = 0;
  /// Operations completed in the timed phase and the wall seconds they took
  /// (ops_per_s = completed / timed_s).
  double completed = 0;
  double timed_s = 0;
  /// Wall latency of each read / write operation, in list order.
  std::vector<double> read_us, write_us;
  uint64_t attempted = 0;
  /// Operations that errored or returned a wrong result, plus failed
  /// invariant checks.
  uint64_t failed = 0;
  /// Workload-defined failure ratio when it differs from failed/attempted
  /// (tpcc_traffic: aborted + shed over attempted transactions); < 0 = use
  /// failed / attempted.
  double failed_frac = -1;
  /// Per-layer counts and ratios measured in this round (traced run).
  std::map<std::string, double> layer;
  /// Outputs that must repeat exactly for a seed (empty = none); every
  /// round of a run must produce the same fingerprint.
  std::string fingerprint;
};

/// Settings a workload receives from the command line.
struct RunConfig {
  uint64_t seed = 1;
  bool smoke = false;      // minimum sizes: every path once, quickly
  Tracer* tracer = nullptr;  // non-null in the traced rounds
  std::string spill_dir;   // exchange spill files (olap_join)
};

}  // namespace perfbench
