#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Drift(const std::vector<double>& ops) {
  if (ops.size() < 20) return 0;
  const size_t tenth = ops.size() / 10;
  std::vector<double> first(ops.begin(), ops.begin() + tenth);
  std::vector<double> last(ops.end() - tenth, ops.end());
  double base = Median(first);
  return base > 0 ? Median(last) / base : 0;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CanaryMillis() {
  static bool warm = false;
  if (!warm) {  // the first pass pays page faults and cold caches
    warm = true;
    CanaryMillis();
  }
  auto t0 = Clock::now();
  std::unordered_map<uint64_t, uint64_t> map;
  uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map[x % 100000] += i;
    sum += map.count((x >> 20) % 100000);
  }
  double ms = MicrosSince(t0) / 1000.0;
  // Keep the loop observable so it cannot be optimized away.
  if (sum == 0xFFFFFFFFFFFFFFFFULL) ms += 1;
  return ms;
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(Record{name, Clock::now(), {}, tracer_->open_});
  tracer_->open_ = static_cast<int64_t>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& r = tracer_->spans_[index_];
  r.end = Clock::now();
  tracer_->open_ = r.parent;
  if (r.parent >= 0) {
    tracer_->spans_[static_cast<size_t>(r.parent)].child_us +=
        std::chrono::duration<double, std::micro>(r.end - r.start).count();
  }
}

std::map<std::string, std::vector<double>> Tracer::SelfMicros() const {
  std::map<std::string, std::vector<double>> out;
  for (const Record& r : spans_) {
    double total =
        std::chrono::duration<double, std::micro>(r.end - r.start).count();
    out[r.name].push_back(total - r.child_us);
  }
  return out;
}

}  // namespace perfbench
