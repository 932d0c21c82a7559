/// \file main.cc
/// \brief perfbench: the repo benchmark. One run = one workload, repeated
/// in rounds of identical fixed work until --seconds is used up. Prints a
/// human-readable report, then one JSON line with the end-to-end metrics
/// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
///
///   perfbench --workload htap_mixed --seed 1 --seconds 55 --trace 0
///             [--smoke] [--spill-dir DIR]
///
/// Exit code 0 only when every correctness check passed.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"read_p50_us", "us"},     {"read_p95_us", "us"},
    {"write_p50_us", "us"},    {"write_p95_us", "us"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics of the traced run. A layer a workload bypasses reads
/// 0 (nothing was called or counted there).
constexpr Metric kPerLayer[] = {
    {"common.sim_charge_us", "us"},
    {"drift.read", "ratio"},
    {"drift.write", "ratio"},
    {"sql.parse_us", "us"},
    {"optimizer.plan_us", "us"},
    {"optimizer.analyze_us", "us"},
    {"cluster.lower_us", "us"},
    {"cluster.exec_us", "us"},
    {"cluster.rows_examined_per_row_out", "ratio"},
    {"cluster.path_index_frac", "ratio"},
    {"cluster.path_columnar_frac", "ratio"},
    {"storage.chunks_scanned", "count"},
    {"storage.chunks_pruned", "count"},
    {"storage.delta_rows", "count"},
    {"storage.merges", "count"},
    {"storage.merge_rows", "count"},
    {"storage.index_rows", "count"},
    {"txn.begin_us", "us"},
    {"txn.read_us", "us"},
    {"txn.write_us", "us"},
    {"txn.commit_us", "us"},
    {"txn.gtm_requests_per_txn", "ratio"},
    {"txn.log_writes_per_txn", "ratio"},
    {"txn.merge_upgrades", "count"},
    {"txn.merge_downgrades", "count"},
    {"traffic.txns_per_group_batch", "ratio"},
    {"exchange.bytes", "bytes"},
    {"exchange.batches", "count"},
    {"exchange.spill_bytes", "bytes"},
    {"model.sim_tps", "1/s"},
    {"model.sim_p50_us", "us"},
    {"model.sim_p99_us", "us"},
    {"env.canary_ms", "ms"},
    {"failed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Span name -> per-layer metric (median self time).
const std::map<std::string, std::string> kSpanMetric = {
    {"sql.parse", "sql.parse_us"},
    {"optimizer.plan", "optimizer.plan_us"},
    {"optimizer.analyze", "optimizer.analyze_us"},
    {"cluster.lower", "cluster.lower_us"},
    {"cluster.exec", "cluster.exec_us"},
    {"txn.begin", "txn.begin_us"},
    {"txn.read", "txn.read_us"},
    {"txn.write", "txn.write_us"},
    {"txn.commit", "txn.commit_us"},
};

const std::map<std::string, std::function<RoundResult(const RunConfig&)>>
    kWorkloads = {
        {"tpcc_traffic", TpccTrafficRound},
        {"sql_point", SqlPointRound},
        {"htap_mixed", HtapMixedRound},
        {"olap_join", OlapJoinRound},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string spill_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--spill-dir") {
      a->spill_dir = v;
    } else {
      return false;
    }
  }
  return kWorkloads.count(a->workload) > 0;
}

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double MedianOf(const std::vector<RoundResult>& rounds,
                const std::function<double(const RoundResult&)>& f) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) v.push_back(f(r));
  return Median(std::move(v));
}

/// End-to-end metrics over `rounds`: each is the median over rounds of the
/// round's own figure (rounds repeat identical work, so a slow phase of the
/// machine that covers fewer than half of them does not move it).
std::map<std::string, double> EndToEnd(const std::vector<RoundResult>& rounds) {
  auto median = [&](const std::function<double(const RoundResult&)>& f) {
    return MedianOf(rounds, f);
  };
  return {
      {"setup_s", median([](const RoundResult& r) { return r.setup_s; })},
      {"ops_per_s", median([](const RoundResult& r) {
         return r.timed_s > 0 ? r.completed / r.timed_s : 0;
       })},
      {"read_p50_us",
       median([](const RoundResult& r) { return Percentile(r.read_us, 50); })},
      {"read_p95_us",
       median([](const RoundResult& r) { return Percentile(r.read_us, 95); })},
      {"write_p50_us",
       median([](const RoundResult& r) { return Percentile(r.write_us, 50); })},
      {"write_p95_us",
       median([](const RoundResult& r) { return Percentile(r.write_us, 95); })},
      {"peak_rss_mb", PeakRssMiB()},
  };
}

double OpSeconds(const RoundResult& r) {
  double us = 0;
  for (double v : r.read_us) us += v;
  for (double v : r.write_us) us += v;
  return us / 1e6;
}

int Run(const Args& args) {
  const auto& round_fn = kWorkloads.at(args.workload);
  const double canary_start = CanaryMillis();
  const auto run_start = Clock::now();
  Tracer tracer;
  RunConfig cfg;
  cfg.seed = args.seed;
  cfg.smoke = args.smoke;
  cfg.spill_dir = args.spill_dir;

  // The traced run first runs one untraced round: the baseline its
  // tracing overhead is measured against.
  std::vector<RoundResult> rounds, baseline;
  if (args.trace) baseline.push_back(round_fn(cfg));
  cfg.tracer = args.trace ? &tracer : nullptr;
  std::map<std::string, std::vector<double>> span_us;
  // Smoke runs do one round; measured runs at least three, so set-up time
  // is a median, then stop before a further round would overrun --seconds.
  const size_t min_rounds = 3;
  for (;;) {
    auto t0 = Clock::now();
    rounds.push_back(round_fn(cfg));
    for (auto& [name, v] : tracer.SelfMicros()) {
      span_us[name].insert(span_us[name].end(), v.begin(), v.end());
    }
    tracer.Clear();
    const double last = SecondsSince(t0);
    if (args.smoke || (rounds.size() >= min_rounds &&
                       SecondsSince(run_start) + last > args.seconds)) {
      break;
    }
  }
  const double canary_end = CanaryMillis();

  uint64_t attempted = 0, failed = 0;
  std::vector<double> failed_frac;
  const std::string& fingerprint = rounds.front().fingerprint;
  for (const auto* set : {&baseline, &rounds}) {
    for (const RoundResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      if (r.fingerprint != fingerprint) {
        ++failed;
        std::fprintf(stderr, "%s: outputs differ between rounds of one seed: "
                     "'%s' vs '%s'\n", args.workload.c_str(),
                     r.fingerprint.c_str(), fingerprint.c_str());
      }
      failed_frac.push_back(r.failed_frac >= 0
                                ? r.failed_frac
                                : static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted));
    }
  }
  if (attempted == 0) attempted = 1;

  std::map<std::string, double> e2e = EndToEnd(rounds);
  const size_t reads = rounds.front().read_us.size();
  const size_t writes = rounds.front().write_us.size();
  std::printf("# perfbench workload=%s seed=%llu trace=%d rounds=%zu "
              "wall_s=%.2f canary_ms start=%.2f end=%.2f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, rounds.size(), SecondsSince(run_start),
              canary_start, canary_end);
  if (!fingerprint.empty()) std::printf("# outputs: %s\n", fingerprint.c_str());
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    std::printf("# round %zu: setup_s=%.4f ops_per_s=%.2f read_p50_us=%.2f "
                "write_p50_us=%.2f\n", i, r.setup_s,
                r.timed_s > 0 ? r.completed / r.timed_s : 0,
                Median(r.read_us), Median(r.write_us));
  }
  std::printf("# end-to-end%s:\n", args.trace ? " (traced rounds)" : "");
  for (const Metric& m : kEndToEnd) {
    const std::string name = m.name;
    std::string n = " rounds=" + std::to_string(rounds.size());
    if (name.rfind("read", 0) == 0) n += " n/round=" + std::to_string(reads);
    if (name.rfind("write", 0) == 0) n += " n/round=" + std::to_string(writes);
    std::printf("%-34s %14.4f %-6s%s\n", m.name, e2e[m.name], m.unit, n.c_str());
  }
  std::printf("%-34s %14.6f %-6s attempted=%llu failed=%llu\n", "failed_frac",
              Median(failed_frac), "ratio",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  std::map<std::string, double> values = e2e;
  const Metric* begin = kEndToEnd;
  const Metric* end = kEndToEnd + std::size(kEndToEnd);
  if (args.trace) {
    std::map<std::string, double> layer;
    std::map<std::string, std::string> range;  // per-round spread
    for (const Metric& m : kPerLayer) layer[m.name] = 0;
    for (const auto& [key, _] : rounds.front().layer) {
      std::vector<double> v;
      for (const RoundResult& r : rounds) {
        auto it = r.layer.find(key);
        v.push_back(it == r.layer.end() ? 0.0 : it->second);
      }
      auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      char buf[96];
      std::snprintf(buf, sizeof(buf), "  rounds: %.4g..%.4g", *lo, *hi);
      range[key] = buf;
      layer[key] = Median(std::move(v));
    }
    std::printf("# span self time (median us, n):\n");
    for (const auto& [name, v] : span_us) {
      std::printf("#   %-30s %12.2f n=%zu\n", name.c_str(), Median(v), v.size());
      auto it = kSpanMetric.find(name);
      if (it != kSpanMetric.end()) layer[it->second] = Median(v);
    }
    layer["drift.read"] = MedianOf(
        rounds, [](const RoundResult& r) { return Drift(r.read_us); });
    layer["drift.write"] = MedianOf(
        rounds, [](const RoundResult& r) { return Drift(r.write_us); });
    layer["env.canary_ms"] = (canary_start + canary_end) / 2;
    layer["failed_frac"] = Median(failed_frac);
    layer["trace.overhead_frac"] =
        MedianOf(rounds, OpSeconds) / OpSeconds(baseline.front()) - 1;
    std::printf("# per-layer:\n");
    for (const Metric& m : kPerLayer) {
      std::printf("%-34s %14.4f %-6s%s\n", m.name, layer[m.name], m.unit,
                  range[m.name].c_str());
    }
    values = layer;
    begin = kPerLayer;
    end = kPerLayer + std::size(kPerLayer);
  }

  std::string json = std::string("{\"correct\": ") +
                     (failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (const Metric* m = begin; m != end; ++m) {
    json += std::string(m == begin ? "" : ", ") + "\"" + m->name +
            "\": {\"value\": " + Num(values[m->name]) + ", \"unit\": \"" +
            m->unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload tpcc_traffic|sql_point|"
                 "htap_mixed|olap_join --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--spill-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
