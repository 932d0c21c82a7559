/// \file bench_exchange_pipeline.cc
/// \brief Experiment E20 — pipelined vs barrier fragment execution across
/// the streaming exchange. A repartition-fused-aggregate join whose left
/// (orders) side is deliberately piled onto one hot producer DN via an
/// application sharder: under barrier execution every consumer waits for
/// the slowest producer's full encode before the first decode starts,
/// while the pipelined scheduler overlaps the hot producer's encode with
/// the idle consumers' decode/probe work, so the cluster-observed simulated
/// latency drops toward max(encode, decode) instead of their sum.
///
/// Sweeps producer skew (0.5 / 0.75 / 0.9 of orders on DN 0), cluster size
/// (2 / 4 DNs) and the exchange channel cap (uncapped / 64 KiB / 8 KiB —
/// capped legs pay their channels' spill I/O in both modes). Every leg
/// executes the same loaded cluster in both modes with the scheduler reset
/// in between, so both start from idle resources at the same clock, and
/// checks the row sequences are bit-identical (the pipelined path's core
/// contract).
///
/// Both modes run the same simulated-time exchange loop
/// (exchange::RunExchange); DistExecOptions::pipeline only picks when its
/// consumers may run. Besides the plain-text tables, the binary writes the
/// sweep as JSON (default `BENCH_exchange_pipeline.json`, override with
/// OFI_BENCH_JSON), including the headline barrier/pipelined speedup at
/// 2 DNs, skew 0.9, default caps. `spill_bytes` is what the pipelined
/// leg's channels spilled, the figure the loop charges.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/distributed_plan.h"
#include "common/rng.h"

namespace {

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT
using sql::Column;
using sql::Schema;
using sql::TypeId;
using sql::Value;

/// Orders are sharded by o_id under an identity sharder (o_id % dns), and
/// o_id values are drawn so ~`skew` of them land on DN 0 — the hot
/// producer. The join key (cust) stays uniform over the customers, so the
/// repartition exchange still spreads rows across every DN.
std::unique_ptr<Cluster> BuildCluster(int dns, int64_t orders,
                                      int64_t customers, double skew) {
  auto cluster = std::make_unique<Cluster>(dns, Protocol::kGtmLite);
  cluster->set_sharder(
      [](const sql::Value& v) { return static_cast<int>(v.AsInt()); });
  Schema orders_schema({Column{"o_id", TypeId::kInt64, ""},
                        Column{"cust", TypeId::kInt64, ""},
                        Column{"amount", TypeId::kInt64, ""}});
  Schema customers_schema({Column{"c_id", TypeId::kInt64, ""},
                           Column{"segment", TypeId::kInt64, ""}});
  (void)cluster->CreateTable("orders", orders_schema);
  (void)cluster->CreateTable("customers", customers_schema);
  Rng rng(20250808);
  for (int64_t c = 0; c < customers; ++c) {
    Txn t = cluster->Begin(TxnScope::kSingleShard);
    (void)t.Insert("customers", Value(c), {Value(c), Value(rng.Uniform(0, 7))});
    (void)t.Commit();
  }
  // Unique o_id per DN: id = slot * dns + dn, with the dn drawn hot-first.
  std::vector<int64_t> next_slot(dns, 0);
  for (int64_t o = 0; o < orders; ++o) {
    int dn = 0;
    if (static_cast<double>(rng.Uniform(0, 9999)) >= skew * 10000.0 &&
        dns > 1) {
      dn = static_cast<int>(rng.Uniform(1, dns - 1));
    }
    int64_t id = next_slot[dn]++ * dns + dn;
    Txn t = cluster->Begin(TxnScope::kSingleShard);
    (void)t.Insert("orders", Value(id),
                   {Value(id), Value(rng.Uniform(0, customers - 1)),
                    Value(rng.Uniform(1, 1000))});
    (void)t.Commit();
  }
  return cluster;
}

/// SELECT segment, SUM(amount), COUNT(*) FROM orders JOIN customers ON
/// cust = c_id GROUP BY segment, forced repartition, partial/final split.
DistOpPtr BuildPlan() {
  std::vector<DistributedAgg> aggs{
      DistributedAgg{sql::AggFunc::kSum, "amount", "total"},
      DistributedAgg{sql::AggFunc::kCount, "", "n"}};
  DistOpPtr core = MakeDistHashJoin(
      MakeDistScan("orders", nullptr), MakeDistScan("customers", nullptr),
      "cust", "c_id", nullptr, JoinStrategy::kRepartition);
  return MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(std::move(core), {"segment"}, aggs)),
      {"segment"}, aggs);
}

std::string Canonical(const sql::Table& t) {
  std::string out;
  for (const auto& row : t.rows()) {
    for (const auto& v : row) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

struct Leg {
  int dns = 0;
  double skew = 0.0;
  int64_t orders = 0;
  size_t cap = 0;
  bool identical = false;
  DistExecStats barrier;
  DistExecStats piped;
  double speedup() const {
    return piped.sim_latency_us > 0
               ? static_cast<double>(barrier.sim_latency_us) /
                     static_cast<double>(piped.sim_latency_us)
               : 0.0;
  }
};

Leg RunOnce(int dns, double skew, int64_t orders, int64_t customers,
            size_t cap) {
  Leg leg;
  leg.dns = dns;
  leg.skew = skew;
  leg.orders = orders;
  leg.cap = cap;
  auto cluster = BuildCluster(dns, orders, customers, skew);
  DistExecOptions opts;
  opts.max_channel_bytes = cap;
  // Both modes run on idle resources at clock 0: without the resets the
  // second execution gap-fits behind the first's (and the load's) busy
  // intervals and the comparison measures queueing, not execution.
  cluster->scheduler().Reset();
  opts.pipeline = false;
  auto barrier = ExecuteDistPlan(cluster.get(), BuildPlan(), opts);
  if (!barrier.ok()) {
    fprintf(stderr, "barrier run failed: %s\n",
            barrier.status().ToString().c_str());
    return leg;
  }
  cluster->scheduler().Reset();
  opts.pipeline = true;
  auto piped = ExecuteDistPlan(cluster.get(), BuildPlan(), opts);
  if (!piped.ok()) {
    fprintf(stderr, "pipelined run failed: %s\n",
            piped.status().ToString().c_str());
    return leg;
  }
  leg.barrier = barrier->stats;
  leg.piped = piped->stats;
  leg.identical = Canonical(barrier->table) == Canonical(piped->table);
  return leg;
}

constexpr int64_t kHeadlineOrders = 32'000;
constexpr int64_t kSweepOrders = 8'000;
constexpr int64_t kCustomers = 200;

Leg RunHeadline() { return RunOnce(2, 0.9, kHeadlineOrders, kCustomers, 0); }

std::vector<Leg> RunSkewSweep() {
  std::vector<Leg> legs;
  for (int dns : {2, 4}) {
    for (double skew : {0.5, 0.75, 0.9}) {
      legs.push_back(RunOnce(dns, skew, kSweepOrders, kCustomers, 0));
    }
  }
  return legs;
}

std::vector<Leg> RunCapSweep() {
  std::vector<Leg> legs;
  for (size_t cap : {size_t{0}, size_t{64} * 1024, size_t{8} * 1024}) {
    legs.push_back(RunOnce(2, 0.9, kSweepOrders, kCustomers, cap));
  }
  return legs;
}

void BM_E20(benchmark::State& state) {
  bool pipelined = state.range(0) != 0;
  auto cluster = BuildCluster(2, kSweepOrders, kCustomers, 0.9);
  DistExecOptions opts;
  opts.pipeline = pipelined;
  DistExecStats last;
  for (auto _ : state) {
    cluster->scheduler().Reset();
    auto r = ExecuteDistPlan(cluster.get(), BuildPlan(), opts);
    if (r.ok()) last = r->stats;
    benchmark::DoNotOptimize(last.sim_latency_us);
  }
  state.counters["sim_us"] = static_cast<double>(last.sim_latency_us);
  state.counters["overlap_us"] = static_cast<double>(last.pipeline_overlap_us);
  state.counters["batches_streamed"] =
      static_cast<double>(last.batches_streamed);
}

void RegisterAll() {
  for (int pipelined : {0, 1}) {
    benchmark::RegisterBenchmark(
        (std::string("E20/skew90/dns:2/") +
         (pipelined ? "pipelined" : "barrier"))
            .c_str(),
        BM_E20)
        ->Args({pipelined})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void PrintLegRow(const Leg& l) {
  printf("%4d %5.2f %8lld %9zu %12lld %12lld %8.2fx %11lld %9zu %5s\n", l.dns,
         l.skew, static_cast<long long>(l.orders), l.cap,
         static_cast<long long>(l.barrier.sim_latency_us),
         static_cast<long long>(l.piped.sim_latency_us), l.speedup(),
         static_cast<long long>(l.piped.pipeline_overlap_us),
         l.piped.batches_streamed, l.identical ? "yes" : "NO");
}

void PrintTables(const Leg& headline, const std::vector<Leg>& skew,
                 const std::vector<Leg>& caps) {
  printf("\n=== E20: pipelined vs barrier exchange "
         "(repartition fused-agg join, hot producer on DN 0) ===\n");
  printf("%4s %5s %8s %9s %12s %12s %9s %11s %9s %5s\n", "dns", "skew",
         "orders", "cap_B", "barrier_us", "piped_us", "speedup", "overlap_us",
         "streamed", "ident");
  printf("-- headline --\n");
  PrintLegRow(headline);
  printf("-- skew sweep --\n");
  for (const Leg& l : skew) PrintLegRow(l);
  printf("-- channel-cap sweep (2 DNs, skew 0.9) --\n");
  for (const Leg& l : caps) PrintLegRow(l);
  printf("(expect: piped_us <= barrier_us on every leg, every leg "
         "bit-identical)\n\n");
}

void EmitLeg(FILE* f, const Leg& l, bool last) {
  fprintf(f,
          "    {\"dns\": %d, \"skew\": %.2f, \"orders\": %lld, "
          "\"cap_bytes\": %zu, \"barrier_us\": %lld, \"pipelined_us\": %lld, "
          "\"speedup\": %.3f, \"overlap_us\": %lld, "
          "\"batches_streamed\": %zu, \"shuffle_bytes\": %zu, "
          "\"spill_bytes\": %zu, \"identical\": %s}%s\n",
          l.dns, l.skew, static_cast<long long>(l.orders), l.cap,
          static_cast<long long>(l.barrier.sim_latency_us),
          static_cast<long long>(l.piped.sim_latency_us), l.speedup(),
          static_cast<long long>(l.piped.pipeline_overlap_us),
          l.piped.batches_streamed, l.piped.shuffle_bytes,
          l.piped.spill_bytes, l.identical ? "true" : "false",
          last ? "" : ",");
}

void WriteJson(const Leg& headline, const std::vector<Leg>& skew,
               const std::vector<Leg>& caps) {
  const char* path = std::getenv("OFI_BENCH_JSON");
  if (path == nullptr) path = "BENCH_exchange_pipeline.json";
  FILE* f = fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fprintf(f, "{\n  \"bench\": \"exchange_pipeline\",\n");
  fprintf(f,
          "  \"config\": {\"protocol\": \"gtm_lite\", \"customers\": %lld, "
          "\"headline_orders\": %lld, \"sweep_orders\": %lld, "
          "\"join\": \"repartition fused-agg orders x customers\"},\n",
          static_cast<long long>(kCustomers),
          static_cast<long long>(kHeadlineOrders),
          static_cast<long long>(kSweepOrders));
  fprintf(f, "  \"speedup_headline\": %.3f,\n", headline.speedup());
  fprintf(f, "  \"headline\": [\n");
  EmitLeg(f, headline, true);
  fprintf(f, "  ],\n  \"skew_sweep\": [\n");
  for (size_t i = 0; i < skew.size(); ++i) {
    EmitLeg(f, skew[i], i + 1 == skew.size());
  }
  fprintf(f, "  ],\n  \"cap_sweep\": [\n");
  for (size_t i = 0; i < caps.size(); ++i) {
    EmitLeg(f, caps[i], i + 1 == caps.size());
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  Leg headline = RunHeadline();
  std::vector<Leg> skew = RunSkewSweep();
  std::vector<Leg> caps = RunCapSweep();
  PrintTables(headline, skew, caps);
  WriteJson(headline, skew, caps);
  return 0;
}
