/// \file bench_exchange_spill.cc
/// \brief Spill-to-disk backpressure on the exchange (EXPERIMENTS.md E18).
/// Sweeps the per-channel in-memory cap over a fixed repartitioned join and
/// records what the cap costs: spilled bytes and segments, wall time
/// (the real disk round trip), and the simulated-latency overhead vs the
/// uncapped run. The lifetime bytes-moved accounting is cap-independent:
/// spilling changes WHERE queued payload waits, never how much traffic
/// exists.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <utility>

#include "cluster/distributed_plan.h"
#include "common/rng.h"

namespace {

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT
using sql::Column;
using sql::Schema;
using sql::TypeId;
using sql::Value;

/// Same fact/dim shape as bench_mpp_join: `rows` orders joined to
/// `dim_rows` customers on customer id, keys uniform.
std::unique_ptr<Cluster> BuildJoinCluster(int dns, int64_t rows,
                                          int64_t dim_rows) {
  auto cluster = std::make_unique<Cluster>(dns, Protocol::kGtmLite);
  Schema orders({Column{"o_id", TypeId::kInt64, ""},
                 Column{"cust", TypeId::kInt64, ""},
                 Column{"amount", TypeId::kInt64, ""}});
  Schema customers({Column{"c_id", TypeId::kInt64, ""},
                    Column{"segment", TypeId::kInt64, ""}});
  (void)cluster->CreateTable("orders", orders);
  (void)cluster->CreateTable("customers", customers);
  Rng rng(41);
  for (int64_t c = 0; c < dim_rows; ++c) {
    Txn t = cluster->Begin(TxnScope::kSingleShard);
    (void)t.Insert("customers", Value(c), {Value(c), Value(rng.Uniform(0, 7))});
    (void)t.Commit();
  }
  for (int64_t o = 0; o < rows; ++o) {
    Txn t = cluster->Begin(TxnScope::kSingleShard);
    (void)t.Insert("orders", Value(o),
                   {Value(o), Value(rng.Uniform(0, dim_rows - 1)),
                    Value(rng.Uniform(1, 1000))});
    (void)t.Commit();
  }
  return cluster;
}

/// SELECT * FROM orders JOIN customers ON cust = c_id, gathered as rows,
/// under a forced join strategy.
DistOpPtr JoinPlan(JoinStrategy strategy) {
  return MakeGather(MakeDistHashJoin(MakeDistScan("orders", nullptr),
                                     MakeDistScan("customers", nullptr), "cust",
                                     "c_id", nullptr, strategy));
}

/// range: dns, channel cap in bytes (0 = uncapped).
void BM_RepartitionJoinUnderCap(benchmark::State& state) {
  int dns = static_cast<int>(state.range(0));
  auto cluster = BuildJoinCluster(dns, 8'000, 8'000);
  DistExecOptions options;
  options.max_channel_bytes = static_cast<size_t>(state.range(1));
  const DistOpPtr plan = JoinPlan(JoinStrategy::kRepartition);
  DistPlanResult last;
  for (auto _ : state) {
    cluster->ResetSimTime();
    auto r = ExecuteDistPlan(cluster.get(), plan, options);
    if (r.ok()) last = std::move(r).ValueOrDie();
    benchmark::DoNotOptimize(last.table);
  }
  const DistExecStats& st = last.stats;
  state.counters["moved_bytes"] =
      static_cast<double>(st.shuffle_bytes + st.broadcast_bytes);
  state.counters["spilled_bytes"] = static_cast<double>(st.spill_bytes);
  state.counters["sim_us"] = static_cast<double>(st.sim_latency_us);
}
BENCHMARK(BM_RepartitionJoinUnderCap)
    ->ArgNames({"dns", "cap"})
    ->Args({4, 0})
    ->Args({4, 1 << 16})
    ->Args({4, 1 << 14})
    ->Args({4, 1 << 12})
    ->Args({4, 1 << 10})
    ->Unit(benchmark::kMillisecond);

/// The E18 headline: capped vs uncapped across cap sizes — spill volume
/// and simulated-latency overhead.
void PrintCapSweepTable() {
  printf("\n=== Exchange spill: repartition join vs channel cap (4 DNs, "
         "8000x8000 rows, ~58B/row encoded) ===\n");
  printf("%-10s %12s %12s %12s %10s\n", "cap (B)", "moved (B)", "spill (B)",
         "sim (us)", "overhead");
  auto cluster = BuildJoinCluster(4, 8'000, 8'000);
  SimTime base_us = 0;
  for (size_t cap : {size_t{0}, size_t{1} << 18, size_t{1} << 16,
                     size_t{1} << 14, size_t{1} << 12, size_t{1} << 10,
                     size_t{64}}) {
    DistExecOptions options;
    options.max_channel_bytes = cap;
    cluster->ResetSimTime();
    auto r = ExecuteDistPlan(cluster.get(),
                             JoinPlan(JoinStrategy::kRepartition), options);
    if (!r.ok()) continue;
    const DistExecStats& st = r->stats;
    if (cap == 0) base_us = st.sim_latency_us;

    char capbuf[24];
    if (cap == 0) {
      snprintf(capbuf, sizeof(capbuf), "unbounded");
    } else {
      snprintf(capbuf, sizeof(capbuf), "%zu", cap);
    }
    printf("%-10s %12zu %12zu %12lld %9.2fx\n", capbuf,
           st.shuffle_bytes + st.broadcast_bytes, st.spill_bytes,
           (long long)st.sim_latency_us,
           base_us == 0 ? 1.0
                        : static_cast<double>(st.sim_latency_us) /
                              static_cast<double>(base_us));
  }
  printf("(the cap trades memory for simulated disk time: results are "
         "bit-identical at every cap, only sim latency grows)\n\n");
}

/// Build-side spooling: the same broadcast join under shrinking per-DN
/// build budgets.
void PrintBuildSpillTable() {
  printf("=== Join build-side spill: broadcast join vs per-DN build budget "
         "(4 DNs, 8000 orders x 256 customers) ===\n");
  printf("%-12s %16s %12s %10s\n", "budget (B)", "build spill (B)", "sim (us)",
         "rows");
  auto cluster = BuildJoinCluster(4, 8'000, 256);
  for (size_t budget : {size_t{0}, size_t{1} << 14, size_t{1} << 12,
                        size_t{1} << 10}) {
    DistExecOptions options;
    options.max_build_bytes = budget;
    cluster->ResetSimTime();
    auto r = ExecuteDistPlan(cluster.get(), JoinPlan(JoinStrategy::kBroadcast),
                             options);
    if (!r.ok()) continue;
    char budbuf[24];
    if (budget == 0) {
      snprintf(budbuf, sizeof(budbuf), "unbounded");
    } else {
      snprintf(budbuf, sizeof(budbuf), "%zu", budget);
    }
    printf("%-12s %16zu %12lld %10zu\n", budbuf, r->stats.build_spill_bytes,
           (long long)r->stats.sim_latency_us, r->table.num_rows());
  }
  printf("(a build partition over budget spools through a spill file and is "
         "re-read at build time — same rows, extra disk charge)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintCapSweepTable();
  PrintBuildSpillTable();
  return 0;
}
