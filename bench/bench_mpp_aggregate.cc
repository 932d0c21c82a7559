/// \file bench_mpp_aggregate.cc
/// \brief The MPP execution claim of paper Fig. 1: distributed aggregation
/// with partial/final decomposition ships only group-sized state to the
/// coordinator. Reports bytes moved (partial vs naive ship-all-rows) and
/// wall time across cluster sizes and group cardinalities.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/distributed_plan.h"
#include "common/rng.h"

namespace {

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT
using sql::AggFunc;
using sql::Column;
using sql::Schema;
using sql::TypeId;
using sql::Value;

std::unique_ptr<Cluster> BuildSalesCluster(int dns, int64_t rows,
                                           int64_t groups) {
  auto cluster = std::make_unique<Cluster>(dns, Protocol::kGtmLite);
  Schema schema({Column{"k", TypeId::kInt64, ""},
                 Column{"region", TypeId::kInt64, ""},
                 Column{"amount", TypeId::kInt64, ""}});
  (void)cluster->CreateTable("sales", schema);
  Rng rng(3);
  for (int64_t i = 0; i < rows; ++i) {
    Txn t = cluster->Begin(TxnScope::kSingleShard);
    (void)t.Insert("sales", Value(i),
                   {Value(i), Value(i % groups), Value(rng.Uniform(1, 1000))});
    (void)t.Commit();
  }
  return cluster;
}

/// SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region: scan ->
/// fused partial agg -> gather partials -> final agg at the CN.
DistOpPtr GroupByRegionPlan() {
  std::vector<std::string> group_by = {"region"};
  std::vector<DistributedAgg> aggs = {{AggFunc::kSum, "amount", "total"},
                                      {AggFunc::kCount, "", "n"}};
  return MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(MakeDistScan("sales", nullptr), group_by,
                                    aggs)),
      group_by, aggs);
}

/// range(2): 0 = serial inline scatter, 1 = thread-pool scatter.
void BM_DistributedGroupBy(benchmark::State& state) {
  int dns = static_cast<int>(state.range(0));
  int64_t groups = state.range(1);
  DistExecOptions options;
  options.parallel = state.range(2) != 0;
  auto cluster = BuildSalesCluster(dns, 20'000, groups);
  const DistOpPtr plan = GroupByRegionPlan();
  DistPlanResult last;
  for (auto _ : state) {
    auto r = ExecuteDistPlan(cluster.get(), plan, options);
    if (r.ok()) last = std::move(r).ValueOrDie();
    benchmark::DoNotOptimize(last.table);
  }
  state.counters["partial_bytes"] =
      static_cast<double>(last.stats.partial_bytes);
  state.counters["naive_bytes"] = static_cast<double>(last.stats.naive_bytes);
  state.counters["sim_us"] = static_cast<double>(last.stats.sim_latency_us);
}
BENCHMARK(BM_DistributedGroupBy)
    ->ArgNames({"dns", "groups", "pool"})
    ->Args({1, 10, 0})
    ->Args({1, 10, 1})
    ->Args({2, 10, 0})
    ->Args({2, 10, 1})
    ->Args({4, 10, 0})
    ->Args({4, 10, 1})
    ->Args({8, 10, 0})
    ->Args({8, 10, 1})
    ->Args({4, 1000, 1})
    ->Unit(benchmark::kMillisecond);

void PrintMovementTable() {
  printf("\n=== MPP partial/final aggregation: data moved DN -> CN ===\n");
  printf("%-6s %-8s %14s %14s %10s\n", "DNs", "groups", "partial (B)",
         "ship-rows (B)", "saving");
  for (auto [dns, groups] : {std::pair<int, int64_t>{2, 10},
                             {4, 10},
                             {8, 10},
                             {4, 1000},
                             {4, 10000}}) {
    auto cluster = BuildSalesCluster(dns, 20'000, groups);
    auto r = ExecuteDistPlan(cluster.get(), GroupByRegionPlan());
    if (!r.ok()) continue;
    const DistExecStats& st = r->stats;
    printf("%-6d %-8lld %14zu %14zu %9.0fx\n", dns, (long long)groups,
           st.partial_bytes, st.naive_bytes,
           static_cast<double>(st.naive_bytes) /
               static_cast<double>(std::max<size_t>(1, st.partial_bytes)));
  }
  printf("(partial state grows with groups x shards, never with row count — "
         "the reason MPP engines push aggregation below the exchange)\n\n");
}

/// Serial-vs-parallel scatter: wall clock (thread pool) and simulated
/// max-over-DNs latency at 1/2/4/8 DNs.
void PrintScatterTable() {
  printf("=== MPP scatter: serial vs thread-pool, wall + simulated ===\n");
  printf("%-4s %12s %12s %8s %12s\n", "DNs", "serial (ms)", "pool (ms)",
         "speedup", "sim par (us)");
  for (int dns : {1, 2, 4, 8}) {
    auto cluster = BuildSalesCluster(dns, 40'000, 10);
    auto time_run = [&](bool parallel) {
      DistExecOptions options;
      options.parallel = parallel;
      const DistOpPtr plan = GroupByRegionPlan();
      cluster->ResetSimTime();
      auto t0 = std::chrono::steady_clock::now();
      auto r = ExecuteDistPlan(cluster.get(), plan, options);
      auto t1 = std::chrono::steady_clock::now();
      double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      return std::pair<double, DistPlanResult>(
          ms, r.ok() ? std::move(r).ValueOrDie() : DistPlanResult{});
    };
    (void)time_run(true);  // warm-up: touch every shard before timing
    auto [serial_ms, serial_r] = time_run(false);
    auto [pool_ms, pool_r] = time_run(true);
    (void)serial_r;
    printf("%-4d %12.2f %12.2f %7.2fx %12lld\n", dns, serial_ms, pool_ms,
           serial_ms / std::max(pool_ms, 1e-9),
           (long long)pool_r.stats.sim_latency_us);
  }
  printf("(wall-clock speedup needs a multi-core host; simulated latency is "
         "deterministic: max-over-DNs stays ~flat in N)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintMovementTable();
  PrintScatterTable();
  return 0;
}
