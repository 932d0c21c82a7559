/// \file bench_column_groupby.cc
/// \brief Experiment E17 — vectorized grouped aggregation. Two layers:
///
///  * storage: the GroupedAggregate hash kernel vs the old fallback
///    (materialize every row, then the row executor's partial aggregate),
///    serial vs morsel-parallel — the kernel touches only the referenced
///    columns and never builds a sql::Row;
///  * distributed: the same GROUP BY plan over a simulated 4-DN and 8-DN
///    cluster, grouped kernel vs forced materialize vs pure row path,
///    reported in simulated microseconds and column-chunks scanned.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <optional>

#include "cluster/distributed_plan.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sql/executor.h"
#include "storage/column_store.h"

namespace {

using namespace ofi;  // NOLINT
using sql::AggFunc;
using sql::Column;
using sql::Schema;
using sql::TypeId;
using sql::Value;

constexpr int64_t kRows = 1'000'000;
constexpr int64_t kGroups = 200;

/// Three columns so the materializing fallback pays for one more column
/// than the kernel (which reads only g and v).
Schema GroupSchema() {
  return Schema({Column{"g", TypeId::kInt64, ""},
                 Column{"v", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kInt64, ""}});
}

storage::ColumnTable BuildTable() {
  storage::ColumnTable t(GroupSchema());
  Rng rng(17);
  for (int64_t i = 0; i < kRows; ++i) {
    (void)t.Append({Value(rng.Uniform(0, kGroups - 1)),
                    Value(rng.Uniform(1, 1000)), Value(i)});
  }
  t.Seal();
  return t;
}

std::vector<storage::GroupedAggSpec> KernelAggs() {
  return {{storage::GroupedAggOp::kCountStar, ""},
          {storage::GroupedAggOp::kSum, "v"}};
}

/// The executor-shaped fallback the kernel replaces: decode every selected
/// row into sql::Rows, then run the ordinary partial aggregate over them.
void MaterializeAndRowAgg(const storage::ColumnTable& t,
                          const std::vector<uint32_t>& all,
                          storage::ScanStats* stats = nullptr) {
  auto rows = t.MaterializeRows(all, stats);
  sql::Catalog catalog;
  catalog.Register("shard", sql::Table(t.schema(), std::move(*rows)));
  std::vector<sql::AggSpec> specs;
  specs.push_back(sql::AggSpec{AggFunc::kCount, nullptr, "n"});
  specs.push_back(sql::AggSpec{AggFunc::kSum, sql::Expr::ColumnRef("v"), "s"});
  sql::PlanPtr plan =
      sql::MakeAggregate(sql::MakeScan("shard"), {"g"}, std::move(specs));
  sql::Executor exec(&catalog);
  benchmark::DoNotOptimize(exec.Execute(plan));
}

void BM_GroupedKernelSerial(benchmark::State& state) {
  storage::ColumnTable t = BuildTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.GroupedAggregate({"g"}, KernelAggs()));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GroupedKernelSerial)->Unit(benchmark::kMillisecond);

void BM_GroupedKernelMorselParallel(benchmark::State& state) {
  storage::ColumnTable t = BuildTable();
  storage::ScanOptions opts;
  opts.parallel = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.GroupedAggregate({"g"}, KernelAggs(), nullptr, opts));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GroupedKernelMorselParallel)->Unit(benchmark::kMillisecond);

void BM_MaterializeRowAgg(benchmark::State& state) {
  storage::ColumnTable t = BuildTable();
  std::vector<uint32_t> all(t.sealed_rows());
  std::iota(all.begin(), all.end(), 0u);
  for (auto _ : state) MaterializeAndRowAgg(t, all);
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_MaterializeRowAgg)->Unit(benchmark::kMillisecond);

// --- Distributed layer -------------------------------------------------------

constexpr int64_t kClusterRows = 40'000;

cluster::Cluster* BuildCluster(int dns) {
  auto* c = new cluster::Cluster(dns, cluster::Protocol::kGtmLite);
  Schema schema({Column{"id", TypeId::kInt64, ""},
                 Column{"g", TypeId::kInt64, ""},
                 Column{"v", TypeId::kInt64, ""}});
  (void)c->CreateTable("sales", schema);
  Rng rng(29);
  for (int64_t i = 0; i < kClusterRows; ++i) {
    cluster::Txn t = c->Begin(cluster::TxnScope::kSingleShard);
    (void)t.Insert("sales", Value(i),
                   {Value(i), Value(rng.Uniform(0, kGroups - 1)),
                    Value(rng.Uniform(1, 1000))});
    (void)t.Commit();
  }
  (void)c->RegisterColumnar("sales");
  return c;
}

cluster::DistOpPtr GroupByPlan(cluster::ScanPath path) {
  std::vector<cluster::DistributedAgg> aggs{{AggFunc::kCount, "", "n"},
                                            {AggFunc::kSum, "v", "s"}};
  return cluster::MakeDistFinalAgg(
      cluster::MakeGather(
          cluster::MakeDistPartialAgg(
              cluster::MakeDistScan("sales", nullptr, path), {"g"}, aggs)),
      {"g"}, aggs);
}

struct DistProbe {
  long long sim_us = 0;
  size_t chunks = 0;
  size_t rows_decoded = 0;
  double wall_ms = 0;
};

DistProbe RunDist(cluster::Cluster* c, cluster::ScanPath path,
                  bool force_materialize) {
  cluster::DistExecOptions opts;
  std::optional<cluster::ForceColumnarMaterializeForTesting> force;
  if (force_materialize) force.emplace();
  auto t0 = std::chrono::steady_clock::now();
  auto res = cluster::ExecuteDistPlan(c, GroupByPlan(path), opts);
  DistProbe p;
  p.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  if (res.ok()) {
    p.sim_us = static_cast<long long>(res->stats.sim_latency_us);
    p.chunks = res->stats.scan_stats.chunks_scanned;
    p.rows_decoded = res->stats.scan_stats.rows_decoded;
  }
  return p;
}

void PrintSummary() {
  printf("\n=== E17: vectorized grouped aggregation ===\n");
  storage::ColumnTable t = BuildTable();
  std::vector<uint32_t> all(t.sealed_rows());
  std::iota(all.begin(), all.end(), 0u);

  storage::ScanStats kstats;
  auto time_it = [](auto&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  double kernel_ms = time_it(
      [&] { (void)t.GroupedAggregate({"g"}, KernelAggs(), nullptr, {}, &kstats); });
  storage::ScanOptions par;
  par.parallel = true;
  double morsel_ms =
      time_it([&] { (void)t.GroupedAggregate({"g"}, KernelAggs(), nullptr, par); });
  storage::ScanStats mstats;
  double mat_ms = time_it([&] { MaterializeAndRowAgg(t, all, &mstats); });
  printf("storage (%lld rows, %lld groups):\n", (long long)kRows,
         (long long)kGroups);
  printf("  grouped kernel      %8.2f ms  (%zu column-chunks)\n", kernel_ms,
         kstats.chunks_scanned);
  printf("  kernel morsel-par   %8.2f ms  (%.1fx, %d workers)\n", morsel_ms,
         kernel_ms / std::max(morsel_ms, 0.01),
         common::ThreadPool::Shared().num_threads());
  printf("  materialize+rowagg  %8.2f ms  (%zu column-chunks, %.1fx slower)\n",
         mat_ms, mstats.chunks_scanned, mat_ms / std::max(kernel_ms, 0.01));

  printf("distributed GROUP BY (%lld rows):\n", (long long)kClusterRows);
  for (int dns : {4, 8}) {
    cluster::Cluster* c = BuildCluster(dns);
    DistProbe kernel = RunDist(c, cluster::ScanPath::kColumnar, false);
    DistProbe mat = RunDist(c, cluster::ScanPath::kColumnar, true);
    DistProbe row = RunDist(c, cluster::ScanPath::kRow, false);
    // The absolute sim time includes draining the load phase's insert
    // queue (shared per-DN resource); the paths differ only in the scan
    // statements, so report the delta against the kernel run.
    printf("  %d DNs  grouped-kernel sim=%6lld us chunks=%3zu decoded=%7zu\n",
           dns, kernel.sim_us, kernel.chunks, kernel.rows_decoded);
    printf("  %d DNs  materialize    sim=%6lld us chunks=%3zu decoded=%7zu "
           "(+%lld us)\n",
           dns, mat.sim_us, mat.chunks, mat.rows_decoded,
           mat.sim_us - kernel.sim_us);
    printf("  %d DNs  row path       sim=%6lld us (+%lld us)\n", dns,
           row.sim_us, row.sim_us - kernel.sim_us);
    delete c;
  }
  printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintSummary();
  return 0;
}
