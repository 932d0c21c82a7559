/// \file bench_htap_freshness.cc
/// \brief Experiment E21 — HTAP freshness cost: what a columnar scan pays
/// to see the freshest committed data, swept over write rate and merge
/// threshold. Three strategies over the same write-then-scan stream:
///
///   delta    — the shipped design: scans union sealed kernels with the
///              row-format delta tail; background merges (threshold T)
///              compact the tail OFF the query critical path.
///   rebuild  — the pre-delta-store alternative: re-encode the whole shard
///              before every query (modelled as a force-merge plus a full
///              re-encode charge on each DN, queued ahead of the scan).
///   row      — the old stale-fallback: give up on columnar and scan the
///              MVCC heap (flat per-statement DN charge, no kernels, no
///              zone maps).
///
/// Every strategy returns bit-identical results (checked); the sweep is
/// purely about the simulated critical path. Expected shape: delta pays a
/// small per-query tail term that grows with writes-per-query and is
/// capped by the merge threshold; rebuild pays the full re-encode on every
/// query; row pays the heap-scan statement cost. Delta wins across the
/// sweep — the reason the delta store exists.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/distributed_plan.h"
#include "common/rng.h"

namespace {

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT
using sql::AggFunc;
using sql::Column;
using sql::Expr;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

constexpr int kDns = 4;
constexpr int64_t kBaseRows = 20000;
constexpr int kQueries = 40;

struct Leg {
  const char* strategy;
  int writes_per_query;
  size_t merge_threshold;  // 0 = not applicable
  double mean_scan_us = 0;
  long long max_scan_us = 0;
  double mean_delta_rows = 0;
  long long merges = 0;
  long long merge_rows = 0;
  long long count = 0;  // final COUNT(*) — cross-strategy sanity anchor
};

void LoadBase(Cluster* cluster, int64_t* next_key) {
  Rng rng(404);
  for (int64_t base = 0; base < kBaseRows; base += 1000) {
    Txn t = cluster->Begin(TxnScope::kMultiShard);
    for (int64_t i = base; i < base + 1000; ++i) {
      Row row = {Value(i), Value(i % 5), Value(rng.Uniform(1, 1000))};
      if (!t.Insert("sales", row[0], row).ok()) std::abort();
    }
    if (!t.Commit().ok()) std::abort();
  }
  *next_key = kBaseRows;
}

/// Global `aggs` over sales [WHERE filter]: scan -> fused partial agg ->
/// gather partials -> final agg at the CN.
DistOpPtr SalesAggPlan(sql::ExprPtr filter, std::vector<DistributedAgg> aggs,
                       ScanPath path = ScanPath::kColumnar) {
  return MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(
                     MakeDistScan("sales", std::move(filter), path), {}, aggs)),
      {}, aggs);
}

/// The measured query: COUNT + SUM(amount) WHERE amount > 500.
DistOpPtr ScanQueryPlan(ScanPath path = ScanPath::kColumnar) {
  return SalesAggPlan(Expr::Gt("amount", Value(int64_t{500})),
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "amount", "s"}},
                      path);
}

Leg RunLeg(const char* strategy, int writes_per_query,
           size_t merge_threshold) {
  Cluster cluster(kDns, Protocol::kGtmLite);
  Schema schema({Column{"k", TypeId::kInt64, ""},
                 Column{"region", TypeId::kInt64, ""},
                 Column{"amount", TypeId::kInt64, ""}});
  if (!cluster.CreateTable("sales", schema).ok()) std::abort();
  int64_t next_key = 0;
  LoadBase(&cluster, &next_key);
  if (!cluster.RegisterColumnar("sales").ok()) std::abort();

  const bool delta = std::string(strategy) == "delta";
  const bool rebuild = std::string(strategy) == "rebuild";
  cluster.set_auto_merge(delta);
  if (delta) cluster.set_delta_merge_threshold(merge_threshold);

  const ScanPath path =
      std::string(strategy) == "row" ? ScanPath::kRow : ScanPath::kColumnar;

  Leg leg{strategy, writes_per_query, delta ? merge_threshold : 0};
  Rng rng(7 + writes_per_query);
  double total_us = 0, total_delta = 0;
  for (int q = 0; q < kQueries; ++q) {
    for (int w = 0; w < writes_per_query; ++w) {
      Txn t = cluster.Begin(TxnScope::kSingleShard);
      Row row = {Value(next_key), Value(next_key % 5),
                 Value(rng.Uniform(1, 1000))};
      ++next_key;
      if (!t.Insert("sales", row[0], row).ok()) std::abort();
      if (!t.Commit().ok()) std::abort();
    }
    // Background merges complete between queries (they run on the pool and
    // never block a scan; the bench waits so each leg is deterministic).
    cluster.WaitForMerges();
    // Each query is measured from an idle simulated cluster: whatever a
    // strategy queues on the DNs ahead of the scan IS its freshness cost.
    cluster.ResetSimTime();
    if (rebuild) {
      // Old world: refresh synchronously and re-encode every shard from
      // scratch on the query path.
      auto merged = cluster.RefreshColumnar("sales");
      if (!merged.ok()) std::abort();
      for (int dn = 0; dn < kDns; ++dn) {
        (void)cluster.ChargeDnMerge(
            dn, 0, static_cast<size_t>(next_key) / kDns);
      }
    }
    auto res = ExecuteDistPlan(&cluster, ScanQueryPlan(path));
    if (!res.ok()) std::abort();
    const DistExecStats& st = res->stats;
    total_us += static_cast<double>(st.sim_latency_us);
    leg.max_scan_us =
        std::max(leg.max_scan_us, static_cast<long long>(st.sim_latency_us));
    total_delta += static_cast<double>(st.scan_stats.delta_rows);
  }
  leg.mean_scan_us = total_us / kQueries;
  leg.mean_delta_rows = total_delta / kQueries;
  leg.merges = cluster.metrics().Get("columnar.merges");
  leg.merge_rows = cluster.metrics().Get("columnar.merge_rows");
  auto final_res = ExecuteDistPlan(
      &cluster, SalesAggPlan(nullptr, {{AggFunc::kCount, "", "n"}}));
  if (!final_res.ok()) std::abort();
  leg.count = final_res->table.rows()[0][0].AsInt();
  return leg;
}

std::vector<Leg> RunSweep() {
  std::vector<Leg> legs;
  const int write_rates[] = {4, 32, 128};
  const size_t thresholds[] = {64, 256, 1024};
  for (int w : write_rates) {
    for (size_t t : thresholds) legs.push_back(RunLeg("delta", w, t));
    legs.push_back(RunLeg("rebuild", w, 0));
    legs.push_back(RunLeg("row", w, 0));
  }
  return legs;
}

void PrintTable(const std::vector<Leg>& legs) {
  printf("\n=== E21: HTAP freshness — scan cost vs write rate x merge "
         "threshold ===\n");
  printf("%-8s %8s %10s %12s %11s %8s %10s\n", "strategy", "writes/q",
         "threshold", "mean_scan_us", "max_scan_us", "merges",
         "avg_delta");
  for (const Leg& l : legs) {
    printf("%-8s %8d %10s %12.1f %11lld %8lld %10.1f\n", l.strategy,
           l.writes_per_query,
           l.merge_threshold == 0 ? "-"
                                  : std::to_string(l.merge_threshold).c_str(),
           l.mean_scan_us, l.max_scan_us, l.merges, l.mean_delta_rows);
  }
  printf("(expect: delta at a tuned threshold beats row and rebuild at every "
         "write rate — the tail union costs blocks, the rebuild costs the "
         "whole shard; an over-eager threshold instead fragments the sealed "
         "table into short merge chunks and buys the tail savings back)\n");
}

void WriteJson(const std::vector<Leg>& legs) {
  const char* path = std::getenv("OFI_BENCH_JSON");
  if (path == nullptr) path = "BENCH_htap_freshness.json";
  FILE* f = fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fprintf(f, "{\n  \"bench\": \"htap_freshness\",\n");
  fprintf(f,
          "  \"config\": {\"dns\": %d, \"protocol\": \"gtm_lite\", "
          "\"base_rows\": %lld, \"queries_per_leg\": %d, "
          "\"query\": \"COUNT+SUM(amount) WHERE amount > 500\"},\n",
          kDns, static_cast<long long>(kBaseRows), kQueries);
  fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < legs.size(); ++i) {
    const Leg& l = legs[i];
    fprintf(f,
            "    {\"strategy\": \"%s\", \"writes_per_query\": %d, "
            "\"merge_threshold\": %zu, \"mean_scan_us\": %.1f, "
            "\"max_scan_us\": %lld, \"mean_delta_rows\": %.1f, "
            "\"merges\": %lld, \"merge_rows\": %lld, \"count\": %lld}%s\n",
            l.strategy, l.writes_per_query, l.merge_threshold, l.mean_scan_us,
            l.max_scan_us, l.mean_delta_rows, l.merges, l.merge_rows, l.count,
            i + 1 == legs.size() ? "" : ",");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("wrote %s\n", path);
}

/// Wall-clock microbenchmark of one delta-union scan with a 256-row tail —
/// the real-time cost of the union machinery itself (snapshot copy, tail
/// filter, partial merge), as opposed to the simulated critical path above.
void BM_DeltaUnionScan(benchmark::State& state) {
  Cluster cluster(kDns, Protocol::kGtmLite);
  Schema schema({Column{"k", TypeId::kInt64, ""},
                 Column{"region", TypeId::kInt64, ""},
                 Column{"amount", TypeId::kInt64, ""}});
  if (!cluster.CreateTable("sales", schema).ok()) std::abort();
  int64_t next_key = 0;
  LoadBase(&cluster, &next_key);
  if (!cluster.RegisterColumnar("sales").ok()) std::abort();
  cluster.set_auto_merge(false);
  Rng rng(3);
  for (int w = 0; w < 256; ++w) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    Row row = {Value(next_key), Value(next_key % 5),
               Value(rng.Uniform(1, 1000))};
    ++next_key;
    if (!t.Insert("sales", row[0], row).ok()) std::abort();
    if (!t.Commit().ok()) std::abort();
  }
  const DistOpPtr plan = ScanQueryPlan();
  for (auto _ : state) {
    auto res = ExecuteDistPlan(&cluster, plan);
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res->table.rows()[0][0].AsInt());
  }
}
BENCHMARK(BM_DeltaUnionScan)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::vector<Leg> legs = RunSweep();
  PrintTable(legs);
  WriteJson(legs);
  return 0;
}
