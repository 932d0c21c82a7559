/// \file bench_sql_olap.cc
/// \brief Ablation bench for the optimizer's design choices (DESIGN.md):
/// on a star-schema OLAP workload run through the full SQL stack,
/// compares
///   * cost-based join ordering (statistics-driven, smallest intermediate
///     first) vs the naive left-deep syntactic order, and
///   * query rewrites (predicate pushdown into scans) on vs off,
/// measuring executor work (rows processed) — machine-independent.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/distributed_plan.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace {

using namespace ofi;             // NOLINT
using namespace ofi::optimizer;  // NOLINT
using sql::Column;
using sql::Schema;
using sql::TypeId;
using sql::Value;

/// Star schema: big fact table, two small dimensions.
void BuildStarSchema(sql::Catalog* catalog) {
  Rng rng(51);
  sql::Table fact{Schema({Column{"cust", TypeId::kInt64, "f"},
                          Column{"prod", TypeId::kInt64, "f"},
                          Column{"amount", TypeId::kInt64, "f"}})};
  for (int64_t i = 0; i < 50'000; ++i) {
    (void)fact.Append({Value(rng.Uniform(0, 999)), Value(rng.Uniform(0, 99)),
                       Value(rng.Uniform(1, 500))});
  }
  catalog->Register("fact", std::move(fact));

  sql::Table customers{Schema({Column{"id", TypeId::kInt64, "c"},
                               Column{"country", TypeId::kInt64, "c"}})};
  for (int64_t i = 0; i < 1'000; ++i) {
    (void)customers.Append({Value(i), Value(i % 20)});
  }
  catalog->Register("customers", std::move(customers));

  sql::Table products{Schema({Column{"id", TypeId::kInt64, "p"},
                              Column{"category", TypeId::kInt64, "p"}})};
  for (int64_t i = 0; i < 100; ++i) {
    (void)products.Append({Value(i), Value(i % 5)});
  }
  catalog->Register("products", std::move(products));
}

/// The star query: one selective dimension filter (customers) and one
/// unfiltered dimension (products), written FACT FIRST so the naive
/// left-deep order joins fact x products before the selective customers
/// filter can shrink anything — the classic join-ordering trap.
const char* kStarQuery =
    "SELECT COUNT(*) AS n, SUM(f.amount) AS total "
    "FROM fact f, products p, customers c "
    "WHERE f.cust = c.id AND f.prod = p.id AND c.country = 7";

struct RunCost {
  uint64_t rows_processed = 0;
  size_t result_rows = 0;
};

RunCost RunWithPlanner(const sql::Catalog& catalog, const StatsRegistry* stats,
                       bool cost_based, bool pushdown) {
  auto stmt = sql::Parse(kStarQuery);
  if (!stmt.ok()) return {};

  sql::JoinPlanner planner = nullptr;
  Optimizer opt(&catalog, stats, nullptr);
  if (cost_based) {
    planner = [&opt](std::vector<sql::PlannedScan> scans,
                     std::vector<sql::ExprPtr> preds) -> Result<sql::PlanPtr> {
      std::vector<ScanSpec> specs;
      for (auto& s : scans) {
        specs.push_back(ScanSpec{s.table, s.predicate, s.alias});
      }
      return opt.PlanJoinQuery(std::move(specs), std::move(preds));
    };
  } else if (!pushdown) {
    // Naive order AND no predicate pushdown: join keys stay on the joins
    // (else intermediates explode), but the selective dimension filters are
    // hoisted above every join — the rewrite being ablated.
    planner = [&catalog](std::vector<sql::PlannedScan> scans,
                         std::vector<sql::ExprPtr> preds) -> Result<sql::PlanPtr> {
      sql::PlanPtr plan;
      std::vector<sql::ExprPtr> hoisted;
      std::vector<bool> used(preds.size(), false);
      std::vector<std::string> in_scope;
      auto covers = [&](const sql::ExprPtr& pred) {
        std::vector<std::string> cols;
        pred->CollectColumns(&cols);
        for (const auto& c : cols) {
          if (std::find(in_scope.begin(), in_scope.end(), c) == in_scope.end()) {
            return false;
          }
        }
        return true;
      };
      for (size_t i = 0; i < scans.size(); ++i) {
        if (scans[i].predicate) hoisted.push_back(scans[i].predicate);
        OFI_ASSIGN_OR_RETURN(auto table, catalog.Get(scans[i].table));
        sql::Schema schema = scans[i].alias.empty()
                                 ? table->schema()
                                 : table->schema().WithQualifier(scans[i].alias);
        for (const auto& c : schema.columns()) {
          in_scope.push_back(c.name);
          in_scope.push_back(c.QualifiedName());
        }
        sql::PlanPtr scan = sql::MakeScan(scans[i].table, nullptr, scans[i].alias);
        if (plan == nullptr) {
          plan = scan;
          continue;
        }
        // Join keys attach as soon as both sides are in scope (else the
        // intermediate result explodes and the ablation measures OOM, not
        // the rewrite).
        std::vector<sql::ExprPtr> applicable;
        for (size_t pidx = 0; pidx < preds.size(); ++pidx) {
          if (!used[pidx] && covers(preds[pidx])) {
            applicable.push_back(preds[pidx]);
            used[pidx] = true;
          }
        }
        plan = sql::MakeJoin(plan, scan, sql::ConjoinAll(applicable));
      }
      for (size_t pidx = 0; pidx < preds.size(); ++pidx) {
        if (!used[pidx]) hoisted.push_back(preds[pidx]);
      }
      return sql::MakeFilter(plan, sql::ConjoinAll(hoisted));
    };
  }
  auto plan = sql::PlanSelect(*stmt->select, catalog, planner);
  if (!plan.ok()) return {};
  sql::Executor exec(&catalog);
  auto result = exec.Execute(*plan);
  RunCost cost;
  cost.rows_processed = exec.rows_processed();
  cost.result_rows = result.ok() ? result->num_rows() : 0;
  return cost;
}

void BM_StarQueryCostBased(benchmark::State& state) {
  sql::Catalog catalog;
  BuildStarSchema(&catalog);
  StatsRegistry stats;
  stats.AnalyzeAll(catalog);
  RunCost cost;
  for (auto _ : state) {
    cost = RunWithPlanner(catalog, &stats, true, true);
  }
  state.counters["rows_processed"] = static_cast<double>(cost.rows_processed);
}
BENCHMARK(BM_StarQueryCostBased)->Unit(benchmark::kMillisecond);

void BM_StarQueryNaiveOrder(benchmark::State& state) {
  sql::Catalog catalog;
  BuildStarSchema(&catalog);
  RunCost cost;
  for (auto _ : state) {
    cost = RunWithPlanner(catalog, nullptr, false, true);
  }
  state.counters["rows_processed"] = static_cast<double>(cost.rows_processed);
}
BENCHMARK(BM_StarQueryNaiveOrder)->Unit(benchmark::kMillisecond);

void BM_StarQueryNoPushdown(benchmark::State& state) {
  sql::Catalog catalog;
  BuildStarSchema(&catalog);
  RunCost cost;
  for (auto _ : state) {
    cost = RunWithPlanner(catalog, nullptr, false, false);
  }
  state.counters["rows_processed"] = static_cast<double>(cost.rows_processed);
}
BENCHMARK(BM_StarQueryNoPushdown)->Unit(benchmark::kMillisecond);

/// The same star-schema fact table, hash-sharded across a simulated MPP
/// cluster: distributed GROUP BY via scatter-gather, serial inline scatter
/// vs the shared thread pool (range(1): 0 = serial, 1 = pool).
void BM_DistributedFactAggregate(benchmark::State& state) {
  int dns = static_cast<int>(state.range(0));
  cluster::DistExecOptions options;
  options.parallel = state.range(1) != 0;
  auto cl = std::make_unique<cluster::Cluster>(dns, cluster::Protocol::kGtmLite);
  Schema schema({Column{"k", TypeId::kInt64, "f"},
                 Column{"cust", TypeId::kInt64, "f"},
                 Column{"prod", TypeId::kInt64, "f"},
                 Column{"amount", TypeId::kInt64, "f"}});
  (void)cl->CreateTable("fact", schema);
  Rng rng(51);
  for (int64_t i = 0; i < 50'000; ++i) {
    cluster::Txn t = cl->Begin(cluster::TxnScope::kSingleShard);
    (void)t.Insert("fact", Value(i),
                   {Value(i), Value(rng.Uniform(0, 999)),
                    Value(rng.Uniform(0, 99)), Value(rng.Uniform(1, 500))});
    (void)t.Commit();
  }
  // Scan -> fused partial agg -> gather partials -> final agg at the CN.
  std::vector<std::string> group_by = {"f.prod"};
  std::vector<cluster::DistributedAgg> aggs = {
      {sql::AggFunc::kSum, "f.amount", "total"},
      {sql::AggFunc::kCount, "", "n"}};
  const cluster::DistOpPtr plan = cluster::MakeDistFinalAgg(
      cluster::MakeGather(
          cluster::MakeDistPartialAgg(cluster::MakeDistScan("fact", nullptr),
                                      group_by, aggs)),
      group_by, aggs);
  cluster::DistPlanResult last;
  for (auto _ : state) {
    auto r = cluster::ExecuteDistPlan(cl.get(), plan, options);
    if (r.ok()) last = std::move(r).ValueOrDie();
    benchmark::DoNotOptimize(last.table);
  }
  state.counters["sim_us"] = static_cast<double>(last.stats.sim_latency_us);
}
BENCHMARK(BM_DistributedFactAggregate)
    ->ArgNames({"dns", "pool"})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

void PrintAblation() {
  printf("\n=== optimizer ablation on the star query (executor rows processed) ===\n");
  sql::Catalog catalog;
  BuildStarSchema(&catalog);
  StatsRegistry stats;
  stats.AnalyzeAll(catalog);

  RunCost cost_based = RunWithPlanner(catalog, &stats, true, true);
  RunCost naive = RunWithPlanner(catalog, nullptr, false, true);
  RunCost no_pushdown = RunWithPlanner(catalog, nullptr, false, false);
  printf("%-38s %16s %12s\n", "configuration", "rows processed", "result");
  printf("%-38s %16llu %12zu\n", "cost-based order + pushdown",
         (unsigned long long)cost_based.rows_processed, cost_based.result_rows);
  printf("%-38s %16llu %12zu\n", "naive left-deep order + pushdown",
         (unsigned long long)naive.rows_processed, naive.result_rows);
  printf("%-38s %16llu %12zu\n", "naive order, no predicate pushdown",
         (unsigned long long)no_pushdown.rows_processed, no_pushdown.result_rows);
  printf("(all three return identical answers; the rewrites and the "
         "cost-based order cut work by %.1fx)\n\n",
         static_cast<double>(no_pushdown.rows_processed) /
             static_cast<double>(cost_based.rows_processed));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintAblation();
  return 0;
}
