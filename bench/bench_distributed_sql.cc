/// \file bench_distributed_sql.cc
/// \brief SQL-to-cluster lowering end to end (E16): the same SELECT text
/// answered by (a) the single-node optimizer/executor and (b) the
/// distributed physical-operator layer over N DNs, measuring wall time
/// plus the simulated-latency and data-movement accounting the lowering
/// is supposed to optimize. Also isolates the planning+lowering overhead
/// itself (EXPLAIN-only loop).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "cluster/distributed_sql.h"
#include "common/rng.h"
#include "optimizer/sql_session.h"

namespace {

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT

constexpr const char* kJoinAggQuery =
    "SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM orders "
    "JOIN customers ON cust = c_id WHERE amount > 250 GROUP BY segment";
constexpr const char* kScanAggQuery =
    "SELECT cust, COUNT(*) AS n, SUM(amount) AS total FROM orders "
    "WHERE amount > 100 GROUP BY cust";

/// Loads the orders/customers pair through any SQL Execute-shaped session.
template <typename Session>
void LoadSql(Session* s, int64_t orders, int64_t customers, uint64_t seed) {
  (void)s->Execute(
      "CREATE TABLE orders (o_id BIGINT, cust BIGINT, amount BIGINT)");
  (void)s->Execute("CREATE TABLE customers (c_id BIGINT, segment BIGINT)");
  Rng rng(seed);
  for (int64_t c = 0; c < customers; ++c) {
    (void)s->Execute("INSERT INTO customers VALUES (" + std::to_string(c) +
                     ", " + std::to_string(rng.Uniform(0, 7)) + ")");
  }
  for (int64_t o = 0; o < orders; ++o) {
    (void)s->Execute("INSERT INTO orders VALUES (" + std::to_string(o) + ", " +
                     std::to_string(rng.Uniform(0, customers - 1)) + ", " +
                     std::to_string(rng.Uniform(1, 1000)) + ")");
  }
  s->Analyze();
}

/// range: dns, orders, query (0 scan-agg / 1 join-agg).
void BM_DistributedSqlSelect(benchmark::State& state) {
  int dns = static_cast<int>(state.range(0));
  auto session = std::make_unique<DistributedSqlSession>(dns);
  LoadSql(session.get(), state.range(1), 200, 17);
  const char* query = state.range(2) == 0 ? kScanAggQuery : kJoinAggQuery;
  size_t rows = 0;
  for (auto _ : state) {
    auto r = session->Execute(query);
    if (r.ok()) rows = r->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  const auto& info = session->last();
  state.counters["distributed"] = info.distributed ? 1 : 0;
  state.counters["sim_us"] = static_cast<double>(info.stats.sim_latency_us);
  state.counters["moved_bytes"] = static_cast<double>(
      info.stats.shuffle_bytes + info.stats.broadcast_bytes);
  state.counters["partial_bytes"] = static_cast<double>(info.stats.partial_bytes);
}
BENCHMARK(BM_DistributedSqlSelect)
    ->ArgNames({"dns", "orders", "query"})
    ->Args({4, 4000, 0})
    ->Args({4, 4000, 1})
    ->Args({8, 4000, 0})
    ->Args({8, 4000, 1})
    ->Unit(benchmark::kMillisecond);

/// The single-node oracle on the same data and query text.
void BM_SingleNodeSqlSelect(benchmark::State& state) {
  auto session = std::make_unique<optimizer::SqlSession>(-1.0);
  LoadSql(session.get(), state.range(0), 200, 17);
  const char* query = state.range(1) == 0 ? kScanAggQuery : kJoinAggQuery;
  size_t rows = 0;
  for (auto _ : state) {
    auto r = session->Execute(query);
    if (r.ok()) rows = r->num_rows();
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_SingleNodeSqlSelect)
    ->ArgNames({"orders", "query"})
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Unit(benchmark::kMillisecond);

/// Parse + plan + lower only (EXPLAIN): the CN-side overhead the operator
/// layer adds before any shard is touched.
void BM_PlanAndLower(benchmark::State& state) {
  auto session = std::make_unique<DistributedSqlSession>(4);
  LoadSql(session.get(), 500, 100, 17);
  for (auto _ : state) {
    auto e = session->Explain(kJoinAggQuery);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_PlanAndLower)->Unit(benchmark::kMicrosecond);

/// Columnar vs row scan path for the same lowered SELECT.
void BM_DistributedSqlColumnar(benchmark::State& state) {
  auto session = std::make_unique<DistributedSqlSession>(4);
  LoadSql(session.get(), state.range(0), 200, 17);
  if (state.range(1) != 0) (void)session->RegisterColumnar("orders");
  size_t rows = 0;
  for (auto _ : state) {
    auto r = session->Execute(kScanAggQuery);
    if (r.ok()) rows = r->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["columnar_shards"] =
      static_cast<double>(session->last().stats.columnar_shards);
  state.counters["sim_us"] =
      static_cast<double>(session->last().stats.sim_latency_us);
}
BENCHMARK(BM_DistributedSqlColumnar)
    ->ArgNames({"orders", "columnar"})
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
