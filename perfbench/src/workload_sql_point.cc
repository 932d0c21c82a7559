/// sql_point: what a sql_shell user does — point SELECTs by an indexed key
/// and single-row INSERTs, through DistributedSqlSession on 4 DNs.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sql_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kDns = 4;

struct PointOp {
  bool write = false;
  int64_t k = 0, g = 0, v = 0;
  std::string text;
};

}  // namespace

RoundResult SqlPointRound(const RunConfig& cfg) {
  const int64_t rows = cfg.smoke ? 200 : 12000;
  const int ops = cfg.smoke ? 60 : 2000;
  const int64_t batch = 200;

  // The operation list comes from the seed alone; `value` is the
  // benchmark's own key -> v map that every SELECT is checked against.
  ofi::Rng rng(cfg.seed * 7919 + 3);
  std::unordered_map<int64_t, int64_t> value;
  std::vector<std::string> load;
  for (int64_t base = 0; base < rows; base += batch) {
    std::string stmt = "INSERT INTO kv VALUES ";
    for (int64_t k = base; k < std::min(rows, base + batch); ++k) {
      int64_t g = rng.Uniform(0, 15), v = rng.Uniform(0, 1'000'000);
      value[k] = v;
      if (k > base) stmt += ", ";
      stmt += SqlTuple({k, g, v});
    }
    load.push_back(std::move(stmt));
  }
  std::vector<PointOp> list(static_cast<size_t>(ops));
  int64_t next_key = rows;
  for (PointOp& op : list) {
    op.write = rng.Chance(0.1);
    if (op.write) {
      op.k = next_key++;
      op.g = rng.Uniform(0, 15);
      op.v = rng.Uniform(0, 1'000'000);
      op.text = "INSERT INTO kv VALUES " + SqlTuple({op.k, op.g, op.v});
    } else {
      op.k = rng.Uniform(0, next_key - 1);
      op.text = "SELECT v FROM kv WHERE k = " + std::to_string(op.k);
    }
  }

  RoundResult r;
  auto t0 = Clock::now();
  SqlDriver db(kDns, cfg.tracer);
  auto& session = db.session();
  bool setup_ok =
      session.Execute("CREATE TABLE kv (k BIGINT, g BIGINT, v BIGINT)").ok();
  for (const std::string& stmt : load) {
    setup_ok = setup_ok && session.Execute(stmt).ok();
  }
  setup_ok = setup_ok && session.Execute("CREATE INDEX kv_k ON kv (k)").ok();
  session.Analyze();
  db.EndSetup();
  r.setup_s = SecondsSince(t0);
  if (!setup_ok) {
    r.attempted = r.failed = 1;
    return r;
  }

  QueryCounters counters;
  for (const PointOp& op : list) {
    auto op_start = Clock::now();
    ofi::Result<ofi::sql::Table> out = [&] {
      Tracer::Span span(cfg.tracer, op.write ? "op.write" : "op.read");
      return db.Execute(op.text);
    }();
    double us = MicrosSince(op_start);
    r.timed_s += us / 1e6;
    ++r.attempted;
    if (op.write) {
      r.write_us.push_back(us);
      if (out.ok()) {
        value[op.k] = op.v;
      } else {
        ++r.failed;
      }
      continue;
    }
    r.read_us.push_back(us);
    const bool ok = out.ok() && out->num_rows() == 1 &&
                    out->rows()[0].size() == 1 &&
                    out->rows()[0][0] == ofi::sql::Value(value.at(op.k));
    if (!ok) {
      ++r.failed;
      std::fprintf(stderr, "sql_point: wrong result for %s\n", op.text.c_str());
    }
    if (const auto* stats = db.last_stats()) {
      counters.Add(*stats, out.ok() ? out->num_rows() : 0, 0);
    }
  }
  r.completed = static_cast<double>(list.size());
  counters.Report(&r.layer);
  r.layer["common.sim_charge_us"] = TimeSimCharge(&db.cluster());
  return r;
}

}  // namespace perfbench
