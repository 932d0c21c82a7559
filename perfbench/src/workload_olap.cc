/// olap_join: join + GROUP BY queries across the streaming, spilling
/// exchange under the pipelined executor on 2 DNs, with a trickle of
/// single-row INSERTs into the fact table.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sql/executor.h"
#include "sql_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ofi;  // NOLINT

constexpr int kDns = 2;

/// Rows of `t` as sorted strings: results compare as multisets.
std::vector<std::string> Canonical(const sql::Table& t) {
  std::vector<std::string> out;
  for (const sql::Row& row : t.rows()) {
    std::string s;
    for (const sql::Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The single-node src/sql executor over the CN mirror: the reference.
Result<sql::Table> Reference(const std::string& query,
                             const sql::Catalog& catalog) {
  OFI_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(query));
  OFI_ASSIGN_OR_RETURN(sql::PlanPtr plan, sql::PlanSelect(*stmt.select, catalog));
  sql::Executor exec(&catalog);
  return exec.Execute(plan);
}

}  // namespace

RoundResult OlapJoinRound(const RunConfig& cfg) {
  const int64_t orders = cfg.smoke ? 400 : 8000;
  const int64_t customers = cfg.smoke ? 100 : 2000;
  const int ops = cfg.smoke ? 20 : 240;
  const int64_t batch = 200;

  Rng rng(cfg.seed * 4099 + 5);
  std::vector<std::string> load;
  for (int64_t base = 0; base < customers; base += batch) {
    std::string stmt = "INSERT INTO customers VALUES ";
    for (int64_t c = base; c < std::min(customers, base + batch); ++c) {
      if (c > base) stmt += ", ";
      stmt += SqlTuple({c, rng.Uniform(0, 7)});
    }
    load.push_back(std::move(stmt));
  }
  auto order_row = [&](int64_t o) {
    // A few dangling customer ids on purpose: they drop out of the join.
    int64_t cust = rng.Uniform(0, customers + customers / 50);
    int64_t amount = rng.Uniform(1, 1000);
    return SqlTuple({o, cust, amount, rng.Uniform(1, 9)});
  };
  for (int64_t base = 0; base < orders; base += batch) {
    std::string stmt = "INSERT INTO orders VALUES ";
    for (int64_t o = base; o < std::min(orders, base + batch); ++o) {
      if (o > base) stmt += ", ";
      stmt += order_row(o);
    }
    load.push_back(std::move(stmt));
  }
  struct OlapOp {
    bool write;
    std::string text;
  };
  std::vector<OlapOp> list;
  int64_t next_order = orders;
  for (int i = 0; i < ops; ++i) {
    if (rng.Chance(0.1)) {
      list.push_back(
          {true, "INSERT INTO orders VALUES " + order_row(next_order++)});
    } else {
      list.push_back(
          {false,
           "SELECT segment, COUNT(*) AS n, SUM(amount) AS s, SUM(qty) AS q "
           "FROM orders JOIN customers ON cust = c_id WHERE amount > " +
               std::to_string(rng.Uniform(0, 900)) + " GROUP BY segment"});
    }
  }

  RoundResult r;
  auto t0 = Clock::now();
  SqlDriver db(kDns, cfg.tracer);
  auto& session = db.session();
  auto& opts = session.exec_options();
  opts.pipeline = true;
  opts.max_channel_bytes = 16 * 1024;
  opts.spill_dir = cfg.spill_dir;
  bool setup_ok =
      session.Execute("CREATE TABLE orders (o_id BIGINT, cust BIGINT, "
                      "amount BIGINT, qty BIGINT)").ok() &&
      session.Execute("CREATE TABLE customers (c_id BIGINT, segment BIGINT)")
          .ok();
  for (const std::string& stmt : load) {
    setup_ok = setup_ok && session.Execute(stmt).ok();
  }
  session.Analyze();
  db.EndSetup();
  r.setup_s = SecondsSince(t0);
  if (!setup_ok) {
    r.attempted = r.failed = 1;
    return r;
  }

  QueryCounters counters;
  for (const OlapOp& op : list) {
    auto op_start = Clock::now();
    Result<sql::Table> out = [&] {
      Tracer::Span span(cfg.tracer, op.write ? "op.write" : "op.read");
      return db.Execute(op.text);
    }();
    double us = MicrosSince(op_start);
    r.timed_s += us / 1e6;
    ++r.attempted;
    (op.write ? r.write_us : r.read_us).push_back(us);
    if (op.write) {
      if (!out.ok()) ++r.failed;
      continue;
    }
    Result<sql::Table> want = Reference(op.text, db.catalog());
    if (!out.ok() || !want.ok() || Canonical(*out) != Canonical(*want)) {
      ++r.failed;
      std::fprintf(stderr, "olap_join: wrong result for %s: %s\n",
                   op.text.c_str(),
                   !out.ok()    ? out.status().ToString().c_str()
                   : !want.ok() ? want.status().ToString().c_str()
                                : "rows differ from the reference");
    }
    if (const auto* stats = db.last_stats()) {
      size_t scanned = 0;
      for (const char* t : {"orders", "customers"}) {
        scanned += db.catalog().Get(t).ValueOrDie()->num_rows();
      }
      counters.Add(*stats, out.ok() ? out->num_rows() : 0, scanned);
    }
  }
  r.completed = static_cast<double>(list.size());
  counters.Report(&r.layer);
  r.layer["common.sim_charge_us"] = TimeSimCharge(&db.cluster());
  return r;
}

}  // namespace perfbench
