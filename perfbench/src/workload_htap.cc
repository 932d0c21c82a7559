/// htap_mixed: single-row write transactions through Cluster::Begin / Txn
/// beside grouped SQL scans of the same table's columnar delta store, on
/// 4 DNs with a delta-merge threshold low enough that merges run.
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sql_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT

constexpr int kDns = 4;
constexpr int kWritesPerStep = 8;
constexpr int64_t kGroups = 16;

struct SalesRow {
  int64_t g = 0, amount = 0;
};

/// One write transaction of the list. Keys are resolved when the list is
/// generated, against the oracle as it will be at that point.
struct WriteOp {
  enum class Kind { kUpdate, kInsert, kDelete } kind = Kind::kUpdate;
  int64_t k = 0, g = 0, amount = 0;  // the row after the write
  int64_t before = 0;                // kUpdate: the amount the read must see
};

struct Step {
  std::vector<WriteOp> writes;
  int64_t threshold = 0;
  std::map<int64_t, std::pair<int64_t, int64_t>> expect;  // g -> count, sum
  std::string query;
};

sql::Row MakeRow(const WriteOp& w) {
  return {sql::Value(w.k), sql::Value(w.g), sql::Value(w.amount)};
}

Status RunWrite(Cluster* cluster, const WriteOp& w, Tracer* tracer) {
  Txn t = [&] {
    Tracer::Span span(tracer, "txn.begin");
    return cluster->Begin(TxnScope::kSingleShard);
  }();
  const sql::Value key(w.k);
  Status st;
  if (w.kind == WriteOp::Kind::kUpdate) {
    Result<sql::Row> row = [&] {
      Tracer::Span span(tracer, "txn.read");
      return t.Read("sales", key);
    }();
    st = row.status();
    if (st.ok() && !((*row)[2] == sql::Value(w.before))) {
      st = Status::Internal("read of key " + std::to_string(w.k) +
                            " disagrees with the oracle");
    }
  }
  if (st.ok()) {
    Tracer::Span span(tracer, "txn.write");
    switch (w.kind) {
      case WriteOp::Kind::kUpdate: st = t.Update("sales", key, MakeRow(w)); break;
      case WriteOp::Kind::kInsert: st = t.Insert("sales", key, MakeRow(w)); break;
      case WriteOp::Kind::kDelete: st = t.Delete("sales", key); break;
    }
  }
  if (!st.ok()) {
    (void)t.Abort();
    return st;
  }
  Tracer::Span span(tracer, "txn.commit");
  return t.Commit();
}

bool SameGroups(const sql::Table& out,
                const std::map<int64_t, std::pair<int64_t, int64_t>>& expect) {
  if (out.num_rows() != expect.size()) return false;
  for (const sql::Row& row : out.rows()) {
    if (row.size() != 3) return false;
    auto it = expect.find(row[0].AsInt());
    if (it == expect.end() || !(row[1] == sql::Value(it->second.first)) ||
        !(row[2] == sql::Value(it->second.second))) {
      return false;
    }
  }
  return true;
}

}  // namespace

RoundResult HtapMixedRound(const RunConfig& cfg) {
  const int64_t rows = cfg.smoke ? 300 : 12000;
  const int steps = cfg.smoke ? 12 : 300;
  const int64_t batch = 200;

  // Generate the load, the write list and each query's expected answer
  // from the seed, evolving the benchmark's own oracle as it goes.
  Rng rng(cfg.seed * 6151 + 11);
  std::unordered_map<int64_t, SalesRow> oracle;
  std::vector<int64_t> live;
  std::vector<std::string> load;
  for (int64_t base = 0; base < rows; base += batch) {
    std::string stmt = "INSERT INTO sales VALUES ";
    for (int64_t k = base; k < std::min(rows, base + batch); ++k) {
      SalesRow row{rng.Uniform(0, kGroups - 1), rng.Uniform(1, 1000)};
      oracle[k] = row;
      live.push_back(k);
      if (k > base) stmt += ", ";
      stmt += SqlTuple({k, row.g, row.amount});
    }
    load.push_back(std::move(stmt));
  }
  int64_t next_key = rows;
  std::vector<Step> list(static_cast<size_t>(steps));
  for (Step& step : list) {
    for (int i = 0; i < kWritesPerStep; ++i) {
      WriteOp w;
      double kind = rng.NextDouble();
      if (kind < 0.15) {
        w.kind = WriteOp::Kind::kInsert;
        w.k = next_key++;
        w.g = rng.Uniform(0, kGroups - 1);
        w.amount = rng.Uniform(1, 1000);
        oracle[w.k] = SalesRow{w.g, w.amount};
        live.push_back(w.k);
      } else {
        size_t idx = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
        w.k = live[idx];
        SalesRow& row = oracle.at(w.k);
        if (kind < 0.30) {
          w.kind = WriteOp::Kind::kDelete;
          oracle.erase(w.k);
          live[idx] = live.back();
          live.pop_back();
        } else {
          w.kind = WriteOp::Kind::kUpdate;
          w.before = row.amount;
          w.g = row.g;
          w.amount = 1 + (row.amount + rng.Uniform(1, 400)) % 1000;
          row.amount = w.amount;
        }
      }
      step.writes.push_back(w);
    }
    step.threshold = rng.Uniform(0, 1000);
    for (const auto& [k, row] : oracle) {
      if (row.amount <= step.threshold) continue;
      auto& [count, sum] = step.expect[row.g];
      ++count;
      sum += row.amount;
    }
    step.query = "SELECT g, COUNT(*), SUM(amount) FROM sales WHERE amount > " +
                 std::to_string(step.threshold) + " GROUP BY g";
  }

  RoundResult r;
  auto t0 = Clock::now();
  SqlDriver db(kDns, cfg.tracer);
  auto& session = db.session();
  bool setup_ok =
      session.Execute("CREATE TABLE sales (k BIGINT, g BIGINT, amount BIGINT)")
          .ok();
  for (const std::string& stmt : load) {
    setup_ok = setup_ok && session.Execute(stmt).ok();
  }
  setup_ok = setup_ok && session.RegisterColumnar("sales").ok();
  db.cluster().set_delta_merge_threshold(256);
  session.Analyze();
  db.EndSetup();
  r.setup_s = SecondsSince(t0);
  if (!setup_ok) {
    r.attempted = r.failed = 1;
    return r;
  }

  QueryCounters counters;
  for (const Step& step : list) {
    for (const WriteOp& w : step.writes) {
      auto op_start = Clock::now();
      Status st = [&] {
        Tracer::Span span(cfg.tracer, "op.write");
        return RunWrite(&db.cluster(), w, cfg.tracer);
      }();
      double us = MicrosSince(op_start);
      r.write_us.push_back(us);
      r.timed_s += us / 1e6;
      ++r.attempted;
      if (!st.ok()) {
        ++r.failed;
        std::fprintf(stderr, "htap_mixed: write failed: %s\n",
                     st.ToString().c_str());
      }
    }
    auto op_start = Clock::now();
    Result<sql::Table> out = [&] {
      Tracer::Span span(cfg.tracer, "op.read");
      return db.Execute(step.query);
    }();
    double us = MicrosSince(op_start);
    r.read_us.push_back(us);
    r.timed_s += us / 1e6;
    ++r.attempted;
    if (!out.ok() || !SameGroups(*out, step.expect)) {
      ++r.failed;
      std::fprintf(stderr, "htap_mixed: wrong result for %s\n",
                   step.query.c_str());
    }
    if (const auto* stats = db.last_stats()) {
      counters.Add(*stats, out.ok() ? out->num_rows() : 0, 0);
    }
  }
  r.completed = static_cast<double>(r.attempted);
  db.cluster().WaitForMerges();
  counters.Report(&r.layer);
  r.layer["storage.merges"] =
      static_cast<double>(db.cluster().metrics().Get("columnar.merges"));
  r.layer["storage.merge_rows"] =
      static_cast<double>(db.cluster().metrics().Get("columnar.merge_rows"));
  r.layer["common.sim_charge_us"] = TimeSimCharge(&db.cluster());
  return r;
}

}  // namespace perfbench
