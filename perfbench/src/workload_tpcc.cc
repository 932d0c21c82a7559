/// tpcc_traffic: LoadTpcc + traffic::RunTraffic on 4 DNs under GTM-lite
/// with group commit (the E19 configuration), followed by one closed-loop
/// client that runs TPC-C transactions from the public traffic::Session
/// plans, one operation outstanding.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/traffic/session.h"
#include "cluster/traffic/traffic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT
using traffic::Op;
using traffic::Session;
using traffic::TxnType;

constexpr int kDns = 4;

/// One plan step driven through Txn's public calls, with a span around each
/// — the same reads and writes Session::ExecuteNextOp issues.
Status TracedOp(Txn& t, const Op& op, Tracer* tracer) {
  auto read = [&](const char* table, int64_t key) {
    Tracer::Span span(tracer, "txn.read");
    return t.Read(table, sql::Value(key));
  };
  auto update = [&](const char* table, int64_t key, sql::Row row) {
    Tracer::Span span(tracer, "txn.write");
    return t.Update(table, sql::Value(key), std::move(row));
  };
  switch (op.kind) {
    case Op::Kind::kRead:
      return read(op.table, op.key).status();
    case Op::Kind::kAddDeltas: {
      OFI_ASSIGN_OR_RETURN(sql::Row row, read(op.table, op.key));
      for (const Op::ColDelta& d : op.deltas) {
        row[d.col] = sql::Value(row[d.col].AsInt() + d.delta);
      }
      return update(op.table, op.key, std::move(row));
    }
    case Op::Kind::kStockDecrement: {
      OFI_ASSIGN_OR_RETURN(sql::Row row, read(op.table, op.key));
      row[1] = sql::Value(row[1].AsInt() <= 10 ? 91 : row[1].AsInt() - 1);
      return update(op.table, op.key, std::move(row));
    }
    case Op::Kind::kInsertOrder: {
      Tracer::Span span(tracer, "txn.write");
      sql::Value ok(op.key);
      return t.Insert(op.table, ok,
                      {ok, sql::Value(op.customer), sql::Value(op.lines),
                       sql::Value(0)});
    }
    case Op::Kind::kDeliverOrder: {
      OFI_ASSIGN_OR_RETURN(sql::Row orow, read("orders", op.key));
      int64_t cust = orow[1].AsInt();
      orow[3] = sql::Value(1);
      OFI_RETURN_NOT_OK(update("orders", op.key, std::move(orow)));
      int64_t ck = tpcc::CustomerKey(tpcc::WarehouseOf(op.key), cust);
      OFI_ASSIGN_OR_RETURN(sql::Row crow, read("customer", ck));
      crow[1] = sql::Value(crow[1].AsInt() + 1);
      return update("customer", ck, std::move(crow));
    }
  }
  return Status::Internal("unknown op kind");
}

/// Σ warehouse.ytd + Σ customer.balance, read in one multi-shard snapshot.
Result<int64_t> MoneyTotal(Cluster* cluster, SimTime at) {
  Txn t = cluster->Begin(TxnScope::kMultiShard, at);
  int64_t total = 0;
  for (int dn = 0; dn < cluster->num_dns(); ++dn) {
    for (const char* table : {"warehouse", "customer"}) {
      OFI_ASSIGN_OR_RETURN(auto rows, t.ScanShard(table, dn));
      for (const sql::Row& row : rows) total += row[1].AsInt();
    }
  }
  OFI_RETURN_NOT_OK(t.Commit());
  return total;
}

}  // namespace

RoundResult TpccTrafficRound(const RunConfig& cfg) {
  TpccConfig tc;
  tc.warehouses_per_dn = cfg.smoke ? 2 : 64;
  tc.clients_per_dn = 1;  // unused by RunTraffic; LoadTpcc validates it
  tc.multi_shard_fraction = 0.1;
  tc.duration_us = cfg.smoke ? 20'000 : 2'000'000;
  tc.seed = cfg.seed;
  if (cfg.smoke) {
    tc.customers_per_warehouse = 30;
    tc.stock_per_warehouse = 30;
  }
  traffic::TrafficOptions options;
  options.sessions = cfg.smoke ? 8 : 256;
  options.group_commit.enabled = true;
  options.group_commit.window_us = 2000;
  options.group_commit.max_batch = 64;
  options.admission.max_in_flight = 0;  // admission off
  const int client_txns = cfg.smoke ? 40 : 20000;

  RoundResult r;
  auto t0 = Clock::now();
  Cluster cluster(kDns, Protocol::kGtmLite);
  if (!LoadTpcc(&cluster, tc).ok()) {
    r.attempted = r.failed = 1;
    return r;
  }
  r.setup_s = SecondsSince(t0);

  auto t1 = Clock::now();
  Result<traffic::TrafficResult> run = traffic::RunTraffic(&cluster, tc, options);
  r.timed_s = SecondsSince(t1);
  if (!run.ok()) {
    r.attempted = r.failed = 1;
    return r;
  }
  const traffic::TrafficResult& tr = *run;
  const double txns = static_cast<double>(std::max<uint64_t>(tr.committed, 1));
  const double traffic_attempted =
      static_cast<double>(tr.committed + tr.aborted + tr.shed);
  r.completed = static_cast<double>(tr.committed);
  auto& l = r.layer;
  l["model.sim_tps"] = tr.throughput_tps;
  l["model.sim_p50_us"] = static_cast<double>(tr.latency_p50_us);
  l["model.sim_p99_us"] = static_cast<double>(tr.latency_p99_us);
  l["txn.gtm_requests_per_txn"] = static_cast<double>(tr.gtm_requests) / txns;
  l["txn.log_writes_per_txn"] = static_cast<double>(tr.log_writes) / txns;
  l["txn.merge_upgrades"] = static_cast<double>(tr.upgrades);
  l["txn.merge_downgrades"] = static_cast<double>(tr.downgrades);
  l["traffic.txns_per_group_batch"] =
      tr.group_batches > 0 ? static_cast<double>(tr.group_txns) /
                                 static_cast<double>(tr.group_batches)
                           : 0;
  char fp[160];
  std::snprintf(fp, sizeof(fp), "committed=%llu aborted=%llu shed=%llu "
                "sim_tps=%.3f p50=%lld p99=%lld",
                static_cast<unsigned long long>(tr.committed),
                static_cast<unsigned long long>(tr.aborted),
                static_cast<unsigned long long>(tr.shed), tr.throughput_tps,
                static_cast<long long>(tr.latency_p50_us),
                static_cast<long long>(tr.latency_p99_us));
  r.fingerprint = fp;

  // The closed-loop client: four session plans on consecutive warehouses,
  // taken in turn with one transaction outstanding, starting where the
  // traffic run ended. Their ids are ones no traffic session used, so their
  // order keys stay disjoint from the traffic sessions' and each other's.
  traffic::WorkloadParams params;
  params.num_dns = kDns;
  params.warehouses_per_dn = tc.warehouses_per_dn;
  params.total_warehouses = tc.warehouses_per_dn * kDns;
  params.multi_shard_fraction = tc.multi_shard_fraction;
  params.customers_per_warehouse = tc.customers_per_warehouse;
  params.stock_per_warehouse = tc.stock_per_warehouse;
  std::vector<Session> clients(4);
  Rng home_rng(cfg.seed * 104729 + 17);
  const int64_t home = home_rng.Uniform(0, params.total_warehouses - 1);
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i].id = static_cast<int>(1020 + i);
    clients[i].rng = Rng(cfg.seed * 7907 + 1020 + i);
    clients[i].home_warehouse =
        (home + static_cast<int64_t>(i)) % params.total_warehouses;
  }
  SimTime now = tc.duration_us;
  uint64_t client_failed = 0;
  for (int i = 0; i < client_txns; ++i) {
    Session& client = clients[static_cast<size_t>(i) % clients.size()];
    client.PlanNextTxn(params);
    // Each latency class is one transaction type, so each percentile reads
    // one distribution: StockLevel (read-only: 21 point reads) and NewOrder
    // (the TPC-C headline write). Pooling OrderStatus's 2 reads with
    // StockLevel's 21 put the read p50 between two modes.
    const bool is_read = client.type == TxnType::kStockLevel;
    const bool is_write = client.type == TxnType::kNewOrder;
    auto op_start = Clock::now();
    Status st;
    {
      Tracer::Span txn_span(cfg.tracer, is_read    ? "op.read"
                                        : is_write ? "op.write"
                                                   : "op.other");
      client.txn = [&] {
        Tracer::Span span(cfg.tracer, "txn.begin");
        return cluster.Begin(client.scope, now);
      }();
      while (st.ok() && !client.PlanExhausted()) {
        st = cfg.tracer != nullptr
                 ? TracedOp(*client.txn, client.plan[client.next_op++],
                            cfg.tracer)
                 : client.ExecuteNextOp();
      }
      if (st.ok()) {
        Tracer::Span span(cfg.tracer, "txn.commit");
        st = client.txn->Commit();
      }
    }
    double us = MicrosSince(op_start);
    if (is_read) r.read_us.push_back(us);
    if (is_write) r.write_us.push_back(us);
    now = client.txn->now();
    if (st.ok()) {
      client.OnCommitted();
    } else {
      (void)client.txn->Abort();
      ++client_failed;
      std::fprintf(stderr, "tpcc_traffic: client txn failed: %s\n",
                   st.ToString().c_str());
    }
    client.txn.reset();
  }

  // Money only moves between warehouses and customers.
  const int64_t loaded = static_cast<int64_t>(params.total_warehouses) *
                         tc.customers_per_warehouse * 1000;
  Result<int64_t> total = MoneyTotal(&cluster, now);
  const bool money_ok = total.ok() && *total == loaded;
  if (!money_ok) {
    std::fprintf(stderr, "tpcc_traffic: money total %lld != loaded %lld\n",
                 total.ok() ? static_cast<long long>(*total) : -1LL,
                 static_cast<long long>(loaded));
  }
  l["common.sim_charge_us"] = TimeSimCharge(&cluster);

  r.attempted = static_cast<uint64_t>(traffic_attempted) + client_txns + 1;
  r.failed = client_failed + (money_ok ? 0 : 1);
  r.failed_frac = (static_cast<double>(tr.aborted + tr.shed) +
                   static_cast<double>(r.failed)) /
                  static_cast<double>(r.attempted);
  return r;
}

}  // namespace perfbench
