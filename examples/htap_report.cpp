/// \file htap_report.cpp
/// \brief The HTAP story of paper §II-A: run an OLTP workload (modified
/// TPC-C under GTM-lite) and, on the SAME data, produce real-time
/// operational reports through the analytic SQL stack — no ETL, no second
/// system. A consistent multi-shard snapshot scan bridges the row store
/// into the columnar/SQL side.
///
///   ./example_htap_report
#include <algorithm>
#include <cstdio>
#include <vector>

#include "cluster/distributed_plan.h"
#include "cluster/tpcc_workload.h"
#include "optimizer/sql_session.h"

using namespace ofi;           // NOLINT
using namespace ofi::cluster;  // NOLINT
using sql::Row;
using sql::Value;

int main() {
  printf("== HTAP: OLTP transactions + real-time analytics ==\n\n");

  // --- OLTP side: the transactional cluster ----------------------------------
  Cluster cluster(4, Protocol::kGtmLite);
  TpccConfig cfg;
  cfg.warehouses_per_dn = 2;
  cfg.clients_per_dn = 4;
  cfg.multi_shard_fraction = 0.1;
  cfg.duration_us = 500'000;
  if (!LoadTpcc(&cluster, cfg).ok()) {
    printf("load failed\n");
    return 1;
  }
  TpccResult oltp = RunTpcc(&cluster, cfg);
  printf("OLTP: %llu transactions committed (%.1f ktps simulated), %llu "
         "aborted, %llu GTM requests\n",
         (unsigned long long)oltp.committed, oltp.throughput_tps / 1000.0,
         (unsigned long long)oltp.aborted,
         (unsigned long long)oltp.gtm_requests);

  // --- Bridge: one consistent snapshot scan across every shard ---------------
  // A multi-shard reader gives a transactionally consistent view; its rows
  // feed the analytic catalog (in FI-MPPDB this is the same engine reading
  // the same storage — here the row/columnar handoff is explicit).
  optimizer::SqlSession session;
  auto scan_into = [&](const char* table, const char* create) -> Status {
    OFI_RETURN_NOT_OK(session.Execute(create).status());
    Txn reader = cluster.Begin(TxnScope::kMultiShard);
    OFI_ASSIGN_OR_RETURN(auto dest, session.catalog().Get(table));
    for (int dn = 0; dn < cluster.num_dns(); ++dn) {
      OFI_ASSIGN_OR_RETURN(std::vector<Row> rows, reader.ScanShard(table, dn));
      for (Row& r : rows) {
        OFI_RETURN_NOT_OK(dest->Append(std::move(r)));
      }
    }
    return reader.Commit();
  };
  if (!scan_into("customer",
                 "CREATE TABLE customer (k BIGINT, balance BIGINT, payments "
                 "BIGINT)")
           .ok() ||
      !scan_into("orders",
                 "CREATE TABLE orders (k BIGINT, customer BIGINT, lines BIGINT, "
                 "delivered BIGINT)")
           .ok() ||
      !scan_into("warehouse", "CREATE TABLE warehouse (k BIGINT, ytd BIGINT)")
           .ok()) {
    printf("snapshot scan failed\n");
    return 1;
  }
  session.Analyze();
  printf("bridged a consistent snapshot into the analytic catalog\n\n");

  // --- OLAP side: operational reports in SQL ---------------------------------
  auto report = [&](const char* title, const std::string& query) {
    auto r = session.Execute(query);
    if (!r.ok()) {
      printf("%s: error %s\n", title, r.status().ToString().c_str());
      return;
    }
    printf("-- %s\n%s\n", title, r->ToString(8).c_str());
  };

  report("revenue collected per warehouse (top 5)",
         "SELECT k / 1000000 AS warehouse, ytd FROM warehouse "
         "ORDER BY ytd DESC LIMIT 5");

  report("order volume and size",
         "SELECT COUNT(*) AS orders, AVG(lines) AS avg_lines, "
         "MAX(lines) AS max_lines FROM orders");

  report("most active customers (fraud-screening feed)",
         "SELECT customer, COUNT(*) AS n FROM orders "
         "GROUP BY customer HAVING COUNT(*) >= 2 "
         "ORDER BY n DESC LIMIT 5");

  report("customers who overdrew (balance < 0)",
         "SELECT COUNT(*) AS overdrawn, MIN(balance) AS worst "
         "FROM customer WHERE balance < 0");

  printf("(every report ran on live OLTP data: no ETL pipeline, the paper's "
         "HTAP motivation)\n");
  printf("optimizer q-error on the last report: %.2f\n\n",
         session.last_max_qerror());

  // --- MPP path: scatter-gather aggregation without moving rows ---------------
  // The same kind of report, executed the MPP way (Fig. 1): each DN runs the
  // partial aggregate over its shard; only group-sized partial state crosses
  // the network. The plan: scan -> fused partial agg -> gather partials ->
  // final agg at the CN.
  std::vector<DistributedAgg> aggs = {
      {sql::AggFunc::kCount, "", "active_payers"},
      {sql::AggFunc::kAvg, "balance", "avg_balance"}};
  DistOpPtr plan = MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(
                     MakeDistScan("customer", sql::Expr::Lt(
                                                  "balance", sql::Value(1000))),
                     {}, aggs)),
      {}, aggs);
  auto mpp = ExecuteDistPlan(&cluster, plan);
  if (mpp.ok()) {
    const DistExecStats& st = mpp->stats;
    printf("-- MPP scatter-gather: customers who paid (balance < 1000)\n%s",
           mpp->table.ToString().c_str());
    printf("data moved DN->CN: %zu bytes of partial state (vs %zu bytes if "
           "every row shipped: %.0fx less)\n",
           st.partial_bytes, st.naive_bytes,
           static_cast<double>(st.naive_bytes) /
               std::max<size_t>(1, st.partial_bytes));
  }
  return 0;
}
