/// \file workloads.h
/// \brief The four perfbench workloads. Each function runs ONE round: a
/// fresh cluster or session is set up, then the workload's fixed operation
/// list — generated from RunConfig::seed, so every round of a run and every
/// run with the same seed does identical work — is driven by one client in
/// a closed loop with one operation outstanding. Every result is checked.
/// perfbench/README.md says why each workload exists.
#pragma once

#include <initializer_list>
#include <string>

#include "cluster/distributed_plan.h"
#include "harness.h"

namespace perfbench {

RoundResult TpccTrafficRound(const RunConfig& cfg);
RoundResult SqlPointRound(const RunConfig& cfg);
RoundResult HtapMixedRound(const RunConfig& cfg);
RoundResult OlapJoinRound(const RunConfig& cfg);

/// "(v1, v2, ...)": one row of an INSERT ... VALUES list.
std::string SqlTuple(std::initializer_list<int64_t> values);

/// Wall µs of one SimScheduler::Charge(dn 0, arrival 0, one DN statement's
/// service time) on a cluster whose workload has ended: how far the gap-fit
/// slide walks over the busy history the workload left behind before a
/// statement-sized gap turns up — what every Begin-at-0 statement pays.
double TimeSimCharge(ofi::cluster::Cluster* cluster);

/// Per-query scan and exchange counters, summed over a round's SELECTs and
/// reported per query.
class QueryCounters {
 public:
  /// One distributed SELECT: its stats, the rows it returned, and the rows
  /// its row-path scans walked (those are not in DistExecStats; the
  /// workload knows its table sizes).
  void Add(const ofi::cluster::DistExecStats& stats, size_t rows_out,
           size_t row_path_rows);
  /// Writes the per-query means and path shares into `layer`.
  void Report(std::map<std::string, double>* layer) const;

 private:
  double queries_ = 0, rows_out_ = 0, rows_examined_ = 0;
  double chunks_scanned_ = 0, chunks_pruned_ = 0, delta_rows_ = 0;
  double index_rows_ = 0, exchange_bytes_ = 0, exchange_batches_ = 0;
  double spill_bytes_ = 0;
  double dn_scans_ = 0, index_scans_ = 0, columnar_scans_ = 0;
};

}  // namespace perfbench
