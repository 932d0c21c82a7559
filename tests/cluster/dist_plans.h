/// Plan builders for tests that run hand-built distributed plans through
/// ExecuteDistPlan: the two core shapes — a scatter-gather aggregate and a
/// two-table equi-join gathered as rows.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/distributed_plan.h"

namespace ofi::cluster {

/// `SELECT group_by..., aggs... FROM table [WHERE filter] GROUP BY
/// group_by`: scan -> fused partial agg -> gather partials -> final agg at
/// the CN. ScanPath::kColumnar still falls back to the row store per shard
/// when the table has no columnar copy or the filter is not recognizable.
inline DistOpPtr AggPlan(std::string table, sql::ExprPtr filter,
                         std::vector<std::string> group_by,
                         std::vector<DistributedAgg> aggs,
                         ScanPath path = ScanPath::kColumnar) {
  return MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(
                     MakeDistScan(std::move(table), std::move(filter), path),
                     group_by, aggs)),
      group_by, aggs);
}

/// `SELECT * FROM left JOIN right ON left_key = right_key [AND residual]`
/// with each side's filter pushed below the exchange. Output schema is
/// left ++ right, as in the local executor.
struct JoinQuery {
  std::string left_table;
  std::string right_table;
  std::string left_key;   // column in left_table's schema
  std::string right_key;  // column in right_table's schema
  sql::ExprPtr left_filter;
  sql::ExprPtr right_filter;
  sql::ExprPtr residual;

  /// Row scans feeding a hash join, gathered as rows. kAuto lets the
  /// executor choose the join strategy from sizes; kBroadcast /
  /// kRepartition force it.
  DistOpPtr Plan(JoinStrategy strategy = JoinStrategy::kAuto) const {
    auto clone = [](const sql::ExprPtr& e) {
      return e ? e->Clone() : nullptr;
    };
    return MakeGather(
        MakeDistHashJoin(MakeDistScan(left_table, clone(left_filter)),
                         MakeDistScan(right_table, clone(right_filter)),
                         left_key, right_key, clone(residual), strategy));
  }
};

/// Exchange spill as the channels themselves counted it, summed over
/// DistExecStats::channels: {bytes, segments}. DistExecStats::spill_bytes
/// and spill_segments must report exactly this under either schedule.
inline std::pair<size_t, size_t> ChannelSpill(const DistExecStats& stats) {
  std::pair<size_t, size_t> sum{0, 0};
  for (const exchange::ChannelStats& ch : stats.channels) {
    sum.first += ch.spilled_bytes;
    sum.second += ch.spill_segments;
  }
  return sum;
}

}  // namespace ofi::cluster
