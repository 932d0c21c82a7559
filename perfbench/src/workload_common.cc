#include "workloads.h"

namespace perfbench {

std::string SqlTuple(std::initializer_list<int64_t> values) {
  std::string out = "(";
  for (int64_t v : values) {
    if (out.size() > 1) out += ", ";
    out += std::to_string(v);
  }
  return out += ")";
}

double TimeSimCharge(ofi::cluster::Cluster* cluster) {
  const ofi::SimTime service = cluster->latency().dn_stmt_service_us;
  auto t0 = Clock::now();
  cluster->scheduler().Charge(cluster->dn_resource(0), /*arrival=*/0, service);
  return MicrosSince(t0);
}

void QueryCounters::Add(const ofi::cluster::DistExecStats& stats,
                        size_t rows_out, size_t row_path_rows) {
  const auto& s = stats.scan_stats;
  queries_ += 1;
  rows_out_ += static_cast<double>(rows_out);
  rows_examined_ += static_cast<double>(s.rows_decoded + s.delta_rows +
                                        s.index_rows + row_path_rows);
  chunks_scanned_ += static_cast<double>(s.chunks_scanned);
  chunks_pruned_ += static_cast<double>(s.chunks_pruned);
  delta_rows_ += static_cast<double>(s.delta_rows);
  index_rows_ += static_cast<double>(s.index_rows);
  exchange_bytes_ +=
      static_cast<double>(stats.shuffle_bytes + stats.broadcast_bytes);
  exchange_batches_ += static_cast<double>(stats.exchange_batches);
  spill_bytes_ += static_cast<double>(stats.spill_bytes);
  for (const auto& dn : stats.per_dn) {
    dn_scans_ += 1;
    if (dn.path.rfind("index", 0) == 0) index_scans_ += 1;
    if (dn.path.rfind("columnar", 0) == 0) columnar_scans_ += 1;
  }
}

void QueryCounters::Report(std::map<std::string, double>* layer) const {
  if (queries_ == 0) return;
  auto& l = *layer;
  l["cluster.rows_examined_per_row_out"] =
      rows_out_ > 0 ? rows_examined_ / rows_out_ : 0;
  l["cluster.path_index_frac"] = dn_scans_ > 0 ? index_scans_ / dn_scans_ : 0;
  l["cluster.path_columnar_frac"] =
      dn_scans_ > 0 ? columnar_scans_ / dn_scans_ : 0;
  l["storage.chunks_scanned"] = chunks_scanned_ / queries_;
  l["storage.chunks_pruned"] = chunks_pruned_ / queries_;
  l["storage.delta_rows"] = delta_rows_ / queries_;
  l["storage.index_rows"] = index_rows_ / queries_;
  l["exchange.bytes"] = exchange_bytes_ / queries_;
  l["exchange.batches"] = exchange_batches_ / queries_;
  l["exchange.spill_bytes"] = spill_bytes_ / queries_;
}

}  // namespace perfbench
