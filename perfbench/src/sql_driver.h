/// \file sql_driver.h
/// \brief How the SQL workloads issue statements. Untraced, every statement
/// goes through DistributedSqlSession::Execute, exactly as sql_shell runs
/// it. Traced, SELECTs and INSERTs are driven through the layers' public
/// functions from here — sql::Parse, sql::PlanSelect with the optimizer
/// join planner, LowerSelectPlan, ExecuteDistPlan, Cluster::Begin /
/// Txn::Insert / Txn::Commit and optimizer::AnalyzeTable — in the same order
/// the session calls them, with one span around each call.
#pragma once

#include <string>

#include "cluster/distributed_sql.h"
#include "harness.h"

namespace perfbench {

class SqlDriver {
 public:
  SqlDriver(int num_dns, Tracer* tracer) : session_(num_dns), tracer_(tracer) {}

  /// Call after set-up (DDL and bulk INSERTs, always through session()):
  /// snapshots the session's statistics, which the traced path maintains
  /// from then on like the session would.
  void EndSetup() { stats_ = session_.stats(); }

  /// One timed statement (SELECT or INSERT).
  ofi::Result<ofi::sql::Table> Execute(const std::string& statement);

  /// Stats of the last distributed SELECT; nullptr when it fell back to
  /// single-node execution (or was not a SELECT).
  const ofi::cluster::DistExecStats* last_stats() const {
    return last_distributed_ ? &last_stats_ : nullptr;
  }

  ofi::cluster::DistributedSqlSession& session() { return session_; }
  ofi::cluster::Cluster& cluster() { return session_.cluster(); }
  ofi::sql::Catalog& catalog() { return session_.catalog(); }

 private:
  ofi::Result<ofi::sql::Table> TracedSelect(const ofi::sql::SelectStatement& s);
  ofi::Status TracedInsert(const ofi::sql::InsertStatement& insert);

  ofi::cluster::DistributedSqlSession session_;
  Tracer* tracer_;
  ofi::optimizer::StatsRegistry stats_;  // traced path only
  bool last_distributed_ = false;
  ofi::cluster::DistExecStats last_stats_;
};

}  // namespace perfbench
