#include "sql_driver.h"

#include "sql/executor.h"

namespace perfbench {

using ofi::Result;
using ofi::Status;
using ofi::cluster::DistLowering;
using ofi::cluster::DistPlanResult;
namespace sql = ofi::sql;

Result<sql::Table> SqlDriver::Execute(const std::string& statement) {
  last_distributed_ = false;
  if (tracer_ == nullptr) {
    OFI_ASSIGN_OR_RETURN(sql::Table out, session_.Execute(statement));
    const auto& last = session_.last();
    if (last.select && last.distributed) {
      last_distributed_ = true;
      last_stats_ = last.stats;
    }
    return out;
  }
  Result<sql::Statement> parsed = [&] {
    Tracer::Span span(tracer_, "sql.parse");
    return sql::Parse(statement);
  }();
  OFI_RETURN_NOT_OK(parsed.status());
  switch (parsed->kind) {
    case sql::StatementKind::kSelect:
      return TracedSelect(*parsed->select);
    case sql::StatementKind::kInsert:
      OFI_RETURN_NOT_OK(TracedInsert(*parsed->insert));
      return sql::Table{};
    default:
      return Status::InvalidArgument("perfbench times SELECT and INSERT only");
  }
}

Result<sql::Table> SqlDriver::TracedSelect(const sql::SelectStatement& stmt) {
  Result<sql::PlanPtr> plan = [&]() -> Result<sql::PlanPtr> {
    Tracer::Span span(tracer_, "optimizer.plan");
    ofi::optimizer::Optimizer opt(&catalog(), &stats_, /*store=*/nullptr);
    sql::JoinPlanner join_planner =
        [&opt](std::vector<sql::PlannedScan> scans,
               std::vector<sql::ExprPtr> preds) -> Result<sql::PlanPtr> {
      std::vector<ofi::optimizer::ScanSpec> specs;
      for (auto& s : scans) {
        specs.push_back(ofi::optimizer::ScanSpec{s.table, s.predicate, s.alias});
      }
      return opt.PlanJoinQuery(std::move(specs), std::move(preds));
    };
    return sql::PlanSelect(stmt, catalog(), join_planner);
  }();
  OFI_RETURN_NOT_OK(plan.status());

  DistLowering lowering;
  {
    Tracer::Span span(tracer_, "cluster.lower");
    lowering = LowerSelectPlan(*plan, &cluster(), &stats_,
                               session_.exec_options());
  }
  if (!lowering.ok()) {
    Tracer::Span span(tracer_, "sql.execute");
    sql::Executor exec(&catalog());
    return exec.Execute(*plan);
  }
  Result<DistPlanResult> dist = [&] {
    Tracer::Span span(tracer_, "cluster.exec");
    return ExecuteDistPlan(&cluster(), lowering.root, session_.exec_options());
  }();
  OFI_RETURN_NOT_OK(dist.status());
  last_distributed_ = true;
  last_stats_ = dist->stats;
  if (lowering.cn_post.empty()) return std::move(dist->table);

  // The CN re-executes the plan nodes above the distributed cut over the
  // gathered rows, innermost first (as DistributedSqlSession does).
  Tracer::Span span(tracer_, "cluster.cn_post");
  sql::PlanPtr post = sql::MakeValues(std::move(dist->table));
  for (auto it = lowering.cn_post.rbegin(); it != lowering.cn_post.rend();
       ++it) {
    const sql::PlanNode* n = *it;
    switch (n->kind) {
      case sql::PlanKind::kFilter:
        post = sql::MakeFilter(std::move(post), n->predicate->Clone());
        break;
      case sql::PlanKind::kProject: {
        std::vector<sql::ExprPtr> exprs;
        for (const auto& e : n->projections) exprs.push_back(e->Clone());
        post = sql::MakeProject(std::move(post), std::move(exprs),
                                n->projection_names);
        break;
      }
      case sql::PlanKind::kSort: {
        std::vector<sql::SortKey> keys;
        for (const auto& k : n->sort_keys) {
          keys.push_back(sql::SortKey{k.expr->Clone(), k.ascending});
        }
        post = sql::MakeSort(std::move(post), std::move(keys));
        break;
      }
      case sql::PlanKind::kLimit:
        post = sql::MakeLimit(std::move(post), n->limit, n->offset);
        break;
      default:
        return Status::Internal("unexpected CN-side plan node");
    }
  }
  sql::Catalog empty;
  sql::Executor exec(&empty);
  return exec.Execute(post);
}

Status SqlDriver::TracedInsert(const sql::InsertStatement& insert) {
  OFI_ASSIGN_OR_RETURN(auto table, catalog().Get(insert.table));
  for (const auto& row : insert.rows) {
    if (row.empty()) return Status::InvalidArgument("cannot insert an empty row");
    {
      Tracer::Span span(tracer_, "cluster.mirror_append");
      OFI_RETURN_NOT_OK(table->Append(row));
    }
    ofi::cluster::Txn txn = [&] {
      Tracer::Span span(tracer_, "txn.begin");
      return cluster().Begin(ofi::cluster::TxnScope::kSingleShard);
    }();
    {
      Tracer::Span span(tracer_, "txn.write");
      OFI_RETURN_NOT_OK(txn.Insert(insert.table, row[0], row));
    }
    Tracer::Span span(tracer_, "txn.commit");
    OFI_RETURN_NOT_OK(txn.Commit());
  }
  Tracer::Span span(tracer_, "optimizer.analyze");
  stats_.Put(insert.table, ofi::optimizer::AnalyzeTable(*table));
  return Status::OK();
}

}  // namespace perfbench
