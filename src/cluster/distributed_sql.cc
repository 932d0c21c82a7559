#include "cluster/distributed_sql.h"

#include "sql/executor.h"

namespace ofi::cluster {

DistributedSqlSession::DistributedSqlSession(int num_dns, Protocol protocol)
    : cluster_(num_dns, protocol) {}

Result<sql::PlanPtr> DistributedSqlSession::PlanQuery(
    const sql::SelectStatement& stmt) {
  // The ordinary cost-based front-end plans against the CN mirror; the
  // cluster only enters the picture at lowering time.
  optimizer::Optimizer opt(&catalog_, &stats_, /*store=*/nullptr);
  sql::JoinPlanner join_planner =
      [&opt](std::vector<sql::PlannedScan> scans,
             std::vector<sql::ExprPtr> preds) -> Result<sql::PlanPtr> {
    std::vector<optimizer::ScanSpec> specs;
    specs.reserve(scans.size());
    for (auto& s : scans) {
      specs.push_back(optimizer::ScanSpec{s.table, s.predicate, s.alias});
    }
    return opt.PlanJoinQuery(std::move(specs), std::move(preds));
  };
  return sql::PlanSelect(stmt, catalog_, join_planner);
}

Result<sql::Table> DistributedSqlSession::ExecuteSelect(
    const sql::SelectStatement& stmt) {
  last_ = QueryInfo{};
  last_.select = true;
  OFI_ASSIGN_OR_RETURN(sql::PlanPtr plan, PlanQuery(stmt));
  DistLowering lowering =
      LowerSelectPlan(plan, &cluster_, &stats_, exec_options_);
  if (!lowering.ok()) {
    last_.fallback_reason = lowering.fallback_reason;
    sql::Executor exec(&catalog_);
    return exec.Execute(plan);
  }

  OFI_ASSIGN_OR_RETURN(DistPlanResult dist,
                       ExecuteDistPlan(&cluster_, lowering.root, exec_options_));
  last_.distributed = true;
  last_.stats = dist.stats;
  if (lowering.cn_post.empty()) return std::move(dist.table);

  // Re-execute the plan nodes above the distributed cut (HAVING filters,
  // projections, ORDER BY, LIMIT) over the gathered result, innermost
  // first. Expressions are cloned: Bind() caches indices in place and the
  // logical plan must stay reusable.
  sql::PlanPtr post = sql::MakeValues(std::move(dist.table));
  for (auto it = lowering.cn_post.rbegin(); it != lowering.cn_post.rend();
       ++it) {
    const sql::PlanNode* n = *it;
    switch (n->kind) {
      case sql::PlanKind::kFilter:
        post = sql::MakeFilter(std::move(post),
                               n->predicate ? n->predicate->Clone() : nullptr);
        break;
      case sql::PlanKind::kProject: {
        std::vector<sql::ExprPtr> exprs;
        exprs.reserve(n->projections.size());
        for (const auto& e : n->projections) {
          exprs.push_back(e ? e->Clone() : nullptr);
        }
        post = sql::MakeProject(std::move(post), std::move(exprs),
                                n->projection_names);
        break;
      }
      case sql::PlanKind::kSort: {
        std::vector<sql::SortKey> keys;
        keys.reserve(n->sort_keys.size());
        for (const auto& k : n->sort_keys) {
          keys.push_back(sql::SortKey{k.expr ? k.expr->Clone() : nullptr,
                                      k.ascending});
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
  sql::Catalog empty;  // the Values leaf carries the gathered rows
  sql::Executor exec(&empty);
  return exec.Execute(post);
}

Result<sql::Table> DistributedSqlSession::Execute(
    const std::string& statement) {
  OFI_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(statement));
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable: {
      const auto& create = *stmt.create_table;
      if (catalog_.Contains(create.table)) {
        return Status::AlreadyExists("table exists: " + create.table);
      }
      // Qualified columns on BOTH sides, so an expression planned against
      // the mirror binds identically on a DN shard schema.
      sql::Schema qualified = create.schema.WithQualifier(create.table);
      OFI_RETURN_NOT_OK(cluster_.CreateTable(create.table, qualified));
      catalog_.Register(create.table, sql::Table(qualified));
      stats_.Put(create.table, optimizer::TableStats{});
      return sql::Table{};
    }
    case sql::StatementKind::kDropTable: {
      OFI_RETURN_NOT_OK(catalog_.Drop(stmt.drop_table->table));
      cluster_.DropColumnar(stmt.drop_table->table);
      cluster_.DropIndexes(stmt.drop_table->table);
      return sql::Table{};
    }
    case sql::StatementKind::kCreateIndex: {
      const auto& create = *stmt.create_index;
      if (!catalog_.Contains(create.table)) {
        return Status::NotFound("no such table: " + create.table);
      }
      OFI_RETURN_NOT_OK(
          cluster_.CreateIndex(create.table, create.column, create.ordered));
      return sql::Table{};
    }
    case sql::StatementKind::kDropIndex: {
      cluster_.DropIndexes(stmt.drop_index->table);
      return sql::Table{};
    }
    case sql::StatementKind::kInsert: {
      const auto& insert = *stmt.insert;
      OFI_ASSIGN_OR_RETURN(auto table, catalog_.Get(insert.table));
      // Every row's shape is checked before any row ships.
      for (const auto& row : insert.rows) {
        if (row.empty()) {
          return Status::InvalidArgument("cannot insert an empty row");
        }
        if (row.size() != table->schema().num_columns()) {
          return Status::InvalidArgument("row arity mismatch");
        }
      }
      // One transaction per row; a failing row aborts its own and ends the
      // statement. The mirror only ever holds committed rows.
      Status status;
      for (const auto& row : insert.rows) {
        Txn txn = cluster_.Begin(TxnScope::kSingleShard);
        status = txn.Insert(insert.table, row[0], row);
        if (status.ok()) status = txn.Commit();
        if (!status.ok()) {
          if (!txn.finished()) (void)txn.Abort();
          break;
        }
        OFI_RETURN_NOT_OK(table->Append(row));
      }
      // Keep statistics fresh enough for small interactive sessions, over
      // every row that committed.
      stats_.Put(insert.table, optimizer::AnalyzeTable(*table));
      OFI_RETURN_NOT_OK(status);
      return sql::Table{};
    }
    case sql::StatementKind::kSelect:
      return ExecuteSelect(*stmt.select);
  }
  return Status::Internal("unhandled statement kind");
}

std::string DistributedSqlSession::LastScanReport() const {
  if (!last_.distributed || last_.stats.per_dn.empty()) return "";
  std::string out;
  for (const auto& info : last_.stats.per_dn) {
    out += "  dn" + std::to_string(info.dn) + " " + info.table + ": " +
           info.path;
    if (info.path.rfind("columnar", 0) == 0) {
      out += " chunks=" + std::to_string(info.stats.chunks_scanned) + "/" +
             std::to_string(info.stats.chunks_total) +
             " pruned=" + std::to_string(info.stats.chunks_pruned) +
             " rows=" + std::to_string(info.stats.rows_decoded) +
             " delta=" + std::to_string(info.stats.delta_rows);
      if (info.stats.morsels > 1) {
        out += " morsels=" + std::to_string(info.stats.morsels);
      }
    } else if (info.path.rfind("index", 0) == 0) {
      // Realized probe output — pairs with EXPLAIN's est_rows forecast.
      out += " rows=" + std::to_string(info.stats.index_rows);
    }
    out += "\n";
  }
  return out;
}

Result<std::string> DistributedSqlSession::Explain(const std::string& query) {
  OFI_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(query));
  if (stmt.kind != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  OFI_ASSIGN_OR_RETURN(sql::PlanPtr plan, PlanQuery(*stmt.select));
  DistLowering lowering =
      LowerSelectPlan(plan, &cluster_, &stats_, exec_options_);
  if (!lowering.ok()) {
    return "SINGLE-NODE PLAN (fallback: " + lowering.fallback_reason + ")\n" +
           plan->ToString();
  }
  std::string out = "DISTRIBUTED PLAN (over " +
                    std::to_string(ServingDns(&cluster_).size()) + " DNs)\n" +
                    lowering.root->ToString();
  // Execution mode: pipelined fragments overlap produce/consume across the
  // exchange.
  if (exec_options_.pipeline) out += "exec=pipelined\n";
  // Per-DN scan forecast (predicted path, sealed chunks and delta-tail
  // rows, zone-map prune estimate) — metadata only, nothing executes.
  std::string paths = ExplainScanPaths(&cluster_, lowering.root);
  if (!paths.empty()) out += "scan forecast:\n" + paths;
  // Exchange overflow policy: only worth a line when a cap is set.
  if (exec_options_.max_channel_bytes > 0) {
    out += "exchange: channel cap " +
           std::to_string(exec_options_.max_channel_bytes) +
           "B, overflow spills to " +
           (exec_options_.spill_dir.empty() ? "system temp dir"
                                            : exec_options_.spill_dir);
    if (exec_options_.max_spill_bytes > 0) {
      out += ", spill budget " + std::to_string(exec_options_.max_spill_bytes) +
             "B";
    }
    out += "\n";
  }
  if (exec_options_.max_build_bytes > 0) {
    out += "join build: in-memory cap " +
           std::to_string(exec_options_.max_build_bytes) +
           "B per DN, overflow spools to spill\n";
  }
  if (!lowering.cn_post.empty()) {
    out += "CN-side post:";
    // Rendered in execution order (innermost node runs first after gather).
    for (auto it = lowering.cn_post.rbegin(); it != lowering.cn_post.rend();
         ++it) {
      switch ((*it)->kind) {
        case sql::PlanKind::kFilter: out += " FILTER"; break;
        case sql::PlanKind::kProject: out += " PROJECT"; break;
        case sql::PlanKind::kSort: out += " SORT"; break;
        case sql::PlanKind::kLimit: out += " LIMIT"; break;
        default: out += " ?"; break;
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace ofi::cluster
