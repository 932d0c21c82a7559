/// \file executor.h
/// \brief Materializing executor for logical plans: hash joins for
/// equi-predicates, nested loops otherwise, hash aggregation, sorting, set
/// operations. Records actual row counts on each plan node so the learned
/// optimizer (src/optimizer) can harvest estimate/actual differentials.
/// It is the single-node oracle of the cluster engine, which shares its
/// two streaming operators: the per-DN join probes a HashJoin and every
/// partial and final aggregate folds through an Aggregator.
#pragma once

#include <functional>
#include <unordered_map>

#include "common/result.h"
#include "sql/plan.h"
#include "sql/table.h"

namespace ofi::sql {

/// \brief Hash aggregation over a stream of rows: the one GROUP BY +
/// COUNT/SUM/MIN/MAX/AVG state behind Executor's Aggregate node, the
/// per-DN fused partial aggregate and the CN final aggregate.
///
/// Bind once on the input schema, Add each row, then Finish once (it hands
/// over the accumulated state). The output has the group columns (the
/// input schema's Column for each key), then one column per spec: COUNT is
/// int64, AVG double, and SUM/MIN/MAX take the type of the first added
/// row's argument value (kNull when no row was added, or when that value
/// was NULL). A global aggregate over no rows yields one row of COUNT 0 /
/// NULL. Aggregates skip NULL arguments; integer SUM wraps (WrapAdd).
/// Binding resolves the argument expressions in place, so concurrent
/// aggregators need their own spec clones.
class Aggregator {
 public:
  Aggregator(std::vector<std::string> group_by, std::vector<AggSpec> specs)
      : group_by_(std::move(group_by)), specs_(std::move(specs)) {}

  Status Bind(const Schema& input);
  void Add(const Row& row);
  Table Finish();

 private:
  struct State {
    Row group_key;
    std::vector<int64_t> counts;
    std::vector<Value> accum;  // SUM/MIN/MAX/AVG accumulators
  };

  std::vector<std::string> group_by_;
  std::vector<AggSpec> specs_;
  std::vector<size_t> group_idx_;
  std::vector<Column> out_cols_;  // groups, then one per spec
  bool typed_ = false;            // out_cols_ typed by the first Add
  std::unordered_map<size_t, std::vector<State>> groups_;
  size_t num_groups_ = 0;
};

/// \brief The hash path of an equi-join: the one build-and-probe behind
/// Executor's Join node and the per-DN join fragment.
///
/// Bind splits the predicate into its top-level conjuncts: each cross-side
/// `col = col` (IsEquiJoinPredicate) is a hash key, and the rest conjoin
/// into the residual, bound in place on left ++ right (concurrent joins
/// need their own predicate clones). Build indexes one side's rows by
/// reference (the right side unless `build_left`); they must outlive every
/// Probe. Probe takes a row of the other side and calls `on_match(joined)`
/// for each build row whose keys equal its own (NULL keys never match) and
/// whose `joined` = left ++ right passes the residual, in a fixed order:
/// the output is left ++ right whichever side was built. `joined` is one
/// scratch row reused across matches; `on_match` returns false to stop the
/// probe.
class HashJoin {
 public:
  Status Bind(const Schema& left, const Schema& right, const ExprPtr& predicate);
  /// False when no conjunct is a hash key: Executor then joins by nested
  /// loop, testing each concatenated pair with PassesResidual.
  bool has_keys() const { return !lkeys_.empty(); }
  void Build(const std::vector<Row>& rows, bool build_left = false);
  void Probe(const Row& probe, const std::function<bool(const Row&)>& on_match);
  bool PassesResidual(const Row& joined) const;

 private:
  std::vector<size_t> lkeys_, rkeys_;
  ExprPtr residual_;
  bool build_left_ = false;
  const std::vector<Row>* build_rows_ = nullptr;
  std::unordered_multimap<size_t, size_t> build_;
  Row scratch_;
};

/// \brief Executes logical plans against a catalog.
class Executor {
 public:
  explicit Executor(const Catalog* catalog) : catalog_(catalog) {}

  /// Executes the plan, returning the materialized result. As a side effect
  /// fills `actual_rows` on every plan node.
  Result<Table> Execute(const PlanPtr& plan);

  /// Total rows processed across all operators in the last Execute call —
  /// a machine-independent work measure used by benchmarks.
  uint64_t rows_processed() const { return rows_processed_; }

 private:
  Result<Table> ExecNode(const PlanNode* node);
  Result<Table> ExecScan(const PlanNode* node);
  Result<Table> ExecFilter(const PlanNode* node);
  Result<Table> ExecProject(const PlanNode* node);
  Result<Table> ExecJoin(const PlanNode* node);
  Result<Table> ExecAggregate(const PlanNode* node);
  Result<Table> ExecSort(const PlanNode* node);
  Result<Table> ExecLimit(const PlanNode* node);
  Result<Table> ExecSetOp(const PlanNode* node);

  const Catalog* catalog_;
  uint64_t rows_processed_ = 0;
};

/// Splits a predicate tree into its top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& pred, std::vector<ExprPtr>* out);

/// True if `e` is `col = col` with one side resolvable in `left` and the
/// other in `right`; outputs the two column names oriented (left, right).
bool IsEquiJoinPredicate(const Expr& e, const Schema& left, const Schema& right,
                         std::string* left_col, std::string* right_col);

}  // namespace ofi::sql
