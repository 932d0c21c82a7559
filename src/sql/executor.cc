#include "sql/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace ofi::sql {
namespace {

size_t HashRow(const Row& row, const std::vector<size_t>& cols) {
  size_t h = 0x811C9DC5;
  for (size_t c : cols) {
    h = h * 1099511628211ULL ^ row[c].Hash();
  }
  return h;
}

bool RowKeysEqual(const Row& a, const std::vector<size_t>& acols, const Row& b,
                  const std::vector<size_t>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    if (!a[acols[i]].Equals(b[bcols[i]])) return false;
  }
  return true;
}

size_t HashWholeRow(const Row& row) {
  size_t h = 0x811C9DC5;
  for (const auto& v : row) h = h * 1099511628211ULL ^ v.Hash();
  return h;
}

struct WholeRowHash {
  size_t operator()(const Row& r) const { return HashWholeRow(r); }
};
struct WholeRowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};

/// Infers an expression's output type by probing the first row (NULL-typed
/// when the input is empty — consumers treat unknown as NULL-compatible).
TypeId InferType(const Expr& e, const Table& input) {
  if (input.num_rows() == 0) return TypeId::kNull;
  return e.Eval(input.rows().front()).type();
}

}  // namespace

void SplitConjuncts(const ExprPtr& pred, std::vector<ExprPtr>* out) {
  if (!pred) return;
  if (pred->kind() == ExprKind::kLogical &&
      pred->logical_op() == LogicalOp::kAnd) {
    SplitConjuncts(pred->children()[0], out);
    SplitConjuncts(pred->children()[1], out);
    return;
  }
  out->push_back(pred);
}

bool IsEquiJoinPredicate(const Expr& e, const Schema& left, const Schema& right,
                         std::string* left_col, std::string* right_col) {
  if (e.kind() != ExprKind::kCompare || e.compare_op() != CompareOp::kEq) {
    return false;
  }
  const auto& kids = e.children();
  if (kids[0]->kind() != ExprKind::kColumn || kids[1]->kind() != ExprKind::kColumn) {
    return false;
  }
  const std::string& a = kids[0]->column_name();
  const std::string& b = kids[1]->column_name();
  bool a_left = left.IndexOf(a).ok(), a_right = right.IndexOf(a).ok();
  bool b_left = left.IndexOf(b).ok(), b_right = right.IndexOf(b).ok();
  if (a_left && b_right && !(a_right && b_left)) {
    *left_col = a;
    *right_col = b;
    return true;
  }
  if (b_left && a_right) {
    *left_col = b;
    *right_col = a;
    return true;
  }
  return false;
}

Result<Table> Executor::Execute(const PlanPtr& plan) {
  rows_processed_ = 0;
  if (!plan) return Status::InvalidArgument("null plan");
  return ExecNode(plan.get());
}

Result<Table> Executor::ExecNode(const PlanNode* node) {
  Result<Table> result = [&]() -> Result<Table> {
    switch (node->kind) {
      case PlanKind::kScan: return ExecScan(node);
      case PlanKind::kFilter: return ExecFilter(node);
      case PlanKind::kProject: return ExecProject(node);
      case PlanKind::kJoin: return ExecJoin(node);
      case PlanKind::kAggregate: return ExecAggregate(node);
      case PlanKind::kSort: return ExecSort(node);
      case PlanKind::kLimit: return ExecLimit(node);
      case PlanKind::kSetOp: return ExecSetOp(node);
      case PlanKind::kValues: {
        Table t = *node->values;
        if (!node->alias.empty()) {
          t = Table(t.schema().WithQualifier(node->alias),
                    std::move(t.mutable_rows()));
        }
        return t;
      }
    }
    return Status::Internal("unknown plan kind");
  }();
  if (result.ok()) {
    const_cast<PlanNode*>(node)->actual_rows =
        static_cast<double>(result.ValueOrDie().num_rows());
    rows_processed_ += result.ValueOrDie().num_rows();
  }
  return result;
}

Result<Table> Executor::ExecScan(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(std::shared_ptr<Table> src, catalog_->Get(node->table_name));
  Schema schema = node->alias.empty() ? src->schema()
                                      : src->schema().WithQualifier(node->alias);
  Table out(schema);
  if (node->predicate) {
    OFI_RETURN_NOT_OK(node->predicate->Bind(schema));
  }
  for (const auto& row : src->rows()) {
    if (node->predicate) {
      Value v = node->predicate->Eval(row);
      if (v.is_null() || !v.AsBool()) continue;
    }
    out.mutable_rows().push_back(row);
  }
  return out;
}

Result<Table> Executor::ExecFilter(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(Table in, ExecNode(node->children[0].get()));
  OFI_RETURN_NOT_OK(node->predicate->Bind(in.schema()));
  Table out(in.schema());
  for (auto& row : in.mutable_rows()) {
    Value v = node->predicate->Eval(row);
    if (!v.is_null() && v.AsBool()) out.mutable_rows().push_back(std::move(row));
  }
  return out;
}

Result<Table> Executor::ExecProject(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(Table in, ExecNode(node->children[0].get()));
  std::vector<Column> cols;
  for (size_t i = 0; i < node->projections.size(); ++i) {
    OFI_RETURN_NOT_OK(node->projections[i]->Bind(in.schema()));
    std::string name = i < node->projection_names.size()
                           ? node->projection_names[i]
                           : "col" + std::to_string(i);
    cols.push_back(Column{name, InferType(*node->projections[i], in), ""});
  }
  Table out(Schema(std::move(cols)));
  out.mutable_rows().reserve(in.num_rows());
  for (const auto& row : in.rows()) {
    Row r;
    r.reserve(node->projections.size());
    for (const auto& e : node->projections) r.push_back(e->Eval(row));
    out.mutable_rows().push_back(std::move(r));
  }
  return out;
}

Status HashJoin::Bind(const Schema& left, const Schema& right,
                      const ExprPtr& predicate) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(predicate, &conjuncts);
  std::vector<ExprPtr> residual;
  for (const auto& c : conjuncts) {
    std::string lc, rc;
    if (IsEquiJoinPredicate(*c, left, right, &lc, &rc)) {
      auto li = left.IndexOf(lc);
      auto ri = right.IndexOf(rc);
      if (li.ok() && ri.ok()) {
        lkeys_.push_back(*li);
        rkeys_.push_back(*ri);
        continue;
      }
    }
    residual.push_back(c);
  }
  residual_ = ConjoinAll(residual);
  if (residual_) OFI_RETURN_NOT_OK(residual_->Bind(left.Concat(right)));
  return Status::OK();
}

void HashJoin::Build(const std::vector<Row>& rows, bool build_left) {
  build_left_ = build_left;
  build_rows_ = &rows;
  const std::vector<size_t>& keys = build_left ? lkeys_ : rkeys_;
  build_.reserve(rows.size() * 2);
  for (size_t i = 0; i < rows.size(); ++i) {
    build_.emplace(HashRow(rows[i], keys), i);
  }
}

void HashJoin::Probe(const Row& probe,
                     const std::function<bool(const Row&)>& on_match) {
  const std::vector<size_t>& pkeys = build_left_ ? rkeys_ : lkeys_;
  const std::vector<size_t>& bkeys = build_left_ ? lkeys_ : rkeys_;
  for (size_t k : pkeys) {
    if (probe[k].is_null()) return;
  }
  auto range = build_.equal_range(HashRow(probe, pkeys));
  bool filled = false;
  for (auto it = range.first; it != range.second; ++it) {
    const Row& build = (*build_rows_)[it->second];
    if (!RowKeysEqual(probe, pkeys, build, bkeys)) continue;
    // The probe row's half of left ++ right is copied once per probe, the
    // build row's half once per match.
    if (!filled) {
      scratch_.resize(probe.size() + build.size());
      std::copy(probe.begin(), probe.end(),
                scratch_.begin() + (build_left_ ? build.size() : 0));
      filled = true;
    }
    std::copy(build.begin(), build.end(),
              scratch_.begin() + (build_left_ ? 0 : probe.size()));
    if (PassesResidual(scratch_) && !on_match(scratch_)) return;
  }
}

bool HashJoin::PassesResidual(const Row& joined) const {
  if (!residual_) return true;
  Value v = residual_->Eval(joined);
  return !v.is_null() && v.AsBool();
}

Result<Table> Executor::ExecJoin(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(Table left, ExecNode(node->children[0].get()));
  OFI_ASSIGN_OR_RETURN(Table right, ExecNode(node->children[1].get()));
  Schema out_schema = left.schema().Concat(right.schema());
  HashJoin join;
  OFI_RETURN_NOT_OK(join.Bind(left.schema(), right.schema(), node->predicate));

  // Semi joins only emit left rows, so their output schema is the left's.
  const bool semi = node->join_type == JoinType::kSemi;
  Table out(semi ? left.schema() : out_schema);
  // Emits one match; false stops the left row's probe (a semi join needs
  // only its first match).
  auto emit = [&](const Row& l, const Row& joined) {
    out.mutable_rows().push_back(semi ? l : joined);
    return !semi;
  };
  if (join.has_keys()) join.Build(right.rows());
  for (const auto& lrow : left.rows()) {
    bool matched = false;
    if (join.has_keys()) {
      join.Probe(lrow, [&](const Row& joined) {
        matched = true;
        return emit(lrow, joined);
      });
    } else {
      // Nested loop join.
      for (const auto& rrow : right.rows()) {
        Row joined = lrow;
        joined.insert(joined.end(), rrow.begin(), rrow.end());
        if (!join.PassesResidual(joined)) continue;
        matched = true;
        if (!emit(lrow, joined)) break;
      }
    }
    if (!matched && node->join_type == JoinType::kLeftOuter) {
      Row joined = lrow;
      joined.resize(out_schema.num_columns(), Value::Null());
      out.mutable_rows().push_back(std::move(joined));
    }
  }
  return out;
}

Status Aggregator::Bind(const Schema& input) {
  for (const auto& g : group_by_) {
    OFI_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(g));
    group_idx_.push_back(idx);
    out_cols_.push_back(input.column(idx));
  }
  for (const auto& a : specs_) {
    if (a.arg) OFI_RETURN_NOT_OK(a.arg->Bind(input));
    TypeId t = a.func == AggFunc::kCount
                   ? TypeId::kInt64
                   : (a.func == AggFunc::kAvg
                          ? TypeId::kDouble
                          : (a.arg ? TypeId::kNull : TypeId::kInt64));
    out_cols_.push_back(Column{a.name, t, ""});
  }
  return Status::OK();
}

void Aggregator::Add(const Row& row) {
  size_t h = HashRow(row, group_idx_);
  auto& bucket = groups_[h];
  State* state = nullptr;
  for (auto& s : bucket) {
    bool eq = true;
    for (size_t i = 0; i < group_idx_.size(); ++i) {
      if (!s.group_key[i].Equals(row[group_idx_[i]])) {
        eq = false;
        break;
      }
    }
    if (eq) {
      state = &s;
      break;
    }
  }
  if (state == nullptr) {
    bucket.push_back(State{});
    state = &bucket.back();
    for (size_t gi : group_idx_) state->group_key.push_back(row[gi]);
    state->counts.assign(specs_.size(), 0);
    state->accum.assign(specs_.size(), Value::Null());
    ++num_groups_;
  }
  for (size_t ai = 0; ai < specs_.size(); ++ai) {
    const AggSpec& spec = specs_[ai];
    Value v = spec.arg ? spec.arg->Eval(row) : Value(int64_t{1});
    if (!typed_ && spec.arg && spec.func != AggFunc::kCount &&
        spec.func != AggFunc::kAvg) {
      out_cols_[group_idx_.size() + ai].type = v.type();
    }
    if (v.is_null()) continue;  // SQL aggregates skip NULLs
    state->counts[ai]++;
    Value& acc = state->accum[ai];
    switch (spec.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (acc.is_null()) {
          acc = v;
        } else if (acc.type() == TypeId::kDouble ||
                   v.type() == TypeId::kDouble) {
          acc = Value(acc.AsDouble() + v.AsDouble());
        } else {
          acc = Value(WrapAdd(acc.AsInt(), v.AsInt()));
        }
        break;
      case AggFunc::kMin:
        if (acc.is_null() || v.Compare(acc) < 0) acc = v;
        break;
      case AggFunc::kMax:
        if (acc.is_null() || v.Compare(acc) > 0) acc = v;
        break;
    }
  }
  typed_ = true;
}

Table Aggregator::Finish() {
  Table out{Schema(out_cols_)};
  // Global aggregate over empty input still yields one row (COUNT=0).
  if (num_groups_ == 0 && group_idx_.empty()) {
    Row r;
    for (const auto& a : specs_) {
      r.push_back(a.func == AggFunc::kCount ? Value(int64_t{0}) : Value::Null());
    }
    out.mutable_rows().push_back(std::move(r));
    return out;
  }
  for (auto& [h, bucket] : groups_) {
    for (auto& s : bucket) {
      Row r = std::move(s.group_key);
      for (size_t ai = 0; ai < specs_.size(); ++ai) {
        switch (specs_[ai].func) {
          case AggFunc::kCount:
            r.push_back(Value(s.counts[ai]));
            break;
          case AggFunc::kAvg:
            r.push_back(s.counts[ai] == 0
                            ? Value::Null()
                            : Value(s.accum[ai].AsDouble() / s.counts[ai]));
            break;
          default:
            r.push_back(std::move(s.accum[ai]));
        }
      }
      out.mutable_rows().push_back(std::move(r));
    }
  }
  return out;
}

Result<Table> Executor::ExecAggregate(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(Table in, ExecNode(node->children[0].get()));
  Aggregator agg(node->group_by, node->aggregates);
  OFI_RETURN_NOT_OK(agg.Bind(in.schema()));
  for (const auto& row : in.rows()) agg.Add(row);
  return agg.Finish();
}

Result<Table> Executor::ExecSort(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(Table in, ExecNode(node->children[0].get()));
  for (const auto& k : node->sort_keys) {
    OFI_RETURN_NOT_OK(k.expr->Bind(in.schema()));
  }
  std::stable_sort(in.mutable_rows().begin(), in.mutable_rows().end(),
                   [&](const Row& a, const Row& b) {
                     for (const auto& k : node->sort_keys) {
                       int c = k.expr->Eval(a).Compare(k.expr->Eval(b));
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return in;
}

Result<Table> Executor::ExecLimit(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(Table in, ExecNode(node->children[0].get()));
  Table out(in.schema());
  size_t start = std::min(node->offset, in.num_rows());
  size_t end = std::min(start + node->limit, in.num_rows());
  for (size_t i = start; i < end; ++i) {
    out.mutable_rows().push_back(std::move(in.mutable_rows()[i]));
  }
  return out;
}

Result<Table> Executor::ExecSetOp(const PlanNode* node) {
  OFI_ASSIGN_OR_RETURN(Table left, ExecNode(node->children[0].get()));
  OFI_ASSIGN_OR_RETURN(Table right, ExecNode(node->children[1].get()));
  if (left.schema().num_columns() != right.schema().num_columns()) {
    return Status::InvalidArgument("set op arity mismatch");
  }
  Table out(left.schema());
  switch (node->set_op) {
    case SetOpType::kUnionAll: {
      out.mutable_rows() = std::move(left.mutable_rows());
      for (auto& r : right.mutable_rows()) out.mutable_rows().push_back(std::move(r));
      break;
    }
    case SetOpType::kUnion: {
      std::unordered_set<Row, WholeRowHash, WholeRowEq> seen;
      for (auto* t : {&left, &right}) {
        for (auto& r : t->mutable_rows()) {
          if (seen.insert(r).second) out.mutable_rows().push_back(std::move(r));
        }
      }
      break;
    }
    case SetOpType::kIntersect: {
      std::unordered_set<Row, WholeRowHash, WholeRowEq> rset(
          right.rows().begin(), right.rows().end());
      std::unordered_set<Row, WholeRowHash, WholeRowEq> emitted;
      for (auto& r : left.mutable_rows()) {
        if (rset.count(r) && emitted.insert(r).second) {
          out.mutable_rows().push_back(std::move(r));
        }
      }
      break;
    }
    case SetOpType::kExcept: {
      std::unordered_set<Row, WholeRowHash, WholeRowEq> rset(
          right.rows().begin(), right.rows().end());
      std::unordered_set<Row, WholeRowHash, WholeRowEq> emitted;
      for (auto& r : left.mutable_rows()) {
        if (!rset.count(r) && emitted.insert(r).second) {
          out.mutable_rows().push_back(std::move(r));
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace ofi::sql
