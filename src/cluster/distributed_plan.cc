#include "cluster/distributed_plan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>

#include "common/thread_pool.h"
#include "sql/executor.h"
#include "storage/delta_store.h"
#include "txn/snapshot.h"

namespace ofi::cluster {
namespace {

using sql::AggFunc;
using sql::AggSpec;
using sql::Column;
using sql::Expr;
using sql::Row;
using sql::Table;
using sql::TypeId;
using sql::Value;

/// Set while a ForceColumnarMaterializeForTesting is alive.
std::atomic<bool> g_force_materialize{false};

/// The partial aggregates one requested aggregate decomposes into, and how
/// the final stage merges them.
struct PartialPlan {
  std::vector<AggSpec> partial;  // computed per shard
  // Final-stage spec over the unioned partials; AVG needs a post-division.
  std::vector<AggSpec> final_specs;
  bool is_avg = false;
  std::string sum_name, count_name;  // for AVG
};

PartialPlan DecomposeAgg(const DistributedAgg& agg) {
  PartialPlan plan;
  switch (agg.func) {
    case AggFunc::kCount:
      plan.partial = {AggSpec{AggFunc::kCount,
                              agg.column.empty() ? nullptr
                                                 : Expr::ColumnRef(agg.column),
                              agg.name}};
      // Final: COUNT partials SUM together.
      plan.final_specs = {
          AggSpec{AggFunc::kSum, Expr::ColumnRef(agg.name), agg.name}};
      break;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      plan.partial = {AggSpec{agg.func, Expr::ColumnRef(agg.column), agg.name}};
      plan.final_specs = {
          AggSpec{agg.func == AggFunc::kSum ? AggFunc::kSum : agg.func,
                  Expr::ColumnRef(agg.name), agg.name}};
      break;
    case AggFunc::kAvg:
      // AVG decomposes into (SUM, COUNT); the CN divides at the end.
      plan.is_avg = true;
      plan.sum_name = agg.name + "$sum";
      plan.count_name = agg.name + "$cnt";
      plan.partial = {
          AggSpec{AggFunc::kSum, Expr::ColumnRef(agg.column), plan.sum_name},
          AggSpec{AggFunc::kCount, Expr::ColumnRef(agg.column), plan.count_name}};
      plan.final_specs = {
          AggSpec{AggFunc::kSum, Expr::ColumnRef(plan.sum_name), plan.sum_name},
          AggSpec{AggFunc::kSum, Expr::ColumnRef(plan.count_name),
                  plan.count_name}};
      break;
  }
  return plan;
}

size_t TableBytes(const Table& t) {
  size_t n = 0;
  for (const auto& row : t.rows()) n += sql::RowByteSize(row);
  return n;
}

std::string BareName(const std::string& qualified) {
  auto dot = qualified.rfind('.');
  return dot == std::string::npos ? qualified : qualified.substr(dot + 1);
}

/// Output column names for the group-by keys. A bare name is used only when
/// it stays unambiguous across every output column; `GROUP BY a.x, b.x`
/// keeps the qualified names (both stripping to `x` would collide in the
/// projected schema). Returns InvalidArgument if names collide even
/// qualified.
Result<std::vector<std::string>> GroupOutputNames(
    const std::vector<std::string>& group_by,
    const std::vector<DistributedAgg>& aggs) {
  std::map<std::string, int> bare_uses;
  for (const auto& g : group_by) ++bare_uses[BareName(g)];
  for (const auto& a : aggs) ++bare_uses[a.name];

  std::vector<std::string> names;
  names.reserve(group_by.size());
  for (const auto& g : group_by) {
    const std::string bare = BareName(g);
    names.push_back(bare_uses[bare] > 1 ? g : bare);
  }

  std::map<std::string, int> final_uses;
  for (const auto& n : names) ++final_uses[n];
  for (const auto& a : aggs) ++final_uses[a.name];
  for (const auto& [name, uses] : final_uses) {
    if (uses > 1) {
      return Status::InvalidArgument("ambiguous output column: " + name);
    }
  }
  return names;
}

/// One shard's fragment output, filled in by a pool worker.
struct FragSlot {
  Status status = Status::OK();
  Table table;  // partial-aggregate rows or plain result rows
  size_t partial_bytes = 0;
  size_t naive_bytes = 0;
  size_t build_spill_bytes = 0;  // join build partition spooled to disk
  bool columnar = false;
  storage::ScanStats stats;  // columnar and index-probe shards
  /// Rows the shard's sink was offered, before the filter: visible heap
  /// versions on the row path (drives the deferred per-block row-scan
  /// charge), probed rows on the index path (== stats.index_rows),
  /// materialized rows on the columnar path (not charged; chunks are).
  size_t rows_examined = 0;
};

/// The one per-DN sink every scan source feeds: the heap visit, the index
/// probe and the columnar materialization. Each offered row is counted
/// (rows examined and, when asked, the naive-plan bytes, both before the
/// filter), tested once against the pushed filter, then folded into the
/// fused partial aggregate or kept in offer order.
class ShardSink {
 public:
  explicit ShardSink(bool count_naive) : count_naive_(count_naive) {}

  /// Binds on the source's schema. `filter` is cloned (Bind() caches column
  /// indices in place, so each worker binds its own copy); null keeps every
  /// row. `agg` is the fused partial aggregate; nullopt keeps the rows.
  Status Bind(const sql::Schema& schema, const sql::ExprPtr& filter,
              std::optional<sql::Aggregator> agg) {
    schema_ = schema;
    if (filter) {
      filter_ = filter->Clone();
      OFI_RETURN_NOT_OK(filter_->Bind(schema));
    }
    agg_ = std::move(agg);
    if (agg_) OFI_RETURN_NOT_OK(agg_->Bind(schema));
    return Status::OK();
  }

  template <typename R>
  void Add(R&& row) {
    ++examined_;
    if (count_naive_) naive_bytes_ += sql::RowByteSize(row);
    if (filter_) {
      Value v = filter_->Eval(row);
      if (v.is_null() || !v.AsBool()) return;
    }
    if (agg_) {
      agg_->Add(row);
    } else {
      rows_.push_back(std::forward<R>(row));
    }
  }

  /// Hands the shard's output and counters to its slot.
  void Finish(FragSlot* slot) {
    slot->rows_examined = examined_;
    slot->naive_bytes += naive_bytes_;
    if (agg_) {
      slot->table = agg_->Finish();
      slot->partial_bytes = TableBytes(slot->table);
    } else {
      slot->table = Table(std::move(schema_), std::move(rows_));
    }
  }

 private:
  bool count_naive_;
  sql::Schema schema_;
  sql::ExprPtr filter_;
  std::optional<sql::Aggregator> agg_;
  std::vector<Row> rows_;
  size_t examined_ = 0;
  size_t naive_bytes_ = 0;
};

// --- Columnar scan path (storage/column_store) -------------------------------

/// A filter the columnar kernels evaluate natively: TRUE, one inclusive
/// int64 range on a column, or one string equality. Comparison predicates
/// lower onto the range with saturated bounds, and And() of ranges on the
/// same column intersects. Anything else falls back to the row store.
struct ColumnarPredicate {
  enum class Kind { kAll, kIntRange, kStringEq };
  Kind kind = Kind::kAll;
  std::string column;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  std::string needle;
  /// Statically unsatisfiable (x > INT64_MAX, or an empty intersection):
  /// the scan short-circuits to an empty selection.
  bool never = false;
};

std::optional<ColumnarPredicate> RecognizeExpr(const Expr& e) {
  if (e.kind() == sql::ExprKind::kCompare) {
    if (e.children().size() != 2) return std::nullopt;
    const Expr& l = *e.children()[0];
    const Expr& r = *e.children()[1];
    if (l.kind() != sql::ExprKind::kColumn || r.kind() != sql::ExprKind::kLiteral) {
      return std::nullopt;
    }
    const Value& lit = r.literal();
    ColumnarPredicate p;
    p.column = l.column_name();
    if (lit.type() == TypeId::kString && e.compare_op() == sql::CompareOp::kEq) {
      p.kind = ColumnarPredicate::Kind::kStringEq;
      p.needle = lit.AsString();
      return p;
    }
    if (lit.type() != TypeId::kInt64) return std::nullopt;
    const int64_t v = lit.AsInt();
    p.kind = ColumnarPredicate::Kind::kIntRange;
    switch (e.compare_op()) {
      case sql::CompareOp::kEq:
        p.lo = p.hi = v;
        break;
      case sql::CompareOp::kGt:
        if (v == std::numeric_limits<int64_t>::max()) p.never = true;
        else p.lo = v + 1;
        break;
      case sql::CompareOp::kGe:
        p.lo = v;
        break;
      case sql::CompareOp::kLt:
        if (v == std::numeric_limits<int64_t>::min()) p.never = true;
        else p.hi = v - 1;
        break;
      case sql::CompareOp::kLe:
        p.hi = v;
        break;
      default:
        return std::nullopt;  // <> needs NULL-aware decode; not worth it
    }
    return p;
  }
  if (e.kind() == sql::ExprKind::kLogical &&
      e.logical_op() == sql::LogicalOp::kAnd && e.children().size() == 2) {
    auto a = RecognizeExpr(*e.children()[0]);
    auto b = RecognizeExpr(*e.children()[1]);
    if (!a || !b || a->kind != ColumnarPredicate::Kind::kIntRange ||
        b->kind != ColumnarPredicate::Kind::kIntRange || a->column != b->column) {
      return std::nullopt;
    }
    a->lo = std::max(a->lo, b->lo);
    a->hi = std::min(a->hi, b->hi);
    a->never = a->never || b->never || a->lo > a->hi;
    return a;
  }
  return std::nullopt;
}

/// nullopt = filter not columnar-evaluable (row fallback for the query).
std::optional<ColumnarPredicate> RecognizeFilter(const sql::ExprPtr& filter) {
  if (!filter) return ColumnarPredicate{};  // kAll
  return RecognizeExpr(*filter);
}

/// Why (or that) the fused partial aggregate can run as pure column
/// kernels. Aggregates must be COUNT(*)/COUNT/SUM/MIN/MAX over columns
/// typed exactly kInt64 (timestamps/doubles would change the executor's
/// output value types; AVG qualifies via its SUM+COUNT split); group keys
/// must resolve on the shard schema with an int64/timestamp/string payload
/// (the key types the grouped hash kernel carries). Each failure reason
/// maps to its own `columnar.fallback_*` metric.
enum class KernelSupport : uint8_t { kOk, kUnsupportedAgg, kUnsupportedGroupBy };

KernelSupport ClassifyKernelSupport(const std::vector<std::string>& group_by,
                                    const std::vector<PartialPlan>& plans,
                                    const sql::Schema& schema) {
  for (const auto& p : plans) {
    for (const auto& spec : p.partial) {
      if (spec.arg == nullptr) continue;  // COUNT(*)
      if (spec.arg->kind() != sql::ExprKind::kColumn) {
        return KernelSupport::kUnsupportedAgg;
      }
      auto idx = schema.IndexOf(spec.arg->column_name());
      if (!idx.ok() || schema.column(*idx).type != TypeId::kInt64) {
        return KernelSupport::kUnsupportedAgg;
      }
    }
  }
  for (const auto& g : group_by) {
    auto idx = schema.IndexOf(g);
    if (!idx.ok()) return KernelSupport::kUnsupportedGroupBy;
    const TypeId t = schema.column(*idx).type;
    if (t != TypeId::kInt64 && t != TypeId::kTimestamp && t != TypeId::kString) {
      return KernelSupport::kUnsupportedGroupBy;
    }
  }
  return KernelSupport::kOk;
}

/// The EXPLAIN/per-DN label for a columnar scan fused with an aggregate.
std::string KernelSupportDetail(bool grouped, KernelSupport support) {
  switch (support) {
    case KernelSupport::kOk:
      return grouped ? "columnar(grouped-kernel)" : "columnar(kernel)";
    case KernelSupport::kUnsupportedAgg:
      return "columnar(materialize:agg)";
    case KernelSupport::kUnsupportedGroupBy:
      return "columnar(materialize:groupby-type)";
  }
  return "?";
}

/// Runs the recognized filter, returning the selection (nullopt = all rows,
/// so aggregate kernels can take their zone-map-only fast paths).
Result<std::optional<std::vector<uint32_t>>> RunColumnarFilter(
    const storage::ColumnTable& ct, const ColumnarPredicate& pred,
    const storage::ScanOptions& sopts, storage::ScanStats* stats) {
  if (pred.never) {
    return std::optional<std::vector<uint32_t>>{std::vector<uint32_t>{}};
  }
  switch (pred.kind) {
    case ColumnarPredicate::Kind::kAll:
      return std::optional<std::vector<uint32_t>>{};
    case ColumnarPredicate::Kind::kIntRange: {
      OFI_ASSIGN_OR_RETURN(
          std::vector<uint32_t> sel,
          ct.FilterBetweenInt64(pred.column, pred.lo, pred.hi, sopts, stats));
      return std::optional<std::vector<uint32_t>>{std::move(sel)};
    }
    case ColumnarPredicate::Kind::kStringEq: {
      OFI_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                           ct.FilterEqString(pred.column, pred.needle, sopts, stats));
      return std::optional<std::vector<uint32_t>>{std::move(sel)};
    }
  }
  return Status::Internal("unreachable");
}

/// Pure-kernel partial aggregate: the exact Table the row-path executor
/// would produce for a global aggregate (COUNT -> kInt64 with 0 on empty,
/// SUM/MIN/MAX -> the column's type with NULL when nothing contributes),
/// computed without materializing a single row.
Result<Table> RunColumnarKernelAgg(const storage::ColumnTable& ct,
                                   const std::vector<uint32_t>* sel,
                                   bool never,
                                   const std::vector<AggSpec>& partial_specs,
                                   const storage::ScanOptions& sopts,
                                   storage::ScanStats* stats) {
  std::vector<Column> cols;
  Row r;
  for (const auto& spec : partial_specs) {
    if (spec.arg == nullptr) {
      // COUNT(*): rows in the selection; NULLs count too.
      cols.push_back(Column{spec.name, TypeId::kInt64, ""});
      int64_t c = sel ? static_cast<int64_t>(sel->size())
                      : (never ? 0 : static_cast<int64_t>(ct.sealed_rows()));
      r.push_back(Value(c));
      continue;
    }
    const std::string& col = spec.arg->column_name();
    switch (spec.func) {
      case AggFunc::kCount: {
        cols.push_back(Column{spec.name, TypeId::kInt64, ""});
        OFI_ASSIGN_OR_RETURN(int64_t c, ct.CountInt64(col, sel, sopts, stats));
        r.push_back(Value(c));
        break;
      }
      case AggFunc::kSum: {
        cols.push_back(Column{spec.name, TypeId::kInt64, ""});
        OFI_ASSIGN_OR_RETURN(std::optional<int64_t> s,
                             ct.SumInt64(col, sel, sopts, stats));
        r.push_back(s ? Value(*s) : Value::Null());
        break;
      }
      case AggFunc::kMin: {
        cols.push_back(Column{spec.name, TypeId::kInt64, ""});
        OFI_ASSIGN_OR_RETURN(std::optional<int64_t> m,
                             ct.MinInt64(col, sel, sopts, stats));
        r.push_back(m ? Value(*m) : Value::Null());
        break;
      }
      case AggFunc::kMax: {
        cols.push_back(Column{spec.name, TypeId::kInt64, ""});
        OFI_ASSIGN_OR_RETURN(std::optional<int64_t> m,
                             ct.MaxInt64(col, sel, sopts, stats));
        r.push_back(m ? Value(*m) : Value::Null());
        break;
      }
      default:
        return Status::Internal("non-decomposed aggregate in kernel path");
    }
  }
  Table out{sql::Schema(std::move(cols))};
  out.mutable_rows().push_back(std::move(r));
  return out;
}

/// Grouped-kernel partial aggregate: the exact partial Table the row-path
/// executor would produce for `GROUP BY group_by` over the shard (group
/// columns carry the qualified shard-schema Column so the CN final
/// aggregation resolves them identically; SUM/MIN/MAX of zero non-null
/// inputs are NULL, COUNT partials are plain int64) — computed by the
/// vectorized hash kernel without materializing a single row.
Result<Table> RunColumnarGroupedAgg(const storage::ColumnTable& ct,
                                    const std::vector<std::string>& group_by,
                                    const std::vector<uint32_t>* sel,
                                    const std::vector<AggSpec>& partial_specs,
                                    const storage::ScanOptions& sopts,
                                    storage::ScanStats* stats) {
  std::vector<storage::GroupedAggSpec> kspecs;
  kspecs.reserve(partial_specs.size());
  for (const auto& spec : partial_specs) {
    storage::GroupedAggSpec k;
    if (spec.arg == nullptr) {
      k.op = storage::GroupedAggOp::kCountStar;
    } else {
      k.column = spec.arg->column_name();
      switch (spec.func) {
        case AggFunc::kCount: k.op = storage::GroupedAggOp::kCount; break;
        case AggFunc::kSum: k.op = storage::GroupedAggOp::kSum; break;
        case AggFunc::kMin: k.op = storage::GroupedAggOp::kMin; break;
        case AggFunc::kMax: k.op = storage::GroupedAggOp::kMax; break;
        default:
          return Status::Internal("non-decomposed aggregate in kernel path");
      }
    }
    kspecs.push_back(std::move(k));
  }
  // An unsatisfiable filter yields an empty selection, and a grouped
  // aggregate over nothing is zero groups — the kernel handles both.
  OFI_ASSIGN_OR_RETURN(
      storage::GroupedAggResult res,
      ct.GroupedAggregate(group_by, kspecs, sel, sopts, stats));

  std::vector<Column> cols;
  cols.reserve(group_by.size() + kspecs.size());
  for (const auto& g : group_by) {
    OFI_ASSIGN_OR_RETURN(size_t idx, ct.schema().IndexOf(g));
    cols.push_back(ct.schema().column(idx));
  }
  for (const auto& spec : partial_specs) {
    cols.push_back(Column{spec.name, TypeId::kInt64, ""});
  }
  Table out{sql::Schema(std::move(cols))};
  for (size_t g = 0; g < res.num_groups; ++g) {
    Row r;
    r.reserve(res.keys.size() + res.aggs.size());
    for (const auto& kc : res.keys) {
      if (kc.valid[g] == 0) {
        r.push_back(Value::Null());
      } else if (kc.type == TypeId::kString) {
        r.push_back(Value(kc.strs[g]));
      } else if (kc.type == TypeId::kTimestamp) {
        r.push_back(Value::Timestamp(kc.ints[g]));
      } else {
        r.push_back(Value(kc.ints[g]));
      }
    }
    for (size_t j = 0; j < res.aggs.size(); ++j) {
      const auto& ac = res.aggs[j];
      const bool count_like = kspecs[j].op == storage::GroupedAggOp::kCountStar ||
                              kspecs[j].op == storage::GroupedAggOp::kCount;
      if (count_like) {
        r.push_back(Value(ac.value[g]));
      } else {
        r.push_back(ac.count[g] > 0 ? Value(ac.value[g]) : Value::Null());
      }
    }
    out.mutable_rows().push_back(std::move(r));
  }
  return out;
}

// --- Delta-tail union (storage/delta_store) ---------------------------------

/// Row-path evaluation of the recognized predicate over one delta-tail row
/// (SQL semantics: NULL never matches) — the delta half of the scan union
/// must filter exactly as the kernels filter the sealed half.
bool DeltaRowMatches(const ColumnarPredicate& pred, const sql::Schema& schema,
                     const Row& row) {
  if (pred.never) return false;
  if (pred.kind == ColumnarPredicate::Kind::kAll) return true;
  auto idx = schema.IndexOf(pred.column);
  if (!idx.ok()) return false;
  const Value& v = row[*idx];
  if (v.is_null()) return false;
  if (pred.kind == ColumnarPredicate::Kind::kIntRange) {
    if (v.type() != TypeId::kInt64 && v.type() != TypeId::kTimestamp) {
      return false;
    }
    const int64_t x = v.AsInt();
    return x >= pred.lo && x <= pred.hi;
  }
  return v.type() == TypeId::kString && v.AsString() == pred.needle;
}

/// Folds filtered delta-tail rows into the partial a kernel produced for the
/// sealed chunks: the grouped kernel's groups, or (no group keys) the global
/// kernel's one row. Every combine is null-aware and associative (integer
/// SUM wraps), so the merged partial equals one kernel over sealed + delta.
/// Grouping treats NULL = NULL (Value::Equals), matching both the kernel and
/// the row-path executor; groups the delta introduces append at the tail
/// (shard output group order is unspecified — the CN final aggregation and
/// tests canonicalize).
Status MergeDeltaIntoKernelAgg(Table* partial,
                                const std::vector<std::string>& group_by,
                                const std::vector<AggSpec>& specs,
                                const sql::Schema& schema,
                                const std::vector<Row>& delta_rows) {
  if (delta_rows.empty()) return Status::OK();
  std::vector<size_t> key_idx;
  key_idx.reserve(group_by.size());
  for (const auto& g : group_by) {
    OFI_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(g));
    key_idx.push_back(idx);
  }
  std::vector<size_t> agg_idx(specs.size(), 0);
  for (size_t j = 0; j < specs.size(); ++j) {
    if (specs[j].arg == nullptr) continue;
    OFI_ASSIGN_OR_RETURN(size_t idx,
                         schema.IndexOf(specs[j].arg->column_name()));
    agg_idx[j] = idx;
  }
  const size_t nk = key_idx.size();
  auto& rows = partial->mutable_rows();
  for (const Row& r : delta_rows) {
    size_t gi = rows.size();
    for (size_t t = 0; t < rows.size(); ++t) {
      bool match = true;
      for (size_t k = 0; k < nk; ++k) {
        if (!rows[t][k].Equals(r[key_idx[k]])) {
          match = false;
          break;
        }
      }
      if (match) {
        gi = t;
        break;
      }
    }
    if (gi == rows.size()) {
      Row fresh;
      fresh.reserve(nk + specs.size());
      for (size_t k = 0; k < nk; ++k) fresh.push_back(r[key_idx[k]]);
      for (const auto& spec : specs) {
        const bool count_like = spec.func == AggFunc::kCount;
        fresh.push_back(count_like ? Value(static_cast<int64_t>(0))
                                   : Value::Null());
      }
      rows.push_back(std::move(fresh));
    }
    Row& out = rows[gi];
    for (size_t j = 0; j < specs.size(); ++j) {
      Value& cell = out[nk + j];
      if (specs[j].arg == nullptr) {  // COUNT(*)
        cell = Value(cell.AsInt() + 1);
        continue;
      }
      const Value& v = r[agg_idx[j]];
      if (v.is_null()) continue;
      const int64_t x = v.AsInt();
      switch (specs[j].func) {
        case AggFunc::kCount:
          cell = Value(cell.AsInt() + 1);
          break;
        case AggFunc::kSum:
          cell = cell.is_null() ? Value(x)
                                : Value(sql::WrapAdd(cell.AsInt(), x));
          break;
        case AggFunc::kMin:
          cell = cell.is_null() ? Value(x) : Value(std::min(cell.AsInt(), x));
          break;
        case AggFunc::kMax:
          cell = cell.is_null() ? Value(x) : Value(std::max(cell.AsInt(), x));
          break;
        default:
          return Status::Internal("non-decomposed aggregate in kernel path");
      }
    }
  }
  return Status::OK();
}

/// The kAuto join strategy from estimated side sizes: broadcast ships the
/// smaller side to the N-1 other nodes, repartition ships the (N-1)/N
/// fraction of both sides that hashes off-node; ties broadcast.
JoinStrategy ChooseJoinStrategy(double est_left, double est_right, int n) {
  const double cost_broadcast = std::min(est_left, est_right) * (n - 1);
  const double cost_repartition =
      (est_left + est_right) * static_cast<double>(n - 1) / std::max(n, 1);
  return cost_broadcast <= cost_repartition ? JoinStrategy::kBroadcast
                                            : JoinStrategy::kRepartition;
}

/// How one join moves its inputs, resolved once at execution from the
/// scanned encoded side sizes: the smaller side (left on a tie) is the
/// build side, the one broadcast ships, and the one spooled under
/// max_build_bytes; a planned strategy wins over the cost formula.
struct JoinMovement {
  JoinStrategy strategy;
  bool build_left;
};

JoinMovement ResolveJoinMovement(JoinStrategy planned, size_t left_bytes,
                                 size_t right_bytes, int n) {
  const auto l = static_cast<double>(left_bytes);
  const auto r = static_cast<double>(right_bytes);
  return JoinMovement{
      planned != JoinStrategy::kAuto ? planned : ChooseJoinStrategy(l, r, n),
      left_bytes <= right_bytes};
}

/// Dispatches fn(0..n-1) on the shared pool, or inline when !parallel
/// (shared contract across every fragment: execution mode never changes
/// results).
void RunScatter(bool parallel, int n, const std::function<void(int)>& fn) {
  if (parallel) {
    common::ThreadPool::Shared().ParallelFor(n, fn);
  } else {
    for (int i = 0; i < n; ++i) fn(i);
  }
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

std::string AggListToString(const std::vector<std::string>& group_by,
                            const std::vector<DistributedAgg>& aggs) {
  std::string s = "groups=[";
  for (size_t i = 0; i < group_by.size(); ++i) {
    if (i > 0) s += ", ";
    s += group_by[i];
  }
  s += "] aggs=[";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) s += ", ";
    s += AggFuncName(aggs[i].func);
    s += "(";
    s += aggs[i].column.empty() ? "*" : aggs[i].column;
    s += ") AS ";
    s += aggs[i].name;
  }
  s += "]";
  return s;
}

/// \brief Executes one distributed physical plan inside one multi-shard
/// snapshot.
///
/// Latency model: `frontier_[i]` tracks when serving node i finishes its
/// last charged statement (starting at scatter_start). Fragments advance
/// the frontier — prepare, scan statement(s), exchange, join statement —
/// and the run completes at max over frontiers plus the CN gather cost.
/// Because the SimScheduler's gap-fitting Charge is order-independent
/// across distinct resources, running the DNs' fragments in per-fragment
/// loops leaves every per-DN completion time deterministic as long as the
/// per-resource charge order is preserved — which the frontier guarantees.
class DistPlanExecutor {
 public:
  DistPlanExecutor(Cluster* cluster, const DistExecOptions& opts)
      : cluster_(cluster),
        opts_(opts),
        batch_rows_(opts.batch_rows == 0 ? 1 : opts.batch_rows) {}

  Result<DistPlanResult> Run(const DistOpPtr& root);

 private:
  Status ExecScanFragment(const DistOp& scan, bool fused, bool count_naive,
                          std::vector<FragSlot>* slots_out);
  Status ExecJoinFragment(const DistOp& join, const DistOp& left_scan,
                          const DistOp& right_scan, bool fused,
                          std::vector<FragSlot>* slots_out);
  Result<Table> FinalAggregate(const Table& partial_union);

  /// This worker's copy of the fused partial aggregate specs (arguments
  /// cloned: Bind() caches column indices in place).
  std::vector<AggSpec> PartialSpecs() const {
    std::vector<AggSpec> specs;
    for (const auto& p : plans_) {
      for (const auto& spec : p.partial) {
        specs.push_back(AggSpec{
            spec.func, spec.arg ? spec.arg->Clone() : nullptr, spec.name});
      }
    }
    return specs;
  }

  /// A sink bound on `schema` with this worker's filter clone and, when
  /// fused, its own partial aggregate.
  Result<ShardSink> MakeSink(const sql::Schema& schema,
                             const sql::ExprPtr& filter, bool fused,
                             bool count_naive) const {
    ShardSink sink(count_naive);
    std::optional<sql::Aggregator> agg;
    if (fused) agg.emplace(agg_group_, PartialSpecs());
    OFI_RETURN_NOT_OK(sink.Bind(schema, filter, std::move(agg)));
    return sink;
  }

  exchange::ExchangeLatencyParams ExchangeParams() const {
    return exchange::ExchangeLatencyParams{
        cluster_->latency().network_hop_us,
        cluster_->latency().exchange_batch_service_us,
        cluster_->latency().exchange_kb_service_us,
        cluster_->latency().spill_write_kb_service_us,
        cluster_->latency().spill_read_kb_service_us};
  }

  Cluster* cluster_;
  DistExecOptions opts_;
  size_t batch_rows_;

  std::vector<int> serving_;
  int n_ = 0;
  Txn* reader_ = nullptr;  // the Run-local multi-shard snapshot
  SimTime scatter_start_ = 0;
  // Per-serving-DN completion time of its latest charged statement.
  std::vector<SimTime> frontier_;

  // Aggregate decomposition (set when the plan has PartialAgg/FinalAgg).
  std::vector<PartialPlan> plans_;
  std::vector<std::string> group_names_;
  std::vector<std::string> agg_group_;
  std::vector<DistributedAgg> agg_specs_;

  // Join context (set when the core is a DistHashJoin).
  sql::Schema left_schema_, right_schema_;
  size_t left_key_idx_ = 0, right_key_idx_ = 0;

  DistExecStats stats_;
  // Metrics emitted only after Commit; recorded during fragment execution
  // and replayed in Run() once the snapshot commits.
  std::vector<std::pair<std::string, int64_t>> pending_metrics_;
};

Result<DistPlanResult> DistPlanExecutor::Run(const DistOpPtr& root) {
  // Shape: FinalAgg? -> Gather -> PartialAgg? -> (DistScan | DistIndexScan
  // | DistHashJoin over two DistScans).
  const DistOp* node = root.get();
  if (node == nullptr) {
    return Status::InvalidArgument("empty distributed plan");
  }
  const DistOp* final_agg = nullptr;
  if (node->kind == DistOpKind::kDistFinalAgg) {
    if (node->children.size() != 1) {
      return Status::InvalidArgument("DistFinalAgg must have one child");
    }
    final_agg = node;
    node = node->children[0].get();
  }
  if (node == nullptr || node->kind != DistOpKind::kGather ||
      node->children.size() != 1) {
    return Status::InvalidArgument(
        "distributed plan root must be Gather (optionally under DistFinalAgg)");
  }
  node = node->children[0].get();
  const DistOp* partial_agg = nullptr;
  if (node != nullptr && node->kind == DistOpKind::kDistPartialAgg) {
    if (node->children.size() != 1) {
      return Status::InvalidArgument("DistPartialAgg must have one child");
    }
    partial_agg = node;
    node = node->children[0].get();
  }
  if ((partial_agg == nullptr) != (final_agg == nullptr)) {
    return Status::InvalidArgument(
        "DistPartialAgg and DistFinalAgg must appear together");
  }
  const bool fused = partial_agg != nullptr;
  const bool rows_gather = !fused;

  const DistOp* core = node;
  const DistOp* left_scan = nullptr;
  const DistOp* right_scan = nullptr;
  if (core == nullptr) {
    return Status::InvalidArgument("distributed plan has no core operator");
  }
  if (core->kind == DistOpKind::kDistHashJoin) {
    if (core->children.size() != 2) {
      return Status::InvalidArgument("DistHashJoin must have two children");
    }
    left_scan = core->children[0].get();
    right_scan = core->children[1].get();
    if (left_scan == nullptr || left_scan->kind != DistOpKind::kDistScan ||
        right_scan == nullptr || right_scan->kind != DistOpKind::kDistScan) {
      return Status::InvalidArgument("DistHashJoin inputs must be DistScans");
    }
  } else if (core->kind != DistOpKind::kDistScan &&
             core->kind != DistOpKind::kDistIndexScan) {
    return Status::InvalidArgument("unsupported distributed core operator");
  }
  const DistOp* index_scan =
      core->kind == DistOpKind::kDistIndexScan ? core : nullptr;

  // Aggregate decomposition before any transaction begins, so plan
  // validation errors surface first.
  if (final_agg != nullptr) {
    agg_group_ = final_agg->group_by;
    agg_specs_ = final_agg->aggs;
    plans_.reserve(agg_specs_.size());
    for (const auto& a : agg_specs_) plans_.push_back(DecomposeAgg(a));
    OFI_ASSIGN_OR_RETURN(group_names_, GroupOutputNames(agg_group_, agg_specs_));
  }

  serving_ = ServingDns(cluster_);
  // A point probe whose key is the shard key can only match on one shard:
  // route to that DN alone, under the cheap single-shard snapshot (no GTM
  // round trip in GTM-lite) — the core of the index fast path's 5x win.
  const bool single_shard_probe =
      index_scan != nullptr && index_scan->probe_shard >= 0;
  if (single_shard_probe) {
    serving_ = {cluster_->EffectiveDn(index_scan->probe_shard)};
  }
  n_ = static_cast<int>(serving_.size());
  stats_.num_serving = n_;

  // Join key resolution happens before Begin; schemas are identical on
  // every DN, so the first serving node is authoritative.
  if (left_scan != nullptr) {
    OFI_ASSIGN_OR_RETURN(storage::MvccTable * left0,
                         cluster_->dn(serving_[0])->GetTable(left_scan->table));
    OFI_ASSIGN_OR_RETURN(
        storage::MvccTable * right0,
        cluster_->dn(serving_[0])->GetTable(right_scan->table));
    left_schema_ = left0->schema();
    right_schema_ = right0->schema();
    OFI_ASSIGN_OR_RETURN(left_key_idx_, left_schema_.IndexOf(core->left_key));
    OFI_ASSIGN_OR_RETURN(right_key_idx_, right_schema_.IndexOf(core->right_key));
  }

  // One consistent snapshot across every shard (single-shard scope when an
  // index probe pinned the plan to one DN).
  Txn reader = cluster_->Begin(single_shard_probe ? TxnScope::kSingleShard
                                                  : TxnScope::kMultiShard);
  // Every failing return below aborts the snapshot, so a failed query
  // leaves no local xid or gxid active; the success path commits first.
  std::unique_ptr<Txn, void (*)(Txn*)> abort_unfinished(&reader, [](Txn* t) {
    if (!t->finished()) (void)t->Abort();
  });
  reader_ = &reader;
  scatter_start_ = reader.now();
  frontier_.assign(static_cast<size_t>(n_), scatter_start_);

  std::vector<FragSlot> slots(static_cast<size_t>(n_));
  if (left_scan != nullptr) {
    OFI_RETURN_NOT_OK(
        ExecJoinFragment(*core, *left_scan, *right_scan, fused, &slots));
  } else {
    OFI_RETURN_NOT_OK(
        ExecScanFragment(*core, fused, /*count_naive=*/true, &slots));
  }

  // Gather: merge per-DN outputs deterministically in DN order. The output
  // takes DN 0's table, schema included, and appends every later DN's rows.
  Table gathered;
  std::vector<size_t> slot_result_bytes(slots.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    FragSlot& slot = slots[i];
    OFI_RETURN_NOT_OK(slot.status);
    if (rows_gather) {
      slot_result_bytes[i] =
          exchange::EncodedBytes(slot.table.rows(), batch_rows_);
      stats_.result_bytes += slot_result_bytes[i];
    }
    stats_.partial_bytes += slot.partial_bytes;
    stats_.naive_bytes += slot.naive_bytes;
    if (slot.columnar) {
      ++stats_.columnar_shards;
      stats_.scan_stats.MergeFrom(slot.stats);
    }
    if (i == 0) {
      gathered = std::move(slot.table);
      continue;
    }
    for (auto& row : slot.table.mutable_rows()) {
      OFI_RETURN_NOT_OK(gathered.Append(std::move(row)));
    }
  }
  if (stats_.columnar_shards > 0) {
    auto& m = cluster_->metrics();
    m.Add("columnar.scans", static_cast<int64_t>(stats_.columnar_shards));
    m.Add("columnar.chunks_scanned",
          static_cast<int64_t>(stats_.scan_stats.chunks_scanned));
    m.Add("columnar.chunks_pruned",
          static_cast<int64_t>(stats_.scan_stats.chunks_pruned));
    m.Add("columnar.rows_filtered",
          static_cast<int64_t>(stats_.scan_stats.rows_matched));
    m.Add("columnar.morsels", static_cast<int64_t>(stats_.scan_stats.morsels));
    m.Add("columnar.delta_rows",
          static_cast<int64_t>(stats_.scan_stats.delta_rows));
  }

  // The CN merges DN i's output in DN order (results are gathered
  // identically under either schedule), paying the per-partial merge plus a
  // size-aware receive when the gathered state is row-shaped (joins and
  // plain scans, unlike aggregates, gather row-sized state). Pipelined, a
  // merge starts the moment its DN is done; barrier, no earlier than the
  // slowest DN. Telescoped cumulative KiB keeps the byte service equal to
  // one charge over every partial, so the barrier total is parallel_done
  // plus the whole gather cost.
  SimTime parallel_done = scatter_start_;
  for (SimTime f : frontier_) parallel_done = std::max(parallel_done, f);
  const SimTime kb_us = ExchangeParams().kb_service_us;
  auto kib = [](size_t b) { return static_cast<SimTime>((b + 1023) / 1024); };
  SimTime cn_done = opts_.pipeline ? scatter_start_ : parallel_done;
  SimTime first_merge = -1;
  size_t cum = 0;
  for (int i = 0; i < n_; ++i) {
    const SimTime begin = std::max(cn_done, frontier_[static_cast<size_t>(i)]);
    if (first_merge < 0) first_merge = begin;
    cn_done = begin + cluster_->latency().cn_gather_service_us;
    if (rows_gather) {
      const size_t b = slot_result_bytes[static_cast<size_t>(i)];
      cn_done += (kib(cum + b) - kib(cum)) * kb_us;
      cum += b;
    }
  }
  if (first_merge >= 0) {
    stats_.pipeline_overlap_us +=
        std::max<SimTime>(0, parallel_done - first_merge);
  }
  stats_.sim_latency_us = cn_done - scatter_start_;
  // The CN resumes once the last partial has been gathered.
  reader.AdvanceTo(cn_done);
  OFI_RETURN_NOT_OK(reader.Commit());
  reader_ = nullptr;
  if (opts_.pipeline) {
    pending_metrics_.emplace_back(
        "pipeline.overlap_us",
        static_cast<int64_t>(stats_.pipeline_overlap_us));
    if (stats_.batches_streamed > 0) {
      pending_metrics_.emplace_back(
          "exchange.batches_streamed",
          static_cast<int64_t>(stats_.batches_streamed));
    }
  }
  for (const auto& [name, delta] : pending_metrics_) {
    cluster_->metrics().Add(name, delta);
  }

  DistPlanResult out;
  if (final_agg != nullptr) {
    OFI_ASSIGN_OR_RETURN(out.table, FinalAggregate(gathered));
  } else {
    out.table = std::move(gathered);
  }
  out.stats = std::move(stats_);
  return out;
}

Status DistPlanExecutor::ExecScanFragment(const DistOp& scan, bool fused,
                                          bool count_naive,
                                          std::vector<FragSlot>* slots_out) {
  const std::string& table = scan.table;
  const bool index_scan = scan.kind == DistOpKind::kDistIndexScan;
  std::vector<storage::MvccTable*> shard_tables(serving_.size(), nullptr);
  std::vector<std::shared_ptr<storage::SecondaryIndex>> shard_indexes(
      serving_.size());
  for (int i = 0; i < n_; ++i) {
    const size_t si = static_cast<size_t>(i);
    OFI_ASSIGN_OR_RETURN(shard_tables[si],
                         cluster_->dn(serving_[i])->GetTable(table));
    if (!index_scan) continue;
    shard_indexes[si] = cluster_->IndexOn(serving_[i], table, scan.index_col);
    if (shard_indexes[si] == nullptr) {
      // Dropped between lowering and execution; the caller retries via scan.
      return Status::NotFound("index on " + scan.index_column +
                              " no longer exists on dn" +
                              std::to_string(serving_[i]));
    }
  }

  // Columnar eligibility (index scans are always ScanPath::kRow). The
  // filter must be kernel-recognizable (checked once for the fragment).
  // Freshness is never a reason to fall back: every delta shard unions its
  // sealed chunks with the row-format tail the heap listener feeds,
  // evaluated under this transaction's own snapshot, so the columnar result
  // is bit-identical to the row path at any point in time.
  std::optional<ColumnarPredicate> pred;
  if (scan.path == ScanPath::kColumnar && cluster_->IsColumnar(table)) {
    pred = RecognizeFilter(scan.filter);
    if (!pred.has_value()) {
      cluster_->metrics().Add("columnar.fallback_filter");
    }
  }
  std::vector<std::shared_ptr<storage::DeltaShard>> col_shards(
      serving_.size());
  bool kernel_path = false;
  bool forced_materialize = false;
  KernelSupport support = KernelSupport::kOk;
  if (pred.has_value()) {
    if (fused) {
      support = ClassifyKernelSupport(agg_group_, plans_,
                                      shard_tables[0]->schema());
      kernel_path = support == KernelSupport::kOk;
      if (support == KernelSupport::kUnsupportedAgg) {
        cluster_->metrics().Add("columnar.fallback_agg");
      } else if (support == KernelSupport::kUnsupportedGroupBy) {
        cluster_->metrics().Add("columnar.fallback_groupby_type");
      }
      if (kernel_path &&
          g_force_materialize.load(std::memory_order_relaxed)) {
        kernel_path = false;
        forced_materialize = true;
      }
    }
    for (int i = 0; i < n_; ++i) {
      col_shards[static_cast<size_t>(i)] =
          cluster_->dn(serving_[i])->GetColumnarShard(table);
    }
  }

  // Phase 1 (coordinator thread): open every shard context and charge the
  // simulated fan-out. Opening an already-open shard is free — the second
  // scan fragment of a join chains its statement right after the first
  // fragment's. Every source charges by work actually done (chunks
  // scanned, heap rows walked, rows probed), so its statement cost is only
  // known after phase 2 — record the prepare completion now and charge
  // afterwards (each DN's resource is independent, so the deferred charge
  // stays deterministic).
  for (int i = 0; i < n_; ++i) {
    const int dn = serving_[i];
    OFI_ASSIGN_OR_RETURN(frontier_[static_cast<size_t>(i)],
                         reader_->PrepareShard(dn, frontier_[static_cast<size_t>(i)]));
  }

  // Phase 2 (thread pool): each DN reads at this transaction's snapshot
  // from one of three sources and feeds one ShardSink. Row shards visit
  // the MVCC heap in place; index scans probe the shard's index (the FULL
  // original predicate rides along as the sink's filter, since the probe
  // only guarantees the indexed conjunct); columnar shards run the filter
  // kernels over their chunk copy and, unless pure kernels serve a fused
  // int64 aggregate, materialize the selection. Workers touch only read
  // paths plus their own slot. Kernels run serially within a shard: the
  // scatter already runs one task per DN, and pool workers must not nest
  // ParallelFor.
  const storage::ScanOptions sopts;
  std::vector<FragSlot>& slots = *slots_out;
  auto scan_shard = [&](int i) -> Status {
    const size_t si = static_cast<size_t>(i);
    FragSlot& slot = slots[si];
    OFI_ASSIGN_OR_RETURN(txn::VisibilityChecker vis,
                         reader_->VisibilityForPrepared(serving_[i]));

    if (col_shards[si] == nullptr) {
      OFI_ASSIGN_OR_RETURN(ShardSink sink,
                           MakeSink(shard_tables[si]->schema(), scan.filter,
                                    fused, count_naive));
      if (!index_scan) {
        shard_tables[si]->ForEachVisible(
            vis, [&sink](const Row& row) { sink.Add(row); });
      } else {
        std::vector<Row> probed =
            scan.probe_is_range
                ? shard_indexes[si]->RangeProbe(scan.probe_lo, scan.probe_hi,
                                                vis)
                : shard_indexes[si]->Probe(scan.probe_eq, vis);
        for (Row& row : probed) sink.Add(std::move(row));
      }
      sink.Finish(&slot);
      if (index_scan) slot.stats.index_rows = slot.rows_examined;
      return Status::OK();
    }

    // Snapshot the delta shard under this transaction's own visibility:
    // a pinned sealed table, the sealed rows whose delete is visible, and
    // the visible row-format tail. The union below reproduces the row
    // path bit for bit at this snapshot.
    storage::DeltaShard::View view = col_shards[si]->Snapshot(vis);
    const storage::ColumnTable& ct = *view.sealed;
    slot.columnar = true;
    slot.stats.delta_rows += view.delta_examined;
    if (count_naive) {
      slot.naive_bytes = ct.PlainBytes();
      for (const auto& row : view.delta_rows) {
        slot.naive_bytes += sql::RowByteSize(row);
      }
    }
    OFI_ASSIGN_OR_RETURN(std::optional<std::vector<uint32_t>> sel,
                         RunColumnarFilter(ct, *pred, sopts, &slot.stats));
    // Fold snapshot exclusions into the selection so every downstream
    // consumer sees one sorted selection (kernel filter output is
    // ascending; View::excluded is sorted).
    if (!view.excluded.empty()) {
      std::vector<uint32_t> kept;
      if (sel.has_value()) {
        kept.reserve(sel->size());
        std::set_difference(sel->begin(), sel->end(), view.excluded.begin(),
                            view.excluded.end(), std::back_inserter(kept));
      } else {
        kept.reserve(ct.sealed_rows() - view.excluded.size());
        size_t e = 0;
        for (uint32_t r = 0; r < ct.sealed_rows(); ++r) {
          if (e < view.excluded.size() && view.excluded[e] == r) {
            ++e;
            continue;
          }
          kept.push_back(r);
        }
      }
      sel = std::move(kept);
    }
    // The delta half of the union: visible tail rows, filtered exactly as
    // the kernels filter the sealed half.
    std::vector<Row> delta_matched;
    delta_matched.reserve(view.delta_rows.size());
    for (auto& row : view.delta_rows) {
      if (DeltaRowMatches(*pred, ct.schema(), row)) {
        delta_matched.push_back(std::move(row));
      }
    }
    const std::vector<uint32_t>* sel_ptr = sel.has_value() ? &*sel : nullptr;
    if (kernel_path) {
      const std::vector<AggSpec> partial_specs = PartialSpecs();
      Table partial;
      if (agg_group_.empty()) {
        OFI_ASSIGN_OR_RETURN(
            partial, RunColumnarKernelAgg(ct, sel_ptr, pred->never,
                                          partial_specs, sopts, &slot.stats));
      } else {
        // Grouped kernel. An unsatisfiable predicate arrives as an empty
        // selection; no filter at all means the whole table.
        OFI_ASSIGN_OR_RETURN(
            partial, RunColumnarGroupedAgg(ct, agg_group_, sel_ptr,
                                           partial_specs, sopts, &slot.stats));
      }
      OFI_RETURN_NOT_OK(MergeDeltaIntoKernelAgg(
          &partial, agg_group_, partial_specs, ct.schema(), delta_matched));
      slot.partial_bytes = TableBytes(partial);
      slot.table = std::move(partial);
      return Status::OK();
    }
    // Materialize: decode the selection (chunk on demand — only chunks
    // holding selected rows are decoded and charged, matching the kernels'
    // accounting units of one column-chunk each), then offer it and the
    // matching delta-tail rows to the sink without the filter the kernel
    // already applied. Row order is the columnar clustering order with the
    // tail last, not the MVCC heap order; consumers treat shard output as
    // unordered.
    std::vector<uint32_t> all;
    if (sel_ptr == nullptr) {
      all.resize(ct.sealed_rows());
      for (uint32_t k = 0; k < all.size(); ++k) all[k] = k;
      sel_ptr = &all;
    }
    OFI_ASSIGN_OR_RETURN(std::vector<Row> rows,
                         ct.MaterializeRows(*sel_ptr, &slot.stats));
    OFI_ASSIGN_OR_RETURN(ShardSink sink,
                         MakeSink(ct.schema(), nullptr, fused,
                                  /*count_naive=*/false));
    for (Row& row : rows) sink.Add(std::move(row));
    for (Row& row : delta_matched) sink.Add(std::move(row));
    sink.Finish(&slot);
    return Status::OK();
  };
  RunScatter(opts_.parallel, n_, [&](int i) {
    slots[static_cast<size_t>(i)].status = scan_shard(i);
  });

  // Deferred latency. Index probes: fixed probe setup + per-returned-row
  // copy-out — no heap walk, no per-block scan service; this asymmetry is
  // the whole point-lookup win the optimizer's crossover banks on.
  // Columnar shards: fixed setup + per-chunk service for chunks actually
  // scanned + per-block service for delta-tail records examined
  // (zone-map-pruned chunks cost nothing; a long unmerged tail shows up
  // directly in sim_latency_us — the incentive to merge). Row shards:
  // statement setup + per-256-row block service for the heap rows walked,
  // so scan cost scales with shard size — the baseline an index probe
  // beats.
  for (int i = 0; i < n_; ++i) {
    const size_t si = static_cast<size_t>(i);
    if (index_scan) {
      frontier_[si] = cluster_->ChargeDnIndexProbe(
          serving_[i], frontier_[si], slots[si].stats.index_rows);
    } else if (col_shards[si] != nullptr) {
      frontier_[si] = cluster_->ChargeDnColumnarScan(
          serving_[i], frontier_[si], slots[si].stats.chunks_scanned,
          slots[si].stats.delta_rows);
    } else {
      frontier_[si] = cluster_->ChargeDnRowScan(serving_[i], frontier_[si],
                                                slots[si].rows_examined);
    }
  }

  // Per-DN realized-path record (EXPLAIN / shell reporting).
  const bool wanted_columnar =
      scan.path == ScanPath::kColumnar && cluster_->IsColumnar(table);
  for (int i = 0; i < n_; ++i) {
    const size_t si = static_cast<size_t>(i);
    DistExecStats::DnScanInfo info;
    info.dn = serving_[i];
    info.table = table;
    info.stats = slots[si].stats;
    if (index_scan) {
      info.path = "index(" + BareName(scan.index_column) + ")";
      stats_.scan_stats.index_rows += slots[si].stats.index_rows;
    } else if (col_shards[si] != nullptr) {
      if (!fused) {
        info.path = "columnar(materialize)";
      } else if (forced_materialize) {
        info.path = "columnar(materialize:forced)";
      } else {
        info.path = KernelSupportDetail(!agg_group_.empty(), support);
      }
    } else if (wanted_columnar && !pred.has_value()) {
      info.path = "row(filter)";
    } else {
      info.path = "row";
    }
    stats_.per_dn.push_back(std::move(info));
  }
  return Status::OK();
}

Status DistPlanExecutor::ExecJoinFragment(const DistOp& join,
                                          const DistOp& left_scan,
                                          const DistOp& right_scan, bool fused,
                                          std::vector<FragSlot>* slots_out) {
  // Scan both sides as child fragments. The per-DN frontier chains the
  // right scan's statement directly after the left's, reproducing the old
  // "prepare once, then one scan statement per side" loop.
  std::vector<FragSlot> left_slots(serving_.size());
  std::vector<FragSlot> right_slots(serving_.size());
  OFI_RETURN_NOT_OK(ExecScanFragment(left_scan, /*fused=*/false,
                                     /*count_naive=*/false, &left_slots));
  for (const auto& slot : left_slots) OFI_RETURN_NOT_OK(slot.status);
  OFI_RETURN_NOT_OK(ExecScanFragment(right_scan, /*fused=*/false,
                                     /*count_naive=*/false, &right_slots));
  for (const auto& slot : right_slots) OFI_RETURN_NOT_OK(slot.status);

  size_t actual_left_bytes = 0, actual_right_bytes = 0;
  for (int i = 0; i < n_; ++i) {
    actual_left_bytes += exchange::EncodedBytes(
        left_slots[static_cast<size_t>(i)].table.rows(), batch_rows_);
    actual_right_bytes += exchange::EncodedBytes(
        right_slots[static_cast<size_t>(i)].table.rows(), batch_rows_);
  }
  stats_.naive_bytes = actual_left_bytes + actual_right_bytes;

  // The one movement decision: the strategy (the plan's, or kAuto resolved
  // here) and the build side, both from the scanned encoded sizes.
  const JoinMovement movement = ResolveJoinMovement(
      join.strategy, actual_left_bytes, actual_right_bytes, n_);
  const JoinStrategy strategy = movement.strategy;
  const bool build_left = movement.build_left;
  stats_.strategy = strategy;
  stats_.build_left = build_left;

  // Data movement: repartition moves both relations, broadcast only the
  // build side. One loop in simulated time runs every producer and
  // consumer and charges them (exchange::RunExchange), so the latency and
  // spill figures describe exactly the exchange that ran. A channel byte
  // limit bounds the in-memory window; overflow spills to per-channel temp
  // files (or is denied once the spill budget is exhausted). One budget
  // spans both relations' networks and the build side.
  exchange::SpillBudget spill_budget(opts_.max_spill_bytes);
  exchange::ExchangeSpillConfig spill_cfg{opts_.spill_dir, &spill_budget};
  exchange::ExchangeNetwork left_net(n_, batch_rows_, opts_.max_channel_bytes,
                                     spill_cfg);
  exchange::ExchangeNetwork right_net(n_, batch_rows_, opts_.max_channel_bytes,
                                      spill_cfg);
  const bool repartition = strategy == JoinStrategy::kRepartition;
  const bool move_left = repartition || build_left;
  const bool move_right = repartition || !build_left;
  std::vector<std::vector<exchange::ScatterInput>> inputs(serving_.size());
  std::vector<int> resources(serving_.size());
  for (int i = 0; i < n_; ++i) {
    const size_t si = static_cast<size_t>(i);
    if (move_left) {
      inputs[si].push_back(exchange::ScatterInput{
          0, &left_slots[si].table.rows(),
          repartition ? std::optional<size_t>(left_key_idx_) : std::nullopt});
    }
    if (move_right) {
      inputs[si].push_back(exchange::ScatterInput{
          1, &right_slots[si].table.rows(),
          repartition ? std::optional<size_t>(right_key_idx_) : std::nullopt});
    }
    resources[si] = cluster_->dn_resource(serving_[i]);
  }
  exchange::ExchangeLatencyParams params = ExchangeParams();
  exchange::ExchangeRun run = exchange::RunExchange(
      {&left_net, &right_net}, inputs, &cluster_->scheduler(), resources,
      frontier_, params,
      opts_.pipeline ? exchange::ExchangeSchedule::kPipelined
                     : exchange::ExchangeSchedule::kBarrier);

  // Hard-limit denials and rolled-back partial sends are emitted
  // immediately (not via pending_metrics_): they describe a query that is
  // about to fail, and pending metrics only replay after a commit.
  const size_t denied = left_net.DeniedBytes() + right_net.DeniedBytes();
  if (denied > 0) {
    cluster_->metrics().Add("exchange.bytes_denied",
                            static_cast<int64_t>(denied));
  }
  const size_t aborted = left_net.AbortedBytes() + right_net.AbortedBytes();
  if (aborted > 0) {
    cluster_->metrics().Add("exchange.bytes_aborted",
                            static_cast<int64_t>(aborted));
  }
  for (const Status& st : run.producer_status) OFI_RETURN_NOT_OK(st);

  // Per-DN join: each DN joins the rows it holds (exchange-decoded for a
  // side that moved, scanned for one that did not) with one sql::HashJoin,
  // built on the build side and probed with the other, into a ShardSink
  // that folds each match (left ++ right) into the fused partial aggregate
  // or appends it. Under max_build_bytes a build side over the cap is first
  // spooled through a capped local spill channel and re-read: lossless, so
  // only simulated spill I/O changes.
  exchange::ExchangeSpillConfig build_cfg{opts_.spill_dir, &spill_budget};
  std::vector<FragSlot>& slots = *slots_out;
  auto join_dn = [&](int j) -> Status {
    const size_t sj = static_cast<size_t>(j);
    FragSlot& slot = slots[sj];
    OFI_RETURN_NOT_OK(run.consumer_status[sj]);
    std::vector<Row>& lrows =
        move_left ? run.rows[0][sj] : left_slots[sj].table.mutable_rows();
    std::vector<Row>& rrows =
        move_right ? run.rows[1][sj] : right_slots[sj].table.mutable_rows();
    std::vector<Row>& build_rows = build_left ? lrows : rrows;
    const std::vector<Row>& probe_rows = build_left ? rrows : lrows;
    if (opts_.max_build_bytes != 0 &&
        exchange::EncodedBytes(build_rows, batch_rows_) >
            opts_.max_build_bytes) {
      exchange::ExchangeChannel ch;
      exchange::ExchangeChannel::SendLimits limits{opts_.max_build_bytes,
                                                   &build_cfg};
      for (size_t b = 0; b < build_rows.size(); b += batch_rows_) {
        size_t e = std::min(b + batch_rows_, build_rows.size());
        OFI_RETURN_NOT_OK(
            ch.Send(exchange::EncodeBatch(build_rows, b, e), limits));
      }
      std::vector<Row> spooled;
      spooled.reserve(build_rows.size());
      while (true) {
        OFI_ASSIGN_OR_RETURN(std::optional<std::string> batch, ch.PopBatch());
        if (!batch.has_value()) break;
        OFI_ASSIGN_OR_RETURN(std::vector<Row> decoded,
                             exchange::DecodeBatch(*batch));
        for (auto& r : decoded) spooled.push_back(std::move(r));
      }
      slot.build_spill_bytes = ch.spilled_bytes();
      build_rows = std::move(spooled);
    }
    sql::ExprPtr pred = Expr::EqCols(join.left_key, join.right_key);
    if (join.residual) pred = Expr::And(pred, join.residual->Clone());
    sql::HashJoin hash_join;
    OFI_RETURN_NOT_OK(hash_join.Bind(left_schema_, right_schema_, pred));
    OFI_ASSIGN_OR_RETURN(ShardSink sink,
                         MakeSink(left_schema_.Concat(right_schema_), nullptr,
                                  fused, /*count_naive=*/false));
    hash_join.Build(build_rows, build_left);
    for (const Row& row : probe_rows) {
      hash_join.Probe(row, [&sink](const Row& joined) {
        sink.Add(joined);
        return true;
      });
    }
    sink.Finish(&slot);
    return Status::OK();
  };
  RunScatter(opts_.parallel, n_, [&](int j) {
    slots[static_cast<size_t>(j)].status = join_dn(j);
  });

  // Node j's join statement starts once the exchange delivered its input;
  // the fused partial aggregate rides in that same statement (scan+agg was
  // one statement on the aggregate path too).
  stats_.pipeline_overlap_us += run.overlap_us;
  if (opts_.pipeline) stats_.batches_streamed += run.batches_popped;
  for (int j = 0; j < n_; ++j) {
    // A spooled build partition pays its disk write + read on the owning
    // DN before the join statement can start.
    SimTime arrival = run.ready[static_cast<size_t>(j)];
    size_t build_spill = slots[static_cast<size_t>(j)].build_spill_bytes;
    if (build_spill > 0) {
      arrival = cluster_->scheduler().Charge(
          resources[static_cast<size_t>(j)], arrival,
          exchange::SpillServiceTime(build_spill, params));
    }
    frontier_[static_cast<size_t>(j)] =
        cluster_->ChargeDnStmt(serving_[j], arrival);
  }

  // Accounting + metrics: cross-DN bytes per strategy, per-channel stats
  // with exchange-node indices mapped back to real DN ids. The old code
  // emitted these metrics only after Commit, so they are queued here and
  // replayed by Run() at that same point.
  stats_.shuffle_bytes =
      strategy == JoinStrategy::kRepartition
          ? left_net.CrossNodeBytes() + right_net.CrossNodeBytes()
          : 0;
  stats_.broadcast_bytes =
      strategy == JoinStrategy::kBroadcast
          ? left_net.CrossNodeBytes() + right_net.CrossNodeBytes()
          : 0;
  stats_.exchange_batches =
      left_net.CrossNodeBatches() + right_net.CrossNodeBatches();
  stats_.spill_bytes = left_net.SpilledBytes() + right_net.SpilledBytes();
  stats_.spill_segments =
      left_net.SpillSegments() + right_net.SpillSegments();
  for (const auto& slot : slots) {
    stats_.build_spill_bytes += slot.build_spill_bytes;
  }
  if (stats_.spill_bytes + stats_.build_spill_bytes > 0) {
    pending_metrics_.emplace_back(
        "exchange.bytes_spilled",
        static_cast<int64_t>(stats_.spill_bytes + stats_.build_spill_bytes));
    pending_metrics_.emplace_back(
        "exchange.spill_segments",
        static_cast<int64_t>(stats_.spill_segments));
  }
  for (const auto* net : {&left_net, &right_net}) {
    for (exchange::ChannelStats ch : net->Stats()) {
      ch.src = serving_[static_cast<size_t>(ch.src)];
      ch.dst = serving_[static_cast<size_t>(ch.dst)];
      // Merge the two relations' traffic per (src,dst) pair.
      auto it = std::find_if(stats_.channels.begin(), stats_.channels.end(),
                             [&](const exchange::ChannelStats& c) {
                               return c.src == ch.src && c.dst == ch.dst;
                             });
      if (it == stats_.channels.end()) {
        stats_.channels.push_back(ch);
      } else {
        it->bytes += ch.bytes;
        it->batches += ch.batches;
        it->spilled_bytes += ch.spilled_bytes;
        it->spill_segments += ch.spill_segments;
      }
      if (ch.src != ch.dst) {
        pending_metrics_.emplace_back(
            "exchange.bytes.d" + std::to_string(ch.src) + "->d" +
                std::to_string(ch.dst),
            static_cast<int64_t>(ch.bytes));
      }
    }
  }
  pending_metrics_.emplace_back(
      "exchange.bytes",
      static_cast<int64_t>(stats_.shuffle_bytes + stats_.broadcast_bytes));
  pending_metrics_.emplace_back("exchange.batches",
                                static_cast<int64_t>(stats_.exchange_batches));
  pending_metrics_.emplace_back(strategy == JoinStrategy::kBroadcast
                                    ? "join.broadcast"
                                    : "join.repartition",
                                int64_t{1});
  stats_.joined = true;
  // Per-DN join statuses stay in the slots: the gather loop surfaces them
  // (the old code also finished the exchange accounting before checking).
  return Status::OK();
}

Result<Table> DistPlanExecutor::FinalAggregate(const Table& partial_union) {
  // Final aggregation over the partials at the CN.
  std::vector<AggSpec> final_specs;
  for (const auto& p : plans_) {
    final_specs.insert(final_specs.end(), p.final_specs.begin(),
                       p.final_specs.end());
  }
  sql::Aggregator final_agg(agg_group_, std::move(final_specs));
  OFI_RETURN_NOT_OK(final_agg.Bind(partial_union.schema()));
  for (const Row& row : partial_union.rows()) final_agg.Add(row);
  Table merged = final_agg.Finish();

  // Project to the requested names/order. AVG's post-division is done here
  // in code rather than as a `/` expression so the SQL-standard edge case is
  // explicit: a group whose column was NULL on every shard merges to
  // COUNT 0 (and SUM NULL) and must yield NULL, not divide by zero.
  std::vector<Column> out_cols;
  std::vector<size_t> first_col(agg_specs_.size(), 0);
  for (size_t gi = 0; gi < agg_group_.size(); ++gi) {
    out_cols.push_back(
        Column{group_names_[gi], merged.schema().column(gi).type, ""});
  }
  size_t col = agg_group_.size();
  for (size_t i = 0; i < agg_specs_.size(); ++i) {
    first_col[i] = col;
    if (plans_[i].is_avg) {
      out_cols.push_back(Column{agg_specs_[i].name, TypeId::kDouble, ""});
      col += 2;  // sum + count
    } else {
      out_cols.push_back(
          Column{agg_specs_[i].name, merged.schema().column(col).type, ""});
      col += 1;
    }
  }
  Table result{sql::Schema(std::move(out_cols))};
  for (const auto& row : merged.rows()) {
    Row r;
    r.reserve(agg_group_.size() + agg_specs_.size());
    for (size_t gi = 0; gi < agg_group_.size(); ++gi) r.push_back(row[gi]);
    for (size_t i = 0; i < agg_specs_.size(); ++i) {
      if (plans_[i].is_avg) {
        const Value& sum = row[first_col[i]];
        const Value& count = row[first_col[i] + 1];
        if (sum.is_null() || count.is_null() || count.AsDouble() == 0) {
          r.push_back(Value::Null());
        } else {
          r.push_back(Value(sum.AsDouble() / count.AsDouble()));
        }
      } else {
        r.push_back(row[first_col[i]]);
      }
    }
    OFI_RETURN_NOT_OK(result.Append(std::move(r)));
  }
  return result;
}

}  // namespace

std::vector<int> ServingDns(Cluster* cluster) {
  std::vector<int> serving;
  for (int shard = 0; shard < cluster->num_dns(); ++shard) {
    int dn = cluster->EffectiveDn(shard);
    if (std::find(serving.begin(), serving.end(), dn) == serving.end()) {
      serving.push_back(dn);
    }
  }
  return serving;
}

const char* ToString(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kAuto: return "auto";
    case JoinStrategy::kBroadcast: return "broadcast";
    case JoinStrategy::kRepartition: return "repartition";
  }
  return "?";
}

const char* ToString(ScanPath p) {
  switch (p) {
    case ScanPath::kRow: return "row";
    case ScanPath::kColumnar: return "columnar";
  }
  return "?";
}

DistOpPtr MakeDistScan(std::string table, sql::ExprPtr filter, ScanPath path) {
  auto op = std::make_shared<DistOp>();
  op->kind = DistOpKind::kDistScan;
  op->table = std::move(table);
  op->filter = std::move(filter);
  op->path = path;
  return op;
}

DistOpPtr MakeDistIndexScan(std::string table, sql::ExprPtr filter,
                            std::string index_column, size_t index_col) {
  auto op = std::make_shared<DistOp>();
  op->kind = DistOpKind::kDistIndexScan;
  op->table = std::move(table);
  op->filter = std::move(filter);
  op->path = ScanPath::kRow;
  op->index_column = std::move(index_column);
  op->index_col = index_col;
  return op;
}

DistOpPtr MakeDistHashJoin(DistOpPtr left, DistOpPtr right,
                           std::string left_key, std::string right_key,
                           sql::ExprPtr residual, JoinStrategy strategy) {
  auto op = std::make_shared<DistOp>();
  op->kind = DistOpKind::kDistHashJoin;
  op->children.push_back(std::move(left));
  op->children.push_back(std::move(right));
  op->left_key = std::move(left_key);
  op->right_key = std::move(right_key);
  op->residual = std::move(residual);
  op->strategy = strategy;
  return op;
}

DistOpPtr MakeDistPartialAgg(DistOpPtr child, std::vector<std::string> group_by,
                             std::vector<DistributedAgg> aggs) {
  auto op = std::make_shared<DistOp>();
  op->kind = DistOpKind::kDistPartialAgg;
  op->children.push_back(std::move(child));
  op->group_by = std::move(group_by);
  op->aggs = std::move(aggs);
  return op;
}

DistOpPtr MakeDistFinalAgg(DistOpPtr child, std::vector<std::string> group_by,
                           std::vector<DistributedAgg> aggs) {
  auto op = std::make_shared<DistOp>();
  op->kind = DistOpKind::kDistFinalAgg;
  op->children.push_back(std::move(child));
  op->group_by = std::move(group_by);
  op->aggs = std::move(aggs);
  return op;
}

DistOpPtr MakeGather(DistOpPtr child) {
  auto op = std::make_shared<DistOp>();
  op->kind = DistOpKind::kGather;
  op->children.push_back(std::move(child));
  return op;
}

std::string DistOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string s = pad;
  switch (kind) {
    case DistOpKind::kDistScan:
      s += "DISTSCAN " + table + " path=";
      s += cluster::ToString(path);
      if (!scan_detail.empty()) s += " scan=" + scan_detail;
      if (filter) s += " pred=[" + filter->ToCanonicalString() + "]";
      if (est_bytes >= 0) {
        s += " est=" + std::to_string(static_cast<long long>(est_bytes)) + "B";
      }
      break;
    case DistOpKind::kDistIndexScan: {
      s += "INDEXSCAN " + table + " index=" + index_column + " probe=";
      if (probe_is_range) {
        s += "range[" + probe_lo.ToString() + ".." + probe_hi.ToString() + "]";
      } else {
        s += "eq(" + probe_eq.ToString() + ")";
      }
      if (probe_shard >= 0) {
        s += " shard=" + std::to_string(probe_shard);
      }
      if (filter) s += " residual=[" + filter->ToCanonicalString() + "]";
      if (est_rows >= 0) {
        s += " est_rows~" + std::to_string(static_cast<long long>(est_rows));
      }
      break;
    }
    case DistOpKind::kDistHashJoin:
      s += "HASHJOIN " + left_key + " = " + right_key + " strategy=";
      s += cluster::ToString(strategy);
      if (residual) s += " residual=[" + residual->ToCanonicalString() + "]";
      break;
    case DistOpKind::kDistPartialAgg:
      s += "PARTIALAGG " + AggListToString(group_by, aggs);
      break;
    case DistOpKind::kDistFinalAgg:
      s += "FINALAGG " + AggListToString(group_by, aggs);
      break;
    case DistOpKind::kGather:
      s += "GATHER ";
      s += !children.empty() && children[0] &&
                   children[0]->kind == DistOpKind::kDistPartialAgg
               ? "partials"
               : "rows";
      break;
  }
  s += "\n";
  for (const auto& c : children) {
    if (c) s += c->ToString(indent + 1);
  }
  return s;
}

Result<DistPlanResult> ExecuteDistPlan(Cluster* cluster, const DistOpPtr& root,
                                       const DistExecOptions& options) {
  DistPlanExecutor exec(cluster, options);
  return exec.Run(root);
}

// --- Lowering ----------------------------------------------------------------

namespace {

/// True when the expression clones and binds cleanly against `schema` —
/// the lowering's proof that a shard (or the CN join) can evaluate it.
bool BindsOn(const sql::ExprPtr& e, const sql::Schema& schema) {
  if (!e) return true;
  sql::ExprPtr c = e->Clone();
  return c->Bind(schema).ok();
}

}  // namespace

DistLowering LowerSelectPlan(const sql::PlanPtr& logical, Cluster* cluster,
                             const optimizer::StatsRegistry* stats,
                             const DistExecOptions& options) {
  DistLowering out;
  const sql::PlanNode* node = logical.get();
  if (node == nullptr) {
    out.fallback_reason = "empty plan";
    return out;
  }

  // Peel the CN-side wrappers (re-executed over the gathered result):
  // Limit / Sort / Project / HAVING filters, outermost first.
  while (node != nullptr) {
    if (node->kind == sql::PlanKind::kLimit ||
        node->kind == sql::PlanKind::kSort ||
        node->kind == sql::PlanKind::kProject ||
        node->kind == sql::PlanKind::kFilter) {
      out.cn_post.push_back(node);
      node = node->children.empty() ? nullptr : node->children[0].get();
      continue;
    }
    break;
  }
  if (node == nullptr) {
    out.fallback_reason = "plan has no input relation";
    return out;
  }
  if (node->kind == sql::PlanKind::kSetOp) {
    out.fallback_reason = "set operations / DISTINCT run single-node";
    return out;
  }
  if (node->kind == sql::PlanKind::kValues) {
    out.fallback_reason = "VALUES input is already local";
    return out;
  }

  const sql::PlanNode* agg_node = nullptr;
  if (node->kind == sql::PlanKind::kAggregate) {
    agg_node = node;
    node = node->children.empty() ? nullptr : node->children[0].get();
    if (node == nullptr) {
      out.fallback_reason = "aggregate has no input";
      return out;
    }
    if (node->kind == sql::PlanKind::kFilter) {
      // A Filter squeezed between Aggregate and the core means the planner
      // could not push every predicate into scans / the join — the shards
      // cannot evaluate it either.
      out.fallback_reason = "predicate not pushable to shards";
      return out;
    }
  }

  std::vector<int> serving = ServingDns(cluster);
  if (serving.empty()) {
    out.fallback_reason = "no serving data nodes";
    return out;
  }
  DataNode* dn0 = cluster->dn(serving[0]);

  // Lower one logical Scan leaf to a DistScan, choosing the scan path from
  // columnar registration + filter recognizability, and stamping the
  // planner's byte estimate for EXPLAIN.
  auto lower_scan = [&](const sql::PlanNode& s,
                        sql::Schema* schema_out) -> Result<DistOpPtr> {
    if (!s.alias.empty()) {
      return Status::InvalidArgument("aliased scans run single-node");
    }
    auto t = dn0->GetTable(s.table_name);
    if (!t.ok()) {
      return Status::InvalidArgument("table not sharded on the cluster: " +
                                     s.table_name);
    }
    *schema_out = (*t)->schema();
    if (s.predicate && !BindsOn(s.predicate, *schema_out)) {
      return Status::InvalidArgument(
          "scan predicate does not bind on the shard schema");
    }
    ScanPath path = ScanPath::kRow;
    std::string detail;
    if (cluster->IsColumnar(s.table_name)) {
      if (RecognizeFilter(s.predicate).has_value()) {
        path = ScanPath::kColumnar;
        detail = "columnar(materialize)";
      } else {
        // Pre-demoted to the row path here, so the executor never sees the
        // columnar attempt — count the fallback at lowering time.
        detail = "row(filter not recognized)";
        cluster->metrics().Add("columnar.fallback_filter");
      }
    }
    DistOpPtr scan = MakeDistScan(
        s.table_name, s.predicate ? s.predicate->Clone() : nullptr, path);
    scan->scan_detail = std::move(detail);
    if (stats != nullptr) {
      if (const auto* ts = stats->Get(s.table_name)) {
        scan->est_bytes = ts->EstimatedBytes();
      }
    }
    return scan;
  };

  // Index fast path: when the predicate is a recognizable equality (or, on
  // an ordered index, range) conjunct on an indexed column and the
  // ANALYZE-derived selectivity predicts fewer rows than the scan
  // crossover, the DistScan core is replaced with a DistIndexScan. Only
  // the single-scan core qualifies — join inputs want whole relations, so
  // they keep the scan path.
  auto try_index_scan = [&](const sql::PlanNode& s, const sql::Schema& schema,
                            DistOpPtr core_in) -> DistOpPtr {
    if (!options.use_index || s.predicate == nullptr) return core_in;
    auto pred = RecognizeFilter(s.predicate);
    if (!pred.has_value() || pred->never ||
        pred->kind == ColumnarPredicate::Kind::kAll) {
      return core_in;
    }
    auto col = schema.IndexOf(pred->column);
    if (!col.ok()) return core_in;
    auto index = cluster->IndexOn(serving[0], s.table_name, *col);
    if (index == nullptr) return core_in;
    const bool is_point = pred->kind == ColumnarPredicate::Kind::kStringEq ||
                          pred->lo == pred->hi;
    if (!is_point &&
        index->kind() != storage::SecondaryIndex::Kind::kOrdered) {
      return core_in;  // a hash index cannot serve a range
    }

    // Crossover: per-DN probe cost (setup + copy-out per estimated
    // matching row) against the per-DN heap walk it replaces. Without
    // stats, trust a point probe — the OLTP case CREATE INDEX exists for —
    // but never a blind range.
    const LatencyModel& lat = cluster->latency();
    double est_rows = -1;
    const optimizer::TableStats* ts =
        stats != nullptr ? stats->Get(s.table_name) : nullptr;
    if (ts != nullptr && ts->num_rows > 0) {
      if (const optimizer::ColumnStats* cs = ts->Column(BareName(pred->column))) {
        double sel;
        if (pred->kind == ColumnarPredicate::Kind::kStringEq) {
          sel = cs->EqSelectivity(sql::Value(pred->needle));
        } else if (is_point) {
          sel = cs->EqSelectivity(sql::Value(pred->lo));
        } else {
          const double hi_sel =
              pred->hi == std::numeric_limits<int64_t>::max()
                  ? 1.0
                  : cs->LtSelectivity(sql::Value(pred->hi + 1));
          sel = std::max(0.0, hi_sel - cs->LtSelectivity(sql::Value(pred->lo)));
        }
        est_rows = sel * static_cast<double>(ts->num_rows);
      }
    }
    const double n = static_cast<double>(serving.size());
    if (est_rows >= 0) {
      const double rows_per_dn = static_cast<double>(ts->num_rows) / n;
      const double probe_cost =
          static_cast<double>(lat.index_probe_service_us) +
          (est_rows / n) * static_cast<double>(lat.index_row_service_us);
      const double scan_cost =
          static_cast<double>(lat.dn_stmt_service_us) +
          std::ceil(rows_per_dn / 256.0) *
              static_cast<double>(lat.row_scan_block_service_us);
      if (probe_cost >= scan_cost) return core_in;
    } else if (!is_point) {
      return core_in;
    }

    DistOpPtr idx = MakeDistIndexScan(s.table_name, s.predicate->Clone(),
                                      index->column(), *col);
    if (is_point) {
      idx->probe_eq = pred->kind == ColumnarPredicate::Kind::kStringEq
                          ? sql::Value(pred->needle)
                          : sql::Value(pred->lo);
      // Equality on the shard key (schema column 0 — INSERT routes rows by
      // row[0]) pins every possible match to one shard.
      if (*col == 0) idx->probe_shard = cluster->ShardFor(idx->probe_eq);
    } else {
      idx->probe_is_range = true;
      idx->probe_lo = sql::Value(pred->lo);
      idx->probe_hi = sql::Value(pred->hi);
    }
    idx->est_rows = est_rows;
    idx->est_bytes = core_in->est_bytes;
    idx->scan_detail = "index(" + BareName(pred->column) + ")";
    return idx;
  };

  // Lower the core: a single table scan, or an inner equi-join of two scans.
  DistOpPtr core;
  sql::Schema core_schema;
  if (node->kind == sql::PlanKind::kScan) {
    auto scan = lower_scan(*node, &core_schema);
    if (!scan.ok()) {
      out.fallback_reason = scan.status().message();
      return out;
    }
    core = try_index_scan(*node, core_schema, std::move(*scan));
  } else if (node->kind == sql::PlanKind::kJoin) {
    if (node->join_type != sql::JoinType::kInner) {
      out.fallback_reason = "only inner joins run distributed";
      return out;
    }
    if (node->children.size() != 2 ||
        node->children[0]->kind != sql::PlanKind::kScan ||
        node->children[1]->kind != sql::PlanKind::kScan) {
      out.fallback_reason = "multi-way joins run single-node";
      return out;
    }
    sql::Schema left_schema, right_schema;
    auto left = lower_scan(*node->children[0], &left_schema);
    if (!left.ok()) {
      out.fallback_reason = left.status().message();
      return out;
    }
    auto right = lower_scan(*node->children[1], &right_schema);
    if (!right.ok()) {
      out.fallback_reason = right.status().message();
      return out;
    }
    // Split the join predicate: the first equi conjunct becomes the hash
    // key; everything else is the residual, evaluated on the joined row.
    std::vector<sql::ExprPtr> conjuncts;
    sql::SplitConjuncts(node->predicate, &conjuncts);
    std::string left_key, right_key;
    std::vector<sql::ExprPtr> residual_parts;
    bool found_equi = false;
    for (auto& c : conjuncts) {
      std::string lc, rc;
      if (!found_equi &&
          sql::IsEquiJoinPredicate(*c, left_schema, right_schema, &lc, &rc)) {
        found_equi = true;
        left_key = lc;
        right_key = rc;
      } else {
        residual_parts.push_back(std::move(c));
      }
    }
    if (!found_equi) {
      out.fallback_reason = "join has no equi-join conjunct";
      return out;
    }
    sql::ExprPtr residual = sql::ConjoinAll(residual_parts);
    core_schema = left_schema.Concat(right_schema);
    if (residual && !BindsOn(residual, core_schema)) {
      out.fallback_reason = "join residual does not bind on the joined schema";
      return out;
    }
    // The join strategy is resolvable at plan time only when both relations
    // have statistics (otherwise kAuto: the executor decides from the
    // scanned sizes). Which side moves and which is built is always decided
    // at execution, from what the scans actually return.
    JoinStrategy strategy = JoinStrategy::kAuto;
    const optimizer::TableStats* lstats =
        stats != nullptr ? stats->Get(node->children[0]->table_name) : nullptr;
    const optimizer::TableStats* rstats =
        stats != nullptr ? stats->Get(node->children[1]->table_name) : nullptr;
    if (lstats != nullptr && rstats != nullptr) {
      strategy = ChooseJoinStrategy(lstats->EstimatedBytes(),
                                    rstats->EstimatedBytes(),
                                    static_cast<int>(serving.size()));
    }
    core = MakeDistHashJoin(std::move(*left), std::move(*right),
                            std::move(left_key), std::move(right_key),
                            residual ? residual->Clone() : nullptr, strategy);
    if (lstats != nullptr || rstats != nullptr) {
      core->est_bytes = (lstats != nullptr ? lstats->EstimatedBytes() : 0) +
                        (rstats != nullptr ? rstats->EstimatedBytes() : 0);
    }
  } else {
    out.fallback_reason = "unsupported plan shape below the aggregate";
    return out;
  }

  // Lower the aggregate, if any. The shards compute partials and the CN
  // merges them, so every aggregate argument must be a plain column the
  // shard schema can resolve, and the output names must match what the
  // single-node executor would produce (bare group names).
  if (agg_node != nullptr) {
    std::vector<DistributedAgg> dist_aggs;
    for (const auto& g : agg_node->group_by) {
      if (BareName(g) != g) {
        out.fallback_reason = "qualified GROUP BY keys run single-node";
        return out;
      }
      if (!core_schema.IndexOf(g).ok()) {
        out.fallback_reason = "GROUP BY key not resolvable on shards: " + g;
        return out;
      }
    }
    for (const auto& a : agg_node->aggregates) {
      DistributedAgg da;
      da.func = a.func;
      da.name = a.name;
      if (a.arg == nullptr) {
        if (a.func != sql::AggFunc::kCount) {
          out.fallback_reason = "aggregate with no argument";
          return out;
        }
      } else {
        if (a.arg->kind() != sql::ExprKind::kColumn) {
          out.fallback_reason =
              "aggregate over an expression runs single-node";
          return out;
        }
        da.column = a.arg->column_name();
        if (!core_schema.IndexOf(da.column).ok()) {
          out.fallback_reason =
              "aggregate argument not resolvable on shards: " + da.column;
          return out;
        }
      }
      dist_aggs.push_back(std::move(da));
    }
    auto names = GroupOutputNames(agg_node->group_by, dist_aggs);
    if (!names.ok()) {
      out.fallback_reason = names.status().message();
      return out;
    }
    // Annotate the fused scan with the kernel decision EXPLAIN will show:
    // grouped-kernel / kernel when the partial aggregate runs as pure
    // column kernels on fresh shards, else the materialize reason.
    if (core->kind == DistOpKind::kDistScan &&
        core->path == ScanPath::kColumnar) {
      std::vector<PartialPlan> plans;
      plans.reserve(dist_aggs.size());
      for (const auto& a : dist_aggs) plans.push_back(DecomposeAgg(a));
      core->scan_detail = KernelSupportDetail(
          !agg_node->group_by.empty(),
          ClassifyKernelSupport(agg_node->group_by, plans, core_schema));
    }
    out.root = MakeDistFinalAgg(
        MakeGather(MakeDistPartialAgg(std::move(core), agg_node->group_by,
                                      dist_aggs)),
        agg_node->group_by, dist_aggs);
    out.cut = agg_node;
  } else {
    out.root = MakeGather(std::move(core));
    out.cut = node;
  }
  return out;
}

namespace {

void CollectScans(const DistOpPtr& op, std::vector<const DistOp*>* out) {
  if (op == nullptr) return;
  if (op->kind == DistOpKind::kDistScan ||
      op->kind == DistOpKind::kDistIndexScan) {
    out->push_back(op.get());
  }
  for (const auto& c : op->children) CollectScans(c, out);
}

}  // namespace

std::string ExplainScanPaths(Cluster* cluster, const DistOpPtr& root) {
  std::vector<const DistOp*> scans;
  CollectScans(root, &scans);
  if (scans.empty()) return "";
  std::string s;
  const std::vector<int> serving = ServingDns(cluster);
  for (const DistOp* scan : scans) {
    if (scan->kind == DistOpKind::kDistIndexScan) {
      // Index probes: one line per DN the probe will touch (a shard-key
      // equality pins the plan to one DN), with the ANALYZE estimate the
      // crossover was decided on. Realized rows land in the post-run scan
      // report (DistExecStats::per_dn) for the estimated-vs-actual check.
      std::vector<int> probed = serving;
      if (scan->probe_shard >= 0) {
        probed = {cluster->EffectiveDn(scan->probe_shard)};
      }
      for (int dn : probed) {
        s += "  dn" + std::to_string(dn) + " " + scan->table +
             ": access=index(" + BareName(scan->index_column) + ")";
        if (scan->probe_is_range) {
          s += " probe=range[" + scan->probe_lo.ToString() + ".." +
               scan->probe_hi.ToString() + "]";
        } else {
          s += " probe=eq(" + scan->probe_eq.ToString() + ")";
        }
        if (scan->est_rows >= 0) {
          s += " est_rows~" +
               std::to_string(static_cast<long long>(scan->est_rows));
        }
        s += "\n";
      }
      continue;
    }
    for (int dn : serving) {
      s += "  dn" + std::to_string(dn) + " " + scan->table + ": ";
      if (scan->path != ScanPath::kColumnar ||
          !cluster->IsColumnar(scan->table)) {
        s += scan->scan_detail.empty() ? "row" : scan->scan_detail;
        s += " access=scan\n";
        continue;
      }
      auto pred = RecognizeFilter(scan->filter);
      if (!pred.has_value()) {
        s += "row(filter not recognized) access=scan\n";
        continue;
      }
      std::shared_ptr<storage::DeltaShard> shard =
          cluster->dn(dn)->GetColumnarShard(scan->table);
      if (shard == nullptr) {
        s += "row access=scan\n";
        continue;
      }
      // Forecast against a fresh local snapshot: sealed chunk counts, prune
      // estimates, and the delta-tail rows a scan issued now would union in.
      txn::Snapshot snap = cluster->dn(dn)->txn_mgr().TakeSnapshot();
      txn::VisibilityChecker vis(&snap, &cluster->dn(dn)->txn_mgr().clog(),
                                 txn::kInvalidXid);
      storage::DeltaShard::View view = shard->Snapshot(vis);
      const storage::ColumnTable& ct = *view.sealed;
      s += scan->scan_detail.empty() ? "columnar" : scan->scan_detail;
      s += " chunks=" + std::to_string(ct.num_chunks());
      s += " delta=" + std::to_string(view.delta_examined);
      storage::PruneEstimate est;
      bool have_est = false;
      if (pred->kind == ColumnarPredicate::Kind::kIntRange) {
        auto e = ct.EstimatePruningInt64(pred->column, pred->lo, pred->hi);
        if (e.ok()) {
          est = *e;
          have_est = true;
        }
      } else if (pred->kind == ColumnarPredicate::Kind::kStringEq) {
        auto e = ct.EstimatePruningStringEq(pred->column, pred->needle);
        if (e.ok()) {
          est = *e;
          have_est = true;
        }
      }
      if (pred->never) {
        s += " prune=all(never-true predicate)";
      } else if (have_est) {
        s += " prune~" + std::to_string(est.chunks_prunable) + "/" +
             std::to_string(est.chunks_total);
      }
      s += " access=scan\n";
    }
  }
  return s;
}

ForceColumnarMaterializeForTesting::ForceColumnarMaterializeForTesting() {
  g_force_materialize.store(true, std::memory_order_relaxed);
}

ForceColumnarMaterializeForTesting::~ForceColumnarMaterializeForTesting() {
  g_force_materialize.store(false, std::memory_order_relaxed);
}

}  // namespace ofi::cluster
