/// The one DN scan fragment: the heap visit, the index probe and the
/// columnar view feed one filter-and-aggregate sink. These cases pin what
/// that fragment must keep from the per-path loops it replaced: a fused
/// aggregate types SUM/MIN/MAX by the first passing row on every path, a
/// row scan charges and counts naive bytes over every visible row (not the
/// rows that pass), an index scan counts the rows it probed (not the rows
/// its residual keeps), and integer SUM wraps identically on every path.
#include <algorithm>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "dist_plans.h"
#include "sql/executor.h"

namespace ofi::cluster {
namespace {

using sql::AggFunc;
using sql::Column;
using sql::Expr;
using sql::Row;
using sql::Schema;
using sql::Table;
using sql::TypeId;
using sql::Value;

Schema TSchema() {
  return Schema({Column{"k", TypeId::kInt64, ""},
                 Column{"g", TypeId::kInt64, ""},
                 Column{"flag", TypeId::kInt64, ""},
                 Column{"v", TypeId::kInt64, ""}});
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

/// Same rows up to order.
void ExpectSameRows(const Table& got, const Table& want) {
  const std::vector<Row> g = Sorted(got.rows());
  const std::vector<Row> w = Sorted(want.rows());
  ASSERT_EQ(g.size(), w.size());
  for (size_t r = 0; r < g.size(); ++r) {
    ASSERT_EQ(g[r].size(), w[r].size());
    for (size_t c = 0; c < g[r].size(); ++c) {
      EXPECT_TRUE(g[r][c].Equals(w[r][c])) << "row " << r << " col " << c;
    }
  }
}

/// Same column names and types, same rows up to order.
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().num_columns(), want.schema().num_columns());
  for (size_t c = 0; c < want.schema().num_columns(); ++c) {
    EXPECT_EQ(got.schema().column(c).name, want.schema().column(c).name);
    EXPECT_EQ(got.schema().column(c).type, want.schema().column(c).type)
        << want.schema().column(c).name;
  }
  ExpectSameRows(got, want);
}

/// scatter -> fused partial agg -> gather -> final agg over `core`.
DistOpPtr AggOver(DistOpPtr core, std::vector<std::string> group_by,
                  std::vector<DistributedAgg> aggs) {
  return MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(std::move(core), group_by, aggs)),
      group_by, aggs);
}

/// t(k, g, flag, v) on 4 DNs: k is the shard key, g = k % 10, flag = 1 on
/// every 7th row, and v = 3k except where flag = 1, where it is NULL.
class ScanFragmentTest : public ::testing::Test {
 protected:
  ScanFragmentTest() : cluster_(4, Protocol::kGtmLite) {}

  void Load(int64_t n) {
    ASSERT_TRUE(cluster_.CreateTable("t", TSchema()).ok());
    for (int64_t k = 0; k < n; ++k) {
      const bool flagged = k % 7 == 0;
      Row row = {Value(k), Value(k % 10), Value(int64_t{flagged ? 1 : 0}),
                 flagged ? Value::Null() : Value(k * 3)};
      Txn t = cluster_.Begin(TxnScope::kSingleShard);
      ASSERT_TRUE(t.Insert("t", row[0], row).ok());
      ASSERT_TRUE(t.Commit().ok());
      rows_.push_back(std::move(row));
    }
  }

  /// The single-node src/sql answer over the inserted rows.
  Table Oracle(sql::ExprPtr filter, const std::vector<std::string>& group_by,
               const std::vector<DistributedAgg>& aggs) const {
    sql::Catalog catalog;
    catalog.Register("t", Table(TSchema(), rows_));
    std::vector<sql::AggSpec> specs;
    for (const auto& a : aggs) {
      specs.push_back(sql::AggSpec{
          a.func, a.column.empty() ? nullptr : Expr::ColumnRef(a.column),
          a.name});
    }
    sql::Executor exec(&catalog);
    return exec
        .Execute(sql::MakeAggregate(sql::MakeScan("t", std::move(filter)),
                                    group_by, specs))
        .ValueOrDie();
  }

  Cluster cluster_;
  std::vector<Row> rows_;
};

TEST_F(ScanFragmentTest, FusedSumTakesTheFirstPassingRowsTypeOnEveryPath) {
  Load(280);
  ASSERT_TRUE(cluster_.CreateIndex("t", "flag").ok());
  ASSERT_TRUE(cluster_.RegisterColumnar("t").ok());
  // Every row passing flag = 1 has a NULL v, so the first passing row's
  // SUM/MIN argument is NULL: the oracle types both columns kNull (not the
  // schema's BIGINT) and COUNT(v) is 0 in every group.
  auto filter = [] { return Expr::Eq("flag", Value(1)); };
  const std::vector<std::string> group_by = {"g"};
  const std::vector<DistributedAgg> aggs = {{AggFunc::kCount, "", "n"},
                                            {AggFunc::kCount, "v", "nv"},
                                            {AggFunc::kSum, "v", "s"},
                                            {AggFunc::kMin, "v", "lo"}};
  const Table want = Oracle(filter(), group_by, aggs);
  ASSERT_EQ(want.num_rows(), 10u);
  ASSERT_EQ(want.schema().column(3).type, TypeId::kNull);
  ASSERT_EQ(want.schema().column(4).type, TypeId::kNull);

  auto index_scan = MakeDistIndexScan("t", filter(), "flag", /*index_col=*/2);
  index_scan->probe_eq = Value(1);
  struct Case {
    std::string path;  // realized per-DN path
    DistOpPtr plan;
  };
  const std::vector<Case> cases = {
      {"row", AggPlan("t", filter(), group_by, aggs, ScanPath::kRow)},
      {"index(flag)", AggOver(index_scan, group_by, aggs)},
      {"columnar(materialize:forced)",
       AggPlan("t", filter(), group_by, aggs, ScanPath::kColumnar)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    std::optional<ForceColumnarMaterializeForTesting> force;
    if (c.path.rfind("columnar", 0) == 0) force.emplace();
    auto got = ExecuteDistPlan(&cluster_, c.plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_FALSE(got->stats.per_dn.empty());
    for (const auto& info : got->stats.per_dn) EXPECT_EQ(info.path, c.path);
    ExpectSameTable(got->table, want);
  }
}

TEST_F(ScanFragmentTest, FilteredRowScanChargesEveryVisibleRow) {
  Load(4000);
  // k < 40 keeps 1% of the rows. The row-scan charge (per 256 rows walked)
  // and the naive-plan bytes still count every visible row on each DN:
  // counting only the passing rows would charge one block per DN, not four.
  auto filter = [] { return Expr::Lt("k", Value(40)); };
  size_t all_bytes = 0;
  for (const Row& row : rows_) all_bytes += sql::RowByteSize(row);

  cluster_.ResetSimTime();
  auto plain = ExecuteDistPlan(
      &cluster_, MakeGather(MakeDistScan("t", filter())));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->table.num_rows(), 40u);
  cluster_.ResetSimTime();
  auto fused = ExecuteDistPlan(
      &cluster_, AggPlan("t", filter(), {"g"},
                         {{AggFunc::kCount, "", "n"}, {AggFunc::kSum, "v", "s"}},
                         ScanPath::kRow));
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(fused->table.num_rows(), 10u);

  EXPECT_EQ(plain->stats.naive_bytes, all_bytes);
  EXPECT_EQ(fused->stats.naive_bytes, all_bytes);
  // Pinned from the per-path loops this fragment replaced, which copied
  // every visible row before filtering.
  EXPECT_EQ(plain->stats.sim_latency_us, 252);
  EXPECT_EQ(fused->stats.sim_latency_us, 248);
}

TEST_F(ScanFragmentTest, IndexScanCountsProbedRowsBeforeTheResidual) {
  Load(400);
  ASSERT_TRUE(cluster_.CreateIndex("t", "g").ok());
  // The probe returns the 40 rows with g = 3; the residual keeps v > 600.
  auto filter = [] {
    return Expr::And(Expr::Eq("g", Value(3)), Expr::Gt("v", Value(600)));
  };
  size_t probed = 0, probed_bytes = 0, kept = 0;
  for (const Row& row : rows_) {
    if (row[1].AsInt() != 3) continue;
    ++probed;
    probed_bytes += sql::RowByteSize(row);
    if (!row[3].is_null() && row[3].AsInt() > 600) ++kept;
  }
  ASSERT_GT(kept, 0u);
  ASSERT_LT(kept, probed);

  auto index_scan = [&] {
    auto scan = MakeDistIndexScan("t", filter(), "g", /*index_col=*/1);
    scan->probe_eq = Value(3);
    return scan;
  };
  const std::vector<DistributedAgg> aggs = {{AggFunc::kCount, "", "n"},
                                            {AggFunc::kSum, "v", "s"}};
  auto rows = ExecuteDistPlan(&cluster_,
                              MakeGather(index_scan()));
  auto agg = ExecuteDistPlan(&cluster_, AggOver(index_scan(), {}, aggs));
  for (const auto* r : {&rows, &agg}) {
    ASSERT_TRUE(r->ok()) << r->status().ToString();
    const DistExecStats& st = (*r)->stats;
    EXPECT_EQ(st.scan_stats.index_rows, probed);
    EXPECT_EQ(st.naive_bytes, probed_bytes);
    size_t per_dn = 0;
    for (const auto& info : st.per_dn) {
      EXPECT_EQ(info.path, "index(g)");
      per_dn += info.stats.index_rows;
    }
    EXPECT_EQ(per_dn, probed);
  }
  EXPECT_EQ(rows->table.num_rows(), kept);
  ExpectSameRows(agg->table, Oracle(filter(), {}, aggs));
}

TEST_F(ScanFragmentTest, IntegerSumWrapsTheSameOnEveryPath) {
  // INT64_MAX + 1 on one shard: the single-node oracle, the row path, the
  // column kernels (global and grouped) and the delta-tail merges all wrap
  // to INT64_MIN. Overflow is defined, and every path agrees bit for bit.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  cluster_.set_auto_merge(false);  // the tail table's tail stays a tail
  int64_t second = 1;
  while (cluster_.ShardFor(Value(second)) != cluster_.ShardFor(Value(0))) {
    ++second;
  }
  const std::vector<Row> rows = {
      {Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0}), Value(kMax)},
      {Value(second), Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{1})}};
  auto insert = [&](const std::string& table, const Row& row) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert(table, row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
  };
  // "sealed": both rows in sealed chunks. "tail": INT64_MAX sealed, 1 in
  // the delta tail.
  ASSERT_TRUE(cluster_.CreateTable("sealed", TSchema()).ok());
  ASSERT_TRUE(cluster_.CreateTable("tail", TSchema()).ok());
  insert("sealed", rows[0]);
  insert("sealed", rows[1]);
  insert("tail", rows[0]);
  ASSERT_TRUE(cluster_.RegisterColumnar("sealed").ok());
  ASSERT_TRUE(cluster_.RegisterColumnar("tail").ok());
  insert("tail", rows[1]);

  const std::vector<DistributedAgg> sum = {{AggFunc::kSum, "v", "s"}};
  rows_ = rows;
  const Table oracle = Oracle(nullptr, {}, sum);
  ASSERT_EQ(oracle.num_rows(), 1u);
  EXPECT_EQ(oracle.rows()[0][0].AsInt(), kMin);

  for (const std::string table : {"sealed", "tail"}) {
    for (const std::vector<std::string>& group_by :
         {std::vector<std::string>{}, std::vector<std::string>{"g"}}) {
      for (ScanPath path : {ScanPath::kRow, ScanPath::kColumnar}) {
        const std::string label =
            path == ScanPath::kRow
                ? "row"
                : (group_by.empty() ? "columnar(kernel)"
                                    : "columnar(grouped-kernel)");
        SCOPED_TRACE(table + " " + label);
        auto got = ExecuteDistPlan(&cluster_,
                                   AggPlan(table, nullptr, group_by, sum, path));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->table.num_rows(), 1u);
        EXPECT_EQ(got->table.rows()[0].back().AsInt(), kMin);
        for (const auto& info : got->stats.per_dn) EXPECT_EQ(info.path, label);
        if (path == ScanPath::kColumnar) {
          EXPECT_EQ(got->stats.scan_stats.delta_rows,
                    table == "tail" ? 1u : 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ofi::cluster
