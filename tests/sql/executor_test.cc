#include "sql/executor.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ofi::sql {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    // t1(a1, b1): 10 rows; t2(a2, c2): 5 rows keyed to join.
    Table t1{Schema({Column{"a1", TypeId::kInt64, "t1"},
                     Column{"b1", TypeId::kInt64, "t1"}})};
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(t1.Append({Value(i % 5), Value(i * 10)}).ok());
    }
    catalog_.Register("t1", std::move(t1));

    Table t2{Schema({Column{"a2", TypeId::kInt64, "t2"},
                     Column{"c2", TypeId::kString, "t2"}})};
    for (int64_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(t2.Append({Value(i), Value("name" + std::to_string(i))}).ok());
    }
    catalog_.Register("t2", std::move(t2));
  }

  Table MustExecute(const PlanPtr& plan) {
    Executor exec(&catalog_);
    auto r = exec.Execute(plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : Table{};
  }

  Catalog catalog_;
};

TEST_F(ExecutorTest, ScanAll) {
  EXPECT_EQ(MustExecute(MakeScan("t1")).num_rows(), 10u);
}

TEST_F(ExecutorTest, ScanWithPredicate) {
  auto plan = MakeScan("t1", Expr::Gt("b1", Value(40)));
  EXPECT_EQ(MustExecute(plan).num_rows(), 5u);
}

TEST_F(ExecutorTest, ScanMissingTableFails) {
  Executor exec(&catalog_);
  EXPECT_TRUE(exec.Execute(MakeScan("nope")).status().IsNotFound());
}

TEST_F(ExecutorTest, FilterOnTopOfScan) {
  auto plan = MakeFilter(MakeScan("t1"), Expr::Eq("a1", Value(2)));
  EXPECT_EQ(MustExecute(plan).num_rows(), 2u);
}

TEST_F(ExecutorTest, ProjectComputesExpressions) {
  auto plan = MakeProject(
      MakeScan("t2"),
      {Expr::ColumnRef("a2"),
       Expr::Arith(ArithOp::kMul, Expr::ColumnRef("a2"), Expr::Literal(Value(2)))},
      {"a2", "doubled"});
  Table out = MustExecute(plan);
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_TRUE(out.schema().IndexOf("doubled").ok());
  for (const auto& row : out.rows()) {
    EXPECT_EQ(row[1].AsInt(), row[0].AsInt() * 2);
  }
}

TEST_F(ExecutorTest, HashJoinOnEquiPredicate) {
  auto plan = MakeJoin(MakeScan("t1"), MakeScan("t2"), Expr::EqCols("a1", "a2"));
  Table out = MustExecute(plan);
  // Every t1 row (a1 in 0..4, twice each) matches exactly one t2 row.
  EXPECT_EQ(out.num_rows(), 10u);
  EXPECT_EQ(out.schema().num_columns(), 4u);
}

// Built on either side, a HashJoin emits the same left ++ right matches:
// duplicate keys on both sides, NULL keys on both sides (never matching)
// and a residual over both halves.
TEST_F(ExecutorTest, HashJoinBuildSideKeepsLeftThenRightMatches) {
  const Schema left({Column{"lk", TypeId::kInt64, ""},
                     Column{"lv", TypeId::kInt64, ""}});
  const Schema right({Column{"rk", TypeId::kInt64, ""},
                      Column{"rv", TypeId::kString, ""}});
  std::vector<Row> lrows, rrows;
  for (int64_t i = 0; i < 12; ++i) {
    lrows.push_back({i % 4 == 3 ? Value::Null() : Value(i % 3), Value(i)});
  }
  for (int64_t i = 0; i < 7; ++i) {
    rrows.push_back({i == 6 ? Value::Null() : Value(i % 4),
                     Value("r" + std::to_string(i))});
  }
  auto join = [&](bool build_left) {
    HashJoin hj;
    EXPECT_TRUE(hj.Bind(left, right,
                        Expr::And(Expr::EqCols("lk", "rk"),
                                  Expr::Gt("lv", Value(int64_t{1}))))
                    .ok());
    hj.Build(build_left ? lrows : rrows, build_left);
    std::vector<std::string> out;
    for (const Row& probe : build_left ? rrows : lrows) {
      hj.Probe(probe, [&out](const Row& joined) {
        std::string s;
        for (const Value& v : joined) s += v.ToString() + "|";
        out.push_back(s);
        return true;
      });
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::string> by_right = join(false);
  EXPECT_EQ(by_right.size(), 11u);
  EXPECT_EQ(by_right.front(), "0|6|0|'r0'|");
  EXPECT_EQ(join(true), by_right);
}

TEST_F(ExecutorTest, JoinWithResidualPredicate) {
  auto pred = Expr::And(Expr::EqCols("a1", "a2"), Expr::Gt("b1", Value(40)));
  auto plan = MakeJoin(MakeScan("t1"), MakeScan("t2"), pred);
  EXPECT_EQ(MustExecute(plan).num_rows(), 5u);
}

TEST_F(ExecutorTest, LeftOuterJoinKeepsUnmatched) {
  // t2 row with a2 = 99 has no partner in t1... reversed: t1 has a1 in 0..4;
  // join t2 (left) with filtered t1 (a1 > 3): only a2=4 matches.
  auto right = MakeScan("t1", Expr::Gt("a1", Value(3)));
  auto plan = MakeJoin(MakeScan("t2"), right, Expr::EqCols("a2", "a1"),
                       JoinType::kLeftOuter);
  Table out = MustExecute(plan);
  // a2=4 matches 2 t1 rows, others unmatched -> 4 null-padded + 2 = 6.
  EXPECT_EQ(out.num_rows(), 6u);
  size_t nulls = 0;
  for (const auto& row : out.rows()) nulls += row[2].is_null();
  EXPECT_EQ(nulls, 4u);
}

TEST_F(ExecutorTest, SemiJoinEmitsLeftOnceEach) {
  auto plan = MakeJoin(MakeScan("t2"), MakeScan("t1"), Expr::EqCols("a2", "a1"),
                       JoinType::kSemi);
  Table out = MustExecute(plan);
  EXPECT_EQ(out.num_rows(), 5u);               // each t2 row matched
  EXPECT_EQ(out.schema().num_columns(), 2u);   // left schema only
}

TEST_F(ExecutorTest, NestedLoopForNonEquiJoin) {
  auto plan = MakeJoin(MakeScan("t2"), MakeScan("t2", nullptr, "u"),
                       Expr::Compare(CompareOp::kLt, Expr::ColumnRef("t2.a2"),
                                     Expr::ColumnRef("u.a2")));
  EXPECT_EQ(MustExecute(plan).num_rows(), 10u);  // C(5,2)
}

TEST_F(ExecutorTest, AggregateGroupBy) {
  auto plan = MakeAggregate(
      MakeScan("t1"), {"a1"},
      {AggSpec{AggFunc::kCount, nullptr, "n"},
       AggSpec{AggFunc::kSum, Expr::ColumnRef("b1"), "total"},
       AggSpec{AggFunc::kMax, Expr::ColumnRef("b1"), "mx"}});
  Table out = MustExecute(plan);
  EXPECT_EQ(out.num_rows(), 5u);
  for (const auto& row : out.rows()) {
    EXPECT_EQ(row[1].AsInt(), 2);  // two rows per group
  }
}

TEST_F(ExecutorTest, GlobalAggregateOnEmptyInput) {
  auto plan = MakeAggregate(MakeScan("t1", Expr::Gt("b1", Value(10000))), {},
                            {AggSpec{AggFunc::kCount, nullptr, "n"},
                             AggSpec{AggFunc::kSum, Expr::ColumnRef("b1"), "s"}});
  Table out = MustExecute(plan);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(out.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, AvgSkipsNulls) {
  Table t{Schema({Column{"v", TypeId::kInt64, ""}})};
  ASSERT_TRUE(t.Append({Value(10)}).ok());
  ASSERT_TRUE(t.Append({Value::Null()}).ok());
  ASSERT_TRUE(t.Append({Value(20)}).ok());
  catalog_.Register("nulls", std::move(t));
  auto plan = MakeAggregate(MakeScan("nulls"), {},
                            {AggSpec{AggFunc::kAvg, Expr::ColumnRef("v"), "a"},
                             AggSpec{AggFunc::kCount, Expr::ColumnRef("v"), "n"}});
  Table out = MustExecute(plan);
  EXPECT_DOUBLE_EQ(out.rows()[0][0].AsDouble(), 15.0);
  EXPECT_EQ(out.rows()[0][1].AsInt(), 2);  // COUNT(v) skips NULL
}

TEST_F(ExecutorTest, SortAscendingDescending) {
  auto plan = MakeSort(MakeScan("t1"),
                       {SortKey{Expr::ColumnRef("a1"), true},
                        SortKey{Expr::ColumnRef("b1"), false}});
  Table out = MustExecute(plan);
  for (size_t i = 1; i < out.num_rows(); ++i) {
    int64_t prev_a = out.rows()[i - 1][0].AsInt();
    int64_t cur_a = out.rows()[i][0].AsInt();
    EXPECT_LE(prev_a, cur_a);
    if (prev_a == cur_a) {
      EXPECT_GE(out.rows()[i - 1][1].AsInt(), out.rows()[i][1].AsInt());
    }
  }
}

TEST_F(ExecutorTest, LimitAndOffset) {
  auto plan = MakeLimit(MakeSort(MakeScan("t1"),
                                 {SortKey{Expr::ColumnRef("b1"), true}}),
                        3, 2);
  Table out = MustExecute(plan);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.rows()[0][1].AsInt(), 20);
}

TEST_F(ExecutorTest, SetOperations) {
  auto low = MakeScan("t2", Expr::Lt("a2", Value(3)));   // 0,1,2
  auto high = MakeScan("t2", Expr::Gt("a2", Value(1)));  // 2,3,4
  EXPECT_EQ(MustExecute(MakeSetOp(SetOpType::kUnionAll, low, high)).num_rows(), 6u);
  EXPECT_EQ(MustExecute(MakeSetOp(SetOpType::kUnion, low, high)).num_rows(), 5u);
  EXPECT_EQ(MustExecute(MakeSetOp(SetOpType::kIntersect, low, high)).num_rows(), 1u);
  EXPECT_EQ(MustExecute(MakeSetOp(SetOpType::kExcept, low, high)).num_rows(), 2u);
}

TEST_F(ExecutorTest, ValuesNodeWithAlias) {
  Table inline_table{Schema({Column{"x", TypeId::kInt64, ""}})};
  ASSERT_TRUE(inline_table.Append({Value(1)}).ok());
  auto plan = MakeValues(std::move(inline_table), "v");
  Table out = MustExecute(plan);
  EXPECT_TRUE(out.schema().IndexOf("v.x").ok());
}

TEST_F(ExecutorTest, ActualRowsRecordedOnEveryNode) {
  auto scan = MakeScan("t1", Expr::Gt("b1", Value(40)));
  auto join = MakeJoin(scan, MakeScan("t2"), Expr::EqCols("a1", "a2"));
  MustExecute(join);
  EXPECT_EQ(scan->actual_rows, 5);
  EXPECT_EQ(join->actual_rows, 5);
}

TEST_F(ExecutorTest, NullJoinKeysNeverMatch) {
  Table l{Schema({Column{"k", TypeId::kInt64, "l"}})};
  ASSERT_TRUE(l.Append({Value::Null()}).ok());
  ASSERT_TRUE(l.Append({Value(1)}).ok());
  Table r{Schema({Column{"k", TypeId::kInt64, "r"}})};
  ASSERT_TRUE(r.Append({Value::Null()}).ok());
  ASSERT_TRUE(r.Append({Value(1)}).ok());
  catalog_.Register("l", std::move(l));
  catalog_.Register("r", std::move(r));
  auto plan = MakeJoin(MakeScan("l"), MakeScan("r"), Expr::EqCols("l.k", "r.k"));
  EXPECT_EQ(MustExecute(plan).num_rows(), 1u);
}

}  // namespace
}  // namespace ofi::sql
