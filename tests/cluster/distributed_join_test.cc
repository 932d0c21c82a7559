/// Cross-shard joins over the exchange: under BOTH movement strategies the
/// distributed result must be bit-identical (after canonical ordering) to
/// the single-node hash-join reference, on randomized workloads and on the
/// edge cases (empty shard, all rows on one shard, NULL join keys,
/// duplicate keys). Byte accounting must favor the right strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
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

Schema OrdersSchema() {
  return Schema({Column{"o_id", TypeId::kInt64, ""},
                 Column{"cust", TypeId::kInt64, ""},
                 Column{"amount", TypeId::kInt64, ""}});
}

Schema CustomersSchema() {
  return Schema({Column{"c_id", TypeId::kInt64, ""},
                 Column{"segment", TypeId::kInt64, ""}});
}

/// Total order over rows so "bit-identical after canonical ordering" is a
/// straight vector comparison. Compares the rendered values (NULL sorts
/// first) column by column.
std::string RowKey(const Row& r) {
  std::string k;
  for (const auto& v : r) {
    k += v.is_null() ? std::string("\x01<null>") : v.ToString();
    k += '\x1f';
  }
  return k;
}

std::vector<Row> Canonical(const Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return RowKey(a) < RowKey(b);
  });
  return rows;
}

void ExpectSameRows(const Table& got, const Table& want) {
  std::vector<Row> g = Canonical(got), w = Canonical(want);
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(g[i].size(), w[i].size()) << "row " << i;
    for (size_t c = 0; c < g[i].size(); ++c) {
      // Bit-identical: same type AND same payload, not just Compare-equal.
      EXPECT_EQ(g[i][c].type(), w[i][c].type()) << i << "," << c;
      EXPECT_TRUE(g[i][c].Equals(w[i][c]))
          << i << "," << c << ": " << g[i][c].ToString() << " vs "
          << w[i][c].ToString();
    }
  }
}

/// Single-node reference: both tables whole in one catalog, same join plan.
Table ReferenceJoin(const std::vector<Row>& left, const std::vector<Row>& right,
                    const JoinQuery& spec) {
  sql::Catalog catalog;
  catalog.Register(spec.left_table, Table(OrdersSchema(), left));
  catalog.Register(spec.right_table, Table(CustomersSchema(), right));
  sql::ExprPtr pred = Expr::EqCols(spec.left_key, spec.right_key);
  if (spec.residual) pred = Expr::And(pred, spec.residual->Clone());
  auto plan = sql::MakeJoin(
      sql::MakeScan(spec.left_table,
                    spec.left_filter ? spec.left_filter->Clone() : nullptr),
      sql::MakeScan(spec.right_table,
                    spec.right_filter ? spec.right_filter->Clone() : nullptr),
      pred);
  sql::Executor exec(&catalog);
  return exec.Execute(plan).ValueOrDie();
}

class DistributedJoinTest : public ::testing::Test {
 protected:
  DistributedJoinTest() : cluster_(4, Protocol::kGtmLite) {
    EXPECT_TRUE(cluster_.CreateTable("orders", OrdersSchema()).ok());
    EXPECT_TRUE(cluster_.CreateTable("customers", CustomersSchema()).ok());
  }

  void InsertOrder(Row row) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("orders", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
    orders_.push_back(std::move(row));
  }

  void InsertCustomer(Row row) {
    Txn t = cluster_.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("customers", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
    customers_.push_back(std::move(row));
  }

  void LoadRandom(int num_orders, int num_customers, uint64_t seed,
                  double null_fraction = 0.05) {
    Rng rng(seed);
    for (int64_t c = 0; c < num_customers; ++c) {
      InsertCustomer({Value(c), Value(rng.Uniform(0, 3))});
    }
    for (int64_t o = 0; o < num_orders; ++o) {
      // Duplicate keys on both sides by construction; some orders point at
      // customers that do not exist, some have NULL keys.
      Value cust = rng.Chance(null_fraction)
                       ? Value::Null()
                       : Value(rng.Uniform(0, num_customers + 5));
      InsertOrder({Value(o), cust, Value(rng.Uniform(1, 1000))});
    }
  }

  JoinQuery Spec() { return JoinQuery{"orders", "customers", "cust", "c_id"}; }

  /// {local xids active summed over every DN, gxids active at the GTM}.
  std::pair<size_t, uint64_t> ActiveTxns() {
    size_t local = 0;
    for (int i = 0; i < cluster_.num_dns(); ++i) {
      local += cluster_.dn(i)->txn_mgr().active_count();
    }
    return {local, cluster_.gtm().active_count()};
  }

  void ExpectMatchesReference(const JoinQuery& spec, JoinStrategy strategy) {
    DistExecOptions opts;
    auto result = ExecuteDistPlan(&cluster_, spec.Plan(strategy), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(result->table, ReferenceJoin(orders_, customers_, spec));
  }

  Cluster cluster_;
  std::vector<Row> orders_;
  std::vector<Row> customers_;
};

TEST_F(DistributedJoinTest, RandomizedBothStrategiesMatchReference) {
  LoadRandom(300, 40, /*seed=*/101);
  ExpectMatchesReference(Spec(), JoinStrategy::kBroadcast);
  ExpectMatchesReference(Spec(), JoinStrategy::kRepartition);
}

TEST_F(DistributedJoinTest, TinyChannelCapSpillsEveryExchangeBitIdentical) {
  // A cap smaller than any encoded batch forces spill on every exchange
  // channel, both strategies. The join must stay bit-identical to the
  // single-node reference AND to the uncapped distributed run row-for-row
  // (deterministic receive order survives the disk round trip), with the
  // overflow accounted in spill_bytes and charged in simulated latency.
  LoadRandom(300, 40, /*seed=*/101);
  for (auto strategy : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    DistExecOptions plain;
    auto uncapped = ExecuteDistPlan(&cluster_, Spec().Plan(strategy), plain);
    ASSERT_TRUE(uncapped.ok());
    EXPECT_EQ(uncapped->stats.spill_bytes, 0u);

    DistExecOptions capped = plain;
    capped.max_channel_bytes = 16;
    auto spilled = ExecuteDistPlan(&cluster_, Spec().Plan(strategy), capped);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_GT(spilled->stats.spill_bytes, 0u);
    // Lifetime traffic accounting is cap-independent.
    EXPECT_EQ(spilled->stats.shuffle_bytes, uncapped->stats.shuffle_bytes);
    EXPECT_EQ(spilled->stats.broadcast_bytes,
              uncapped->stats.broadcast_bytes);
    EXPECT_EQ(spilled->stats.exchange_batches,
              uncapped->stats.exchange_batches);
    // The spilled run is strictly slower in simulated time — disk I/O is
    // charged, not free.
    EXPECT_GT(spilled->stats.sim_latency_us, uncapped->stats.sim_latency_us);

    // Row-for-row identical gather order, then the reference check.
    ASSERT_EQ(spilled->table.num_rows(), uncapped->table.num_rows());
    for (size_t i = 0; i < uncapped->table.num_rows(); ++i) {
      const Row& a = uncapped->table.rows()[i];
      const Row& b = spilled->table.rows()[i];
      ASSERT_EQ(a.size(), b.size());
      for (size_t c = 0; c < a.size(); ++c) {
        EXPECT_TRUE(a[c].Equals(b[c])) << "row " << i << " col " << c;
      }
    }
    ExpectSameRows(spilled->table, ReferenceJoin(orders_, customers_, Spec()));
  }
  EXPECT_GT(cluster_.metrics().Get("exchange.bytes_spilled"), 0);
  EXPECT_EQ(cluster_.metrics().Get("exchange.bytes_denied"), 0);
}

TEST_F(DistributedJoinTest, SeveralSeedsUnderAutoStrategy) {
  // Fresh cluster per seed; kAuto must pick some strategy and stay exact.
  for (uint64_t seed : {7u, 8u, 9u}) {
    Cluster cluster(4, Protocol::kGtmLite);
    ASSERT_TRUE(cluster.CreateTable("orders", OrdersSchema()).ok());
    ASSERT_TRUE(cluster.CreateTable("customers", CustomersSchema()).ok());
    std::vector<Row> orders, customers;
    Rng rng(seed);
    for (int64_t c = 0; c < 25; ++c) {
      Row row = {Value(c), Value(rng.Uniform(0, 2))};
      Txn t = cluster.Begin(TxnScope::kSingleShard);
      ASSERT_TRUE(t.Insert("customers", row[0], row).ok());
      ASSERT_TRUE(t.Commit().ok());
      customers.push_back(row);
    }
    for (int64_t o = 0; o < 120; ++o) {
      Row row = {Value(o), Value(rng.Uniform(0, 30)), Value(rng.Uniform(1, 99))};
      Txn t = cluster.Begin(TxnScope::kSingleShard);
      ASSERT_TRUE(t.Insert("orders", row[0], row).ok());
      ASSERT_TRUE(t.Commit().ok());
      orders.push_back(row);
    }
    JoinQuery spec{"orders", "customers", "cust", "c_id"};
    auto result = ExecuteDistPlan(&cluster, spec.Plan());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(result->table, ReferenceJoin(orders, customers, spec));
  }
}

TEST_F(DistributedJoinTest, FiltersPushedBelowExchangeAndResidualApplied) {
  LoadRandom(200, 30, /*seed=*/55);
  JoinQuery spec = Spec();
  spec.left_filter = Expr::Gt("amount", Value(300));
  spec.right_filter = Expr::Lt("segment", Value(3));
  spec.residual = Expr::Gt("amount", Value(350));
  ExpectMatchesReference(spec, JoinStrategy::kBroadcast);
  ExpectMatchesReference(spec, JoinStrategy::kRepartition);
}

TEST_F(DistributedJoinTest, NullKeysNeverMatch) {
  InsertCustomer({Value(int64_t{1}), Value(int64_t{0})});
  InsertCustomer({Value(int64_t{2}), Value(int64_t{1})});
  InsertOrder({Value(int64_t{10}), Value::Null(), Value(int64_t{5})});
  InsertOrder({Value(int64_t{11}), Value(int64_t{1}), Value(int64_t{6})});
  InsertOrder({Value(int64_t{12}), Value::Null(), Value(int64_t{7})});
  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    DistExecOptions opts;
    auto result = ExecuteDistPlan(&cluster_, Spec().Plan(s), opts);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->table.num_rows(), 1u);
    EXPECT_EQ(result->table.rows()[0][0].AsInt(), 11);
    ExpectSameRows(result->table, ReferenceJoin(orders_, customers_, Spec()));
  }
}

TEST_F(DistributedJoinTest, DuplicateKeysProduceFullCrossProductPerKey) {
  // c_id doubles as the storage key, so right-side duplicates are not
  // representable here (the self-join below covers both-sides duplicates);
  // this pins the left-side multiplicity exactly: 3 orders sharing key 7 x
  // 1 customer -> 3 joined rows.
  InsertCustomer({Value(int64_t{7}), Value(int64_t{0})});
  for (int64_t o = 0; o < 3; ++o) {
    InsertOrder({Value(o), Value(int64_t{7}), Value(o * 10)});
  }
  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    DistExecOptions opts;
    auto result = ExecuteDistPlan(&cluster_, Spec().Plan(s), opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.num_rows(), 3u);
    ExpectSameRows(result->table, ReferenceJoin(orders_, customers_, Spec()));
  }
}

// Self-join on a non-unique column: duplicate join keys on BOTH sides, so
// every key with multiplicity m contributes m^2 joined rows.
TEST_F(DistributedJoinTest, SelfJoinWithDuplicatesOnBothSides) {
  Rng rng(17);
  for (int64_t o = 0; o < 60; ++o) {
    InsertOrder({Value(o), Value(rng.Uniform(0, 9)), Value(rng.Uniform(1, 50))});
  }
  JoinQuery spec{"orders", "orders", "cust", "cust"};
  sql::Catalog catalog;
  catalog.Register("orders", Table(OrdersSchema(), orders_));
  sql::Executor exec(&catalog);
  Table want = exec.Execute(sql::MakeJoin(sql::MakeScan("orders"),
                                          sql::MakeScan("orders"),
                                          Expr::EqCols("cust", "cust")))
                   .ValueOrDie();
  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    DistExecOptions opts;
    auto result = ExecuteDistPlan(&cluster_, spec.Plan(s), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(result->table, want);
  }
}

TEST_F(DistributedJoinTest, EmptyTablesAndEmptyShards) {
  // Both sides empty.
  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    DistExecOptions opts;
    auto result = ExecuteDistPlan(&cluster_, Spec().Plan(s), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->table.num_rows(), 0u);
    EXPECT_EQ(result->table.schema().num_columns(), 5u);
  }
  // All rows on ONE shard: every key hashes to the same DN.
  int64_t k = 0;
  int dn0 = cluster_.ShardFor(Value(k));
  std::vector<int64_t> same_shard;
  for (int64_t i = 0; same_shard.size() < 6; ++i) {
    if (cluster_.ShardFor(Value(i)) == dn0) same_shard.push_back(i);
  }
  for (size_t i = 0; i < same_shard.size(); ++i) {
    if (i < 2) {
      InsertCustomer({Value(same_shard[i]), Value(int64_t{1})});
    } else {
      InsertOrder({Value(same_shard[i]), Value(same_shard[0]),
                   Value(static_cast<int64_t>(i))});
    }
  }
  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    DistExecOptions opts;
    auto result = ExecuteDistPlan(&cluster_, Spec().Plan(s), opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.num_rows(), 4u);
    ExpectSameRows(result->table, ReferenceJoin(orders_, customers_, Spec()));
  }
}

TEST_F(DistributedJoinTest, SerialAndParallelExecutionBitIdentical) {
  LoadRandom(150, 20, /*seed=*/31);
  DistExecOptions par, ser;
  ser.parallel = false;
  cluster_.ResetSimTime();
  auto a = ExecuteDistPlan(&cluster_, Spec().Plan(), par);
  cluster_.ResetSimTime();
  auto b = ExecuteDistPlan(&cluster_, Spec().Plan(), ser);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.strategy, b->stats.strategy);
  EXPECT_EQ(a->stats.shuffle_bytes, b->stats.shuffle_bytes);
  EXPECT_EQ(a->stats.broadcast_bytes, b->stats.broadcast_bytes);
  EXPECT_EQ(a->stats.sim_latency_us, b->stats.sim_latency_us);
  // NOT canonicalized: the gather order itself must be deterministic.
  ASSERT_EQ(a->table.num_rows(), b->table.num_rows());
  for (size_t i = 0; i < a->table.num_rows(); ++i) {
    for (size_t c = 0; c < a->table.schema().num_columns(); ++c) {
      EXPECT_TRUE(a->table.rows()[i][c].Equals(b->table.rows()[i][c]));
    }
  }
}

TEST_F(DistributedJoinTest, AutoPrefersBroadcastForSmallBuildSide) {
  LoadRandom(400, 8, /*seed=*/77, /*null_fraction=*/0.0);
  auto result = ExecuteDistPlan(&cluster_, Spec().Plan());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.strategy, JoinStrategy::kBroadcast);
  EXPECT_FALSE(result->stats.build_left);  // customers (right) is tiny
  EXPECT_GT(result->stats.broadcast_bytes, 0u);
  EXPECT_EQ(result->stats.shuffle_bytes, 0u);
}

TEST_F(DistributedJoinTest, AutoPrefersRepartitionWhenBothSidesLarge) {
  Rng rng(13);
  for (int64_t c = 0; c < 300; ++c) {
    InsertCustomer({Value(c), Value(rng.Uniform(0, 3))});
  }
  for (int64_t o = 0; o < 300; ++o) {
    InsertOrder({Value(o), Value(rng.Uniform(0, 299)), Value(o)});
  }
  auto result = ExecuteDistPlan(&cluster_, Spec().Plan());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.strategy, JoinStrategy::kRepartition);
  EXPECT_GT(result->stats.shuffle_bytes, 0u);
  EXPECT_EQ(result->stats.broadcast_bytes, 0u);
  // Repartition must also ship fewer bytes than forcing broadcast here.
  DistExecOptions bc;
  auto forced = ExecuteDistPlan(
      &cluster_, Spec().Plan(JoinStrategy::kBroadcast), bc);
  ASSERT_TRUE(forced.ok());
  EXPECT_LT(result->stats.shuffle_bytes, forced->stats.broadcast_bytes);
  ExpectSameRows(result->table, forced->table);
}

TEST_F(DistributedJoinTest, OptimizerStatsDriveTheStrategyDecision) {
  LoadRandom(200, 10, /*seed=*/3, /*null_fraction=*/0.0);
  // Stats claiming both sides are huge make lowering stamp repartition
  // even though the actual small build side would have favored broadcast.
  optimizer::TableStats big;
  big.num_rows = 1000000;
  optimizer::ColumnStats wide;
  wide.avg_width = 64;
  big.columns["x"] = wide;
  optimizer::StatsRegistry registry;
  registry.Put("orders", big);
  registry.Put("customers", big);
  const sql::PlanPtr logical =
      sql::MakeJoin(sql::MakeScan("orders"), sql::MakeScan("customers"),
                    Expr::EqCols("cust", "c_id"));
  const DistLowering lowered = LowerSelectPlan(logical, &cluster_, &registry);
  ASSERT_TRUE(lowered.ok()) << lowered.fallback_reason;
  const DistOp& join = *lowered.root->children[0];  // under the Gather
  ASSERT_EQ(join.kind, DistOpKind::kDistHashJoin);
  EXPECT_EQ(join.strategy, JoinStrategy::kRepartition);
  auto result = ExecuteDistPlan(&cluster_, lowered.root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.strategy, JoinStrategy::kRepartition);
  // And without stats lowering leaves kAuto, which the scanned sizes
  // resolve to broadcast.
  const DistLowering blind = LowerSelectPlan(logical, &cluster_, nullptr);
  ASSERT_TRUE(blind.ok()) << blind.fallback_reason;
  EXPECT_EQ(blind.root->children[0]->strategy, JoinStrategy::kAuto);
  auto untouched = ExecuteDistPlan(&cluster_, blind.root);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(untouched->stats.strategy, JoinStrategy::kBroadcast);
  ExpectSameRows(result->table, untouched->table);
}

TEST_F(DistributedJoinTest, ChannelAccountingAndMetricsAreConsistent) {
  LoadRandom(250, 25, /*seed=*/9);
  cluster_.metrics().Reset();
  DistExecOptions opts;
  auto result = ExecuteDistPlan(
      &cluster_, Spec().Plan(JoinStrategy::kRepartition), opts);
  ASSERT_TRUE(result.ok());
  // Channel stats (cross-DN part) must sum to shuffle_bytes.
  size_t cross = 0, loop = 0;
  for (const auto& ch : result->stats.channels) {
    (ch.src == ch.dst ? loop : cross) += ch.bytes;
  }
  EXPECT_EQ(cross, result->stats.shuffle_bytes);
  EXPECT_GT(loop, 0u);  // loopback traffic exists but is not "moved"
  EXPECT_EQ(cluster_.metrics().Get("exchange.bytes"),
            static_cast<int64_t>(result->stats.shuffle_bytes));
  EXPECT_EQ(cluster_.metrics().Get("exchange.batches"),
            static_cast<int64_t>(result->stats.exchange_batches));
  EXPECT_EQ(cluster_.metrics().Get("join.repartition"), 1);
  // Per-pair counters sum back to the total.
  int64_t pair_sum = 0;
  for (const auto& [name, v] : cluster_.metrics().counters()) {
    if (name.rfind("exchange.bytes.d", 0) == 0) pair_sum += v;
  }
  EXPECT_EQ(pair_sum, static_cast<int64_t>(result->stats.shuffle_bytes));
}

TEST_F(DistributedJoinTest, LatencyModelsAndByteBaselinesBehave) {
  LoadRandom(300, 30, /*seed=*/21);
  cluster_.ResetSimTime();
  auto result = ExecuteDistPlan(&cluster_, Spec().Plan());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.sim_latency_us, 0);
  // Either strategy moves less than shipping both relations to one node.
  EXPECT_LT(result->stats.shuffle_bytes + result->stats.broadcast_bytes,
            result->stats.naive_bytes);
  EXPECT_GT(result->stats.result_bytes, 0u);
}

TEST_F(DistributedJoinTest, FailoverServesEveryRowExactlyOnce) {
  Cluster cluster(4, Protocol::kGtmLite);
  ASSERT_TRUE(cluster.EnableReplication().ok());
  ASSERT_TRUE(cluster.CreateTable("orders", OrdersSchema()).ok());
  ASSERT_TRUE(cluster.CreateTable("customers", CustomersSchema()).ok());
  std::vector<Row> orders, customers;
  Rng rng(5);
  for (int64_t c = 0; c < 20; ++c) {
    Row row = {Value(c), Value(rng.Uniform(0, 2))};
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("customers", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
    customers.push_back(row);
  }
  for (int64_t o = 0; o < 100; ++o) {
    Row row = {Value(o), Value(rng.Uniform(0, 21)), Value(o)};
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("orders", row[0], row).ok());
    ASSERT_TRUE(t.Commit().ok());
    orders.push_back(row);
  }
  ASSERT_TRUE(cluster.FailDn(2).ok());
  JoinQuery spec{"orders", "customers", "cust", "c_id"};
  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    DistExecOptions opts;
    auto result = ExecuteDistPlan(&cluster, spec.Plan(s), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(result->table, ReferenceJoin(orders, customers, spec));
  }
}

TEST_F(DistributedJoinTest, UnknownTableOrKeyFails) {
  LoadRandom(40, 8, /*seed=*/3);
  const auto active = ActiveTxns();
  JoinQuery spec = Spec();
  spec.left_table = "nope";
  EXPECT_FALSE(ExecuteDistPlan(&cluster_, spec.Plan()).ok());
  spec = Spec();
  spec.right_key = "no_such_col";
  EXPECT_FALSE(ExecuteDistPlan(&cluster_, spec.Plan()).ok());
  // These fail after the reader snapshot began: on every DN's join, and on
  // the scan of a table no DN holds. Each aborts its snapshot.
  spec = Spec();
  spec.residual = Expr::Gt("no_such_col", Value(int64_t{1}));
  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    EXPECT_FALSE(ExecuteDistPlan(&cluster_, spec.Plan(s)).ok());
  }
  const DistOpPtr no_table =
      MakeGather(MakeDistScan("nope", nullptr));
  EXPECT_FALSE(ExecuteDistPlan(&cluster_, no_table).ok());
  EXPECT_EQ(ActiveTxns(), active);
  ASSERT_TRUE(ExecuteDistPlan(&cluster_, Spec().Plan()).ok());
  EXPECT_EQ(ActiveTxns(), active);
}

// A residual holding a second cross-side equality: the shared conjunct
// split makes it a second hash key on every DN, as in the oracle.
TEST_F(DistributedJoinTest, ResidualCrossSideEqualityMatchesReference) {
  for (int64_t c = 0; c < 20; ++c) InsertCustomer({Value(c), Value(c % 4)});
  for (int64_t o = 0; o < 200; ++o) {
    InsertOrder({Value(o), Value(o % 23), Value(o % 5)});
  }
  JoinQuery spec = Spec();
  spec.residual = Expr::EqCols("segment", "amount");
  const Table want = ReferenceJoin(orders_, customers_, spec);
  ASSERT_GT(want.num_rows(), 0u);
  ASSERT_LT(want.num_rows(),
            ReferenceJoin(orders_, customers_, Spec()).num_rows());
  for (const Row& r : want.rows()) ASSERT_TRUE(r[2].Equals(r[4]));
  ExpectMatchesReference(spec, JoinStrategy::kBroadcast);
  ExpectMatchesReference(spec, JoinStrategy::kRepartition);
}

// Each DN builds on its smaller side and probes with the other side's rows
// in order, and the CN appends the DNs in order, so an unfused join's
// gathered order is fixed by the data alone. A self-join with duplicate
// keys on both sides pins it, as (left o_id, right o_id) pairs, under each
// strategy. Its sides tie, so every DN builds on the left and probes with
// its right rows: each right row's matches come out together.
TEST_F(DistributedJoinTest, UnfusedJoinKeepsItsGatheredOrder) {
  for (int64_t o = 0; o < 8; ++o) {
    InsertOrder({Value(o), Value(o % 3), Value(o * 10)});
  }
  const JoinQuery spec{"orders", "orders", "cust", "cust"};
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;
  const std::map<JoinStrategy, Pairs> want = {
      {JoinStrategy::kBroadcast,
       {{7, 4}, {1, 4}, {4, 4}, {3, 0}, {6, 0}, {0, 0}, {2, 5}, {5, 5},
        {7, 1}, {1, 1}, {4, 1}, {3, 6}, {6, 6}, {0, 6}, {2, 2}, {5, 2},
        {7, 7}, {1, 7}, {4, 7}, {3, 3}, {6, 3}, {0, 3}}},
      {JoinStrategy::kRepartition,
       {{7, 4}, {1, 4}, {4, 4}, {7, 1}, {1, 1}, {4, 1}, {7, 7}, {1, 7},
        {4, 7}, {3, 0}, {6, 0}, {0, 0}, {3, 6}, {6, 6}, {0, 6}, {3, 3},
        {6, 3}, {0, 3}, {2, 5}, {5, 5}, {2, 2}, {5, 2}}}};
  for (const auto& [strategy, pairs] : want) {
    auto result = ExecuteDistPlan(&cluster_, spec.Plan(strategy));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.strategy, strategy);
    EXPECT_TRUE(result->stats.build_left);
    Pairs got;
    for (const Row& r : result->table.rows()) {
      got.emplace_back(r[0].AsInt(), r[3].AsInt());
    }
    EXPECT_EQ(got, pairs);
  }
}

// A fused grouped aggregate over a join folds each match into the DN's
// Aggregator, which types SUM/MIN from the first match it sees. Here the
// oracle's first match has a NULL amount, and so does every match on DN 0
// under both strategies (its local orders under broadcast, the customers
// hashed to it under repartition), so both sides type SUM and MIN kNull;
// the other DNs contribute real sums.
TEST_F(DistributedJoinTest, FusedGroupedSumOverJoinTypesLikeTheOracle) {
  for (int64_t c = 0; c < 8; ++c) InsertCustomer({Value(c), Value(c % 3)});
  for (int64_t o = 0; o < 120; ++o) {
    const int64_t cust = o % 10;
    const bool on_dn0 =
        cluster_.ShardFor(Value(o)) == 0 ||
        exchange::HashForPartition(Value(cust)) % 4 == 0;
    InsertOrder({Value(o), Value(cust),
                 o == 0 || on_dn0 ? Value::Null() : Value(o)});
  }
  const std::vector<std::string> group_by = {"segment"};
  const std::vector<DistributedAgg> aggs = {{AggFunc::kCount, "", "n"},
                                            {AggFunc::kCount, "amount", "na"},
                                            {AggFunc::kSum, "amount", "s"},
                                            {AggFunc::kMin, "amount", "lo"}};
  std::vector<sql::AggSpec> specs;
  for (const auto& a : aggs) {
    specs.push_back(sql::AggSpec{
        a.func, a.column.empty() ? nullptr : Expr::ColumnRef(a.column), a.name});
  }
  sql::Catalog catalog;
  catalog.Register("orders", Table(OrdersSchema(), orders_));
  catalog.Register("customers", Table(CustomersSchema(), customers_));
  sql::Executor exec(&catalog);
  const Table want =
      exec.Execute(sql::MakeAggregate(
                       sql::MakeJoin(sql::MakeScan("orders"),
                                     sql::MakeScan("customers"),
                                     Expr::EqCols("cust", "c_id")),
                       group_by, std::move(specs)))
          .ValueOrDie();
  ASSERT_EQ(want.num_rows(), 3u);
  ASSERT_EQ(want.schema().column(3).type, TypeId::kNull);
  ASSERT_EQ(want.schema().column(4).type, TypeId::kNull);
  size_t real_sums = 0;
  for (const Row& r : want.rows()) real_sums += r[3].is_null() ? 0 : 1;
  ASSERT_GT(real_sums, 0u);

  for (auto s : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    SCOPED_TRACE(static_cast<int>(s));
    const DistOpPtr join = Spec().Plan(s)->children[0];  // under the Gather
    const DistOpPtr plan = MakeDistFinalAgg(
        MakeGather(MakeDistPartialAgg(join, group_by, aggs)),
        group_by, aggs);
    auto got = ExecuteDistPlan(&cluster_, plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->stats.strategy, s);
    ASSERT_EQ(got->table.schema().num_columns(), want.schema().num_columns());
    for (size_t c = 0; c < want.schema().num_columns(); ++c) {
      EXPECT_EQ(got->table.schema().column(c).name,
                want.schema().column(c).name);
      EXPECT_EQ(got->table.schema().column(c).type,
                want.schema().column(c).type)
          << want.schema().column(c).name;
    }
    ExpectSameRows(got->table, want);
  }
}

}  // namespace
}  // namespace ofi::cluster
