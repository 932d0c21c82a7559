/// Per-channel byte limits on the exchange. The cap bounds the in-memory
/// window: an over-cap Send transparently spills to a temp file (spill path
/// covered in exchange_spill_test.cc); this suite pins the *limit*
/// semantics — an over-cap send with no spill config or an exhausted spill
/// budget is denied with ResourceExhausted, denial is accounted in
/// denied_bytes / the exchange.bytes_denied metric, and a capped
/// distributed join either completes via spill or fails loudly on its
/// spill budget instead of silently dropping rows.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist_plans.h"

namespace ofi::cluster {
namespace {

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

Row MakeRow(int64_t k, const std::string& pad) {
  return Row{Value(k), Value(pad)};
}

TEST(ExchangeLimitTest, ExhaustedSpillBudgetDeniesOverLimitSend) {
  // A 1-byte spill budget admits no batch, so overflow cannot spill.
  exchange::SpillBudget budget(1);
  exchange::ExchangeSpillConfig cfg{"", &budget};
  exchange::ExchangeChannel ch;
  exchange::ExchangeChannel::SendLimits limits{64, &cfg};
  std::string small(10, 'x');
  std::string mid(60, 'y');
  ASSERT_TRUE(ch.Send(small, limits).ok());
  EXPECT_EQ(ch.queued_bytes(), 10u);

  Status denied = ch.Send(mid, limits);  // 10 + 60 > 64
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  // The denied batch was not queued and the lifetime totals exclude it.
  EXPECT_EQ(ch.queued_bytes(), 10u);
  EXPECT_EQ(ch.bytes(), 10u);
  EXPECT_EQ(ch.batches(), 1u);
  EXPECT_EQ(ch.denied_bytes(), 60u);
  EXPECT_EQ(ch.spilled_bytes(), 0u);

  // Draining frees the budget: the same batch fits afterwards.
  auto drained = ch.Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 1u);
  EXPECT_EQ(ch.queued_bytes(), 0u);
  ASSERT_TRUE(ch.Send(std::move(mid), limits).ok());
  EXPECT_EQ(ch.queued_bytes(), 60u);
}

TEST(ExchangeLimitTest, CapWithNoSpillConfigDenies) {
  // A raw SendLimits cap with spill == nullptr has nowhere to overflow to:
  // the channel must deny, not crash or silently drop.
  exchange::ExchangeChannel ch;
  exchange::ExchangeChannel::SendLimits limits{16, nullptr};
  ASSERT_TRUE(ch.Send(std::string(10, 'a'), limits).ok());
  Status st = ch.Send(std::string(10, 'b'), limits);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ch.denied_bytes(), 10u);
}

TEST(ExchangeLimitTest, ZeroLimitMeansUnbounded) {
  exchange::ExchangeChannel ch;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ch.Send(std::string(1000, 'z')).ok());
  }
  EXPECT_EQ(ch.denied_bytes(), 0u);
  EXPECT_EQ(ch.spilled_bytes(), 0u);
  EXPECT_EQ(ch.queued_bytes(), 100000u);
}

TEST(ExchangeLimitTest, ExhaustedSpillBudgetScatterHonorsTheCap) {
  // A cap smaller than one encoded batch and a spill budget smaller than
  // one batch: every scatter with data fails, DeniedBytes aggregates
  // across channels, and the failed scatter's rollback leaves no queued
  // payload behind.
  exchange::SpillBudget budget(1);
  exchange::ExchangeSpillConfig cfg{"", &budget};
  exchange::ExchangeNetwork net(2, /*batch_rows=*/8, /*max_channel_bytes=*/4,
                                cfg);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20; ++i) rows.push_back(MakeRow(i, "padpadpad"));

  Status st = exchange::ScatterRows(&net, 0, rows, std::nullopt);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(net.DeniedBytes(), 0u);
  EXPECT_EQ(net.channel(0, 1).queued_bytes(), 0u);
  // Nothing to send, nothing denied.
  EXPECT_TRUE(exchange::ScatterRows(&net, 0, {}, std::nullopt).ok());

  exchange::ExchangeNetwork roomy(2, /*batch_rows=*/8);
  ASSERT_TRUE(
      exchange::ScatterRows(&roomy, 0, rows, std::nullopt).ok());
  EXPECT_EQ(roomy.DeniedBytes(), 0u);
}

TEST(ExchangeLimitTest, CappedJoinSpillsByDefaultAndDeniesOverSpillBudget) {
  Cluster cluster(4, Protocol::kGtmLite);
  Schema orders({Column{"o_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  Schema lookup({Column{"l_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  ASSERT_TRUE(cluster.CreateTable("orders", orders).ok());
  ASSERT_TRUE(cluster.CreateTable("lookup", lookup).ok());
  std::string pad(64, 'p');
  for (int64_t i = 0; i < 64; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("orders", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  for (int64_t i = 0; i < 8; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("lookup", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  JoinQuery spec{"orders", "lookup", "o_id", "l_id"};

  for (bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    const int64_t spilled0 = cluster.metrics().Get("exchange.bytes_spilled");
    const int64_t denied0 = cluster.metrics().Get("exchange.bytes_denied");
    // Unbounded run first: the join works, nothing spilled or denied.
    DistExecOptions opts;
    opts.pipeline = pipeline;
    auto ok = ExecuteDistPlan(
        &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok->table.num_rows(), 8u);
    EXPECT_EQ(ok->stats.spill_bytes, 0u);
    EXPECT_EQ(cluster.metrics().Get("exchange.bytes_spilled"), spilled0);
    EXPECT_EQ(cluster.metrics().Get("exchange.bytes_denied"), denied0);

    // A cap below one encoded batch: the retired failure mode. The shuffle
    // now spills on every channel and the join completes with the same
    // rows, only slower in simulated time. The stats report exactly what
    // the channels spilled.
    opts.max_channel_bytes = 16;
    auto capped = ExecuteDistPlan(
        &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
    ASSERT_TRUE(capped.ok());
    EXPECT_EQ(capped->table.num_rows(), 8u);
    EXPECT_GT(capped->stats.spill_bytes, 0u);
    const auto [bytes, segments] = ChannelSpill(capped->stats);
    EXPECT_EQ(capped->stats.spill_bytes, bytes);
    EXPECT_EQ(capped->stats.spill_segments, segments);
    EXPECT_GT(cluster.metrics().Get("exchange.bytes_spilled"), spilled0);
    EXPECT_GT(capped->stats.sim_latency_us, ok->stats.sim_latency_us);

    // A spill budget below one batch makes the cap a hard limit: the query
    // fails loudly instead of silently dropping rows, counted in
    // exchange.bytes_denied.
    opts.max_spill_bytes = 1;
    auto denied = ExecuteDistPlan(
        &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GT(cluster.metrics().Get("exchange.bytes_denied"), denied0);

    // Roomy cap: behaves exactly like unbounded, whatever the spill budget.
    opts.max_channel_bytes = 1 << 20;
    auto roomy = ExecuteDistPlan(
        &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
    ASSERT_TRUE(roomy.ok());
    EXPECT_EQ(roomy->table.num_rows(), 8u);
    EXPECT_EQ(roomy->stats.spill_bytes, 0u);
    EXPECT_EQ(ChannelSpill(roomy->stats).first, 0u);
  }
}

}  // namespace
}  // namespace ofi::cluster
