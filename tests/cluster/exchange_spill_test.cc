/// Spill-to-disk backpressure on the exchange: over-cap sends stream
/// through per-channel temp files without changing results, receive order,
/// or (lifetime) byte accounting; spill files live exactly as long as their
/// undelivered segments; a failed query leaks no file, no accounting and
/// no active transaction; and a truncated or corrupt segment surfaces as an
/// error, never as wrong rows. A capped join reports the spill its channels really did, the same
/// on every run under either schedule. The failing-query leak test runs
/// under asan in CI (scripts/check.sh focus list), which also catches
/// leaked FILE* streams.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "dist_plans.h"

namespace ofi::cluster {
namespace {

namespace fs = std::filesystem;

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

Row MakeRow(int64_t k, const std::string& pad) {
  return Row{Value(k), Value(pad)};
}

/// Receives everything bound for `dst` after closing every channel — the
/// barrier schedule's consumer (it never waits).
Result<std::vector<Row>> ReceiveAfterClose(exchange::ExchangeNetwork* net,
                                           int dst) {
  for (int src = 0; src < net->num_nodes(); ++src) net->CloseAllFrom(src);
  return net->ReceiveRows(dst);
}

/// A fresh per-test spill directory, removed (with contents check hooks)
/// on teardown.
class ExchangeSpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ofi-spill-test-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  size_t FilesInDir() const {
    size_t n = 0;
    for (auto it = fs::directory_iterator(dir_); it != fs::directory_iterator();
         ++it) {
      ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(ExchangeSpillTest, ChannelSpillPreservesSendOrder) {
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  exchange::ExchangeChannel::SendLimits limits{32, &cfg};
  exchange::ExchangeChannel ch;

  // 20-byte batches against a 32-byte window: the first fits in memory,
  // everything after spills (and keeps spilling — disk must never reorder
  // ahead of memory).
  std::vector<std::string> sent;
  for (int i = 0; i < 8; ++i) {
    sent.push_back(std::string(20, static_cast<char>('a' + i)));
    ASSERT_TRUE(ch.Send(sent.back(), limits).ok()) << i;
  }
  EXPECT_EQ(ch.bytes(), 160u);
  EXPECT_EQ(ch.batches(), 8u);
  EXPECT_EQ(ch.queued_bytes(), 20u);       // only the first batch is resident
  EXPECT_EQ(ch.spilled_bytes(), 140u);     // the other seven hit disk
  EXPECT_EQ(ch.spill_segments(), 7u);
  EXPECT_EQ(budget.used.load(), 140u);
  EXPECT_FALSE(ch.spill_path().empty());
  EXPECT_TRUE(fs::exists(ch.spill_path()));
  EXPECT_EQ(FilesInDir(), 1u);

  // Receive order is exactly send order, memory window first.
  for (int i = 0; i < 8; ++i) {
    auto batch = ch.PopBatch();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(batch->has_value());
    EXPECT_EQ(**batch, sent[static_cast<size_t>(i)]) << i;
  }
  auto end = ch.PopBatch();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());

  // Consuming the last segment freed the budget and deleted the file.
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_EQ(FilesInDir(), 0u);
  EXPECT_TRUE(ch.spill_path().empty());

  // The channel is reusable after a full drain: memory path again.
  ASSERT_TRUE(ch.Send(std::string(10, 'z'), limits).ok());
  EXPECT_EQ(ch.queued_bytes(), 10u);
}

TEST_F(ExchangeSpillTest, DiscardDeletesSpillAndRollsBackAccounting) {
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  exchange::ExchangeChannel::SendLimits limits{16, &cfg};
  {
    exchange::ExchangeChannel ch;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ch.Send(std::string(10, 'q'), limits).ok());
    }
    EXPECT_EQ(ch.spilled_bytes(), 30u);
    EXPECT_EQ(FilesInDir(), 1u);

    ch.Discard();
    // Undelivered payload moved wholesale to aborted accounting.
    EXPECT_EQ(ch.bytes(), 0u);
    EXPECT_EQ(ch.batches(), 0u);
    EXPECT_EQ(ch.spilled_bytes(), 0u);
    EXPECT_EQ(ch.aborted_bytes(), 40u);
    EXPECT_EQ(budget.used.load(), 0u);
    EXPECT_EQ(FilesInDir(), 0u);

    // Destructor path: leave a spilled batch behind on scope exit.
    ASSERT_TRUE(ch.Send(std::string(20, 'r'), limits).ok());
    ASSERT_TRUE(ch.Send(std::string(20, 's'), limits).ok());
    EXPECT_EQ(FilesInDir(), 1u);
  }
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(ExchangeSpillTest, SpillBudgetExhaustionDenies) {
  exchange::SpillBudget budget(/*max=*/50);
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  exchange::ExchangeChannel::SendLimits limits{16, &cfg};
  exchange::ExchangeChannel ch;

  ASSERT_TRUE(ch.Send(std::string(10, 'a'), limits).ok());  // memory
  ASSERT_TRUE(ch.Send(std::string(30, 'b'), limits).ok());  // spill, 30/50
  Status st = ch.Send(std::string(30, 'c'), limits);        // would be 60/50
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ch.denied_bytes(), 30u);
  EXPECT_EQ(ch.spilled_bytes(), 30u);
  ASSERT_TRUE(ch.Send(std::string(20, 'd'), limits).ok());  // fits, 50/50

  // Draining releases the budget as segments are consumed.
  auto drained = ch.Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 3u);
  EXPECT_EQ(budget.used.load(), 0u);
  ASSERT_TRUE(ch.Send(std::string(30, 'e'), limits).ok());
}

TEST_F(ExchangeSpillTest, NetworkSpillDeliversBitIdenticalRowsInOrder) {
  ofi::Rng rng(77);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back(MakeRow(static_cast<int64_t>(rng.Next() % 1000),
                           std::string(1 + i % 40, 'x')));
  }

  exchange::ExchangeNetwork uncapped(3, /*batch_rows=*/16);
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  exchange::ExchangeNetwork capped(3, /*batch_rows=*/16,
                                   /*max_channel_bytes=*/64, cfg);

  // Barrier schedule: every send happens before any receive, so the
  // window only fills, and each node is ready exactly its spill I/O later
  // than in the uncapped run.
  const exchange::ExchangeLatencyParams p;
  const std::vector<std::vector<Row>> per_node(3, rows);
  auto run = [&](exchange::ExchangeNetwork* net) {
    SimScheduler sched;
    std::vector<int> res;
    std::vector<std::vector<exchange::ScatterInput>> inputs(3);
    for (size_t i = 0; i < 3; ++i) {
      res.push_back(sched.AddResource());
      inputs[i].push_back(exchange::ScatterInput{0, &per_node[i], 0});
    }
    return exchange::RunExchange({net}, inputs, &sched, res, {0, 0, 0}, p,
                                 exchange::ExchangeSchedule::kBarrier);
  };
  exchange::ExchangeRun in_memory = run(&uncapped);
  exchange::ExchangeRun spilled = run(&capped);
  EXPECT_GT(capped.SpilledBytes(), 0u);
  EXPECT_EQ(capped.DeniedBytes(), 0u);
  EXPECT_EQ(uncapped.SpilledBytes(), 0u);
  // Identical lifetime traffic accounting, spilled or not.
  EXPECT_EQ(capped.CrossNodeBytes(), uncapped.CrossNodeBytes());
  EXPECT_EQ(capped.CrossNodeBatches(), uncapped.CrossNodeBatches());
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(spilled.ready[j], in_memory.ready[j] +
                                    exchange::SpillServiceTime(
                                        capped.SpilledInBytes(j), p))
        << "node " << j;
  }

  size_t total = 0;
  for (size_t dst = 0; dst < 3; ++dst) {
    ASSERT_TRUE(spilled.consumer_status[dst].ok())
        << spilled.consumer_status[dst].ToString();
    const std::vector<Row>& want = in_memory.rows[0][dst];
    const std::vector<Row>& got = spilled.rows[0][dst];
    // Bit-identical rows in the identical (deterministic) order.
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size());
      for (size_t c = 0; c < want[i].size(); ++c) {
        EXPECT_TRUE(got[i][c].Equals(want[i][c]));
      }
    }
    total += got.size();
  }
  EXPECT_EQ(total, 3 * rows.size());
  // Every consumed segment freed its budget and deleted its file.
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(ExchangeSpillTest, FailedShuffleRollsBackPartialSends) {
  // A cap that admits some batches in memory and a 1-byte spill budget that
  // then denies the first overflow: the failed operator must leave zero
  // queued payload, zero cross-node accounting, and no spill files — the
  // old partial-send bug.
  exchange::SpillBudget budget(1);
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  exchange::ExchangeNetwork net(2, /*batch_rows=*/4,
                                /*max_channel_bytes=*/200, cfg);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) rows.push_back(MakeRow(i, "padpadpad"));

  Status st = exchange::ScatterRows(&net, 0, rows, 0);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(net.DeniedBytes(), 0u);
  // Rollback: nothing stays queued or counted, the payload is quarantined
  // in the aborted counter instead of inflating traffic stats.
  EXPECT_EQ(net.CrossNodeBytes(), 0u);
  EXPECT_EQ(net.CrossNodeBatches(), 0u);
  EXPECT_GT(net.AbortedBytes(), 0u);
  for (int dst = 0; dst < 2; ++dst) {
    EXPECT_EQ(net.channel(0, dst).queued_bytes(), 0u);
    auto empty = net.channel(0, dst).Drain();
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->empty());
  }
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(ExchangeSpillTest, TruncatedSpillSegmentIsCorruption) {
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  exchange::ExchangeChannel::SendLimits limits{8, &cfg};
  exchange::ExchangeChannel ch;
  ASSERT_TRUE(ch.Send(std::string(8, 'm'), limits).ok());   // memory
  ASSERT_TRUE(ch.Send(std::string(64, 's'), limits).ok());  // spill
  ASSERT_FALSE(ch.spill_path().empty());

  // Truncate the segment behind the channel's back (torn write / bad disk).
  fs::resize_file(ch.spill_path(), 10);

  auto mem = ch.PopBatch();
  ASSERT_TRUE(mem.ok());  // the resident batch is unaffected
  auto spilled = ch.PopBatch();
  ASSERT_FALSE(spilled.ok());
  EXPECT_EQ(spilled.status().code(), StatusCode::kCorruption);
}

TEST_F(ExchangeSpillTest, CorruptSpilledBatchFailsDecodeNotSilently) {
  // Same-size garbage passes the segment read but must then fail
  // DecodeBatch with InvalidArgument on the receive path — corrupt spill
  // can never turn into wrong rows.
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  exchange::ExchangeNetwork net(2, /*batch_rows=*/4, /*max_channel_bytes=*/8,
                                cfg);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 16; ++i) rows.push_back(MakeRow(i, "padpad"));
  ASSERT_TRUE(exchange::ScatterRows(&net, 0, rows, std::nullopt).ok());
  std::string path = net.channel(0, 1).spill_path();
  ASSERT_FALSE(path.empty());
  {
    std::ofstream f(path, std::ios::binary | std::ios::in);
    f.seekp(0);
    f.write("\xff\xff\xff\xff\xff\xff\xff\xff", 8);
  }
  auto got = ReceiveAfterClose(&net, 1);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExchangeSpillTest, FailingQueryLeaksNoSpillFiles) {
  // End-to-end lifecycle check (asan also verifies no FILE* leaks): a
  // distributed join that spills and then fails on an exhausted spill
  // budget must leave the spill directory empty.
  Cluster cluster(4, Protocol::kGtmLite);
  Schema orders({Column{"o_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  Schema lookup({Column{"l_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  ASSERT_TRUE(cluster.CreateTable("orders", orders).ok());
  ASSERT_TRUE(cluster.CreateTable("lookup", lookup).ok());
  std::string pad(128, 'p');
  for (int64_t i = 0; i < 96; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("orders", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  for (int64_t i = 0; i < 16; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("lookup", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  JoinQuery spec{"orders", "lookup", "o_id", "l_id"};
  // {local xids active summed over every DN, gxids active at the GTM}: a
  // failed query aborts its reader snapshot, so both return to these.
  auto active_txns = [&cluster] {
    size_t local = 0;
    for (int i = 0; i < cluster.num_dns(); ++i) {
      local += cluster.dn(i)->txn_mgr().active_count();
    }
    return std::make_pair(local, cluster.gtm().active_count());
  };
  const auto active = active_txns();

  DistExecOptions opts;
  opts.parallel = false;  // deterministic send order across DNs
  opts.max_channel_bytes = 64;
  opts.spill_dir = dir_.string();
  // A budget bigger than any one batch (~1.2KB at 8 rows/batch) but
  // smaller than the first DN's orders partition (~3.5KB): the first
  // shuffle is guaranteed to spill at least one batch and then run out
  // mid-operator — exercising rollback (aborted accounting) as well as
  // denial, with live spill files for the failure path to clean up.
  opts.batch_rows = 8;
  opts.max_spill_bytes = 2048;
  auto fail = ExecuteDistPlan(
      &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(cluster.metrics().Get("exchange.bytes_denied"), 0);
  EXPECT_GT(cluster.metrics().Get("exchange.bytes_aborted"), 0);
  EXPECT_EQ(FilesInDir(), 0u);  // every spill segment was cleaned up
  EXPECT_EQ(active_txns(), active);

  // Pipelined, with a channel cap below one batch and a 1-byte budget: the
  // first spill is denied, and the consumers reading the failed producer's
  // channels fail fast on its error close.
  const int64_t denied0 = cluster.metrics().Get("exchange.bytes_denied");
  DistExecOptions piped = opts;
  piped.pipeline = true;
  piped.max_spill_bytes = 1;
  auto piped_fail = ExecuteDistPlan(
      &cluster, spec.Plan(JoinStrategy::kRepartition), piped);
  ASSERT_FALSE(piped_fail.ok());
  EXPECT_EQ(piped_fail.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(cluster.metrics().Get("exchange.bytes_denied"), denied0);
  EXPECT_EQ(FilesInDir(), 0u);
  EXPECT_EQ(active_txns(), active);

  // Same query with a sufficient budget completes — and still cleans up.
  opts.max_spill_bytes = 0;
  auto ok = ExecuteDistPlan(
      &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->table.num_rows(), 16u);
  EXPECT_GT(ok->stats.spill_bytes, 0u);
  EXPECT_EQ(ChannelSpill(ok->stats),
            std::make_pair(ok->stats.spill_bytes, ok->stats.spill_segments));
  EXPECT_EQ(FilesInDir(), 0u);
  EXPECT_EQ(active_txns(), active);
}

TEST_F(ExchangeSpillTest, BuildSideSpillKeepsJoinBitIdentical) {
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
  for (int64_t i = 0; i < 32; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("lookup", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  JoinQuery spec{"orders", "lookup", "o_id", "l_id"};

  DistExecOptions opts;
  auto plain = ExecuteDistPlan(
      &cluster, spec.Plan(JoinStrategy::kBroadcast), opts);
  ASSERT_TRUE(plain.ok());

  opts.max_build_bytes = 256;  // well under the broadcast side's size
  opts.spill_dir = dir_.string();
  auto spooled = ExecuteDistPlan(
      &cluster, spec.Plan(JoinStrategy::kBroadcast), opts);
  ASSERT_TRUE(spooled.ok()) << spooled.status().ToString();
  EXPECT_GT(spooled->stats.build_spill_bytes, 0u);
  EXPECT_GT(spooled->stats.sim_latency_us, plain->stats.sim_latency_us);
  EXPECT_GT(cluster.metrics().Get("exchange.bytes_spilled"), 0);
  EXPECT_EQ(FilesInDir(), 0u);

  // Bit-identical result rows (both gathers are deterministic DN-order).
  ASSERT_EQ(spooled->table.num_rows(), plain->table.num_rows());
  for (size_t i = 0; i < plain->table.num_rows(); ++i) {
    const Row& a = plain->table.rows()[i];
    const Row& b = spooled->table.rows()[i];
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_TRUE(a[c].Equals(b[c]));
    }
  }
}

// The same join with the smaller relation on the left: the left side is
// the build side, so it is what moves, what every DN hashes and what the
// cap spools; the output stays left ++ right, bit-identical to uncapped.
TEST_F(ExchangeSpillTest, LeftBuildSideSpillKeepsJoinBitIdentical) {
  Cluster cluster(4, Protocol::kGtmLite);
  Schema lookup({Column{"l_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  Schema orders({Column{"o_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  ASSERT_TRUE(cluster.CreateTable("lookup", lookup).ok());
  ASSERT_TRUE(cluster.CreateTable("orders", orders).ok());
  std::string pad(64, 'p');
  for (int64_t i = 0; i < 32; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("lookup", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  for (int64_t i = 0; i < 64; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("orders", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  JoinQuery spec{"lookup", "orders", "l_id", "o_id"};
  for (auto strategy : {JoinStrategy::kBroadcast, JoinStrategy::kRepartition}) {
    SCOPED_TRACE(ToString(strategy));
    DistExecOptions opts;
    auto plain = ExecuteDistPlan(&cluster, spec.Plan(strategy), opts);
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(plain->stats.build_left);
    EXPECT_EQ(plain->stats.build_spill_bytes, 0u);

    opts.max_build_bytes = 256;  // well under every DN's build partition
    opts.spill_dir = dir_.string();
    auto spooled = ExecuteDistPlan(&cluster, spec.Plan(strategy), opts);
    ASSERT_TRUE(spooled.ok()) << spooled.status().ToString();
    EXPECT_TRUE(spooled->stats.build_left);
    EXPECT_GT(spooled->stats.build_spill_bytes, 0u);
    EXPECT_EQ(FilesInDir(), 0u);

    ASSERT_EQ(plain->table.num_rows(), 32u);
    ASSERT_EQ(spooled->table.num_rows(), plain->table.num_rows());
    for (size_t i = 0; i < plain->table.num_rows(); ++i) {
      const Row& a = plain->table.rows()[i];
      const Row& b = spooled->table.rows()[i];
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(a[0].AsInt(), a[2].AsInt());  // l_id = o_id, left first
      for (size_t c = 0; c < a.size(); ++c) {
        EXPECT_TRUE(a[c].Equals(b[c]));
      }
    }
  }
}

TEST_F(ExchangeSpillTest, PipelinedCappedExchangeLeaksNoFilesOrBudget) {
  // The pipelined schedule: consumers drain while producers still stream.
  // The invariants hold: bit-identical rows in deterministic order, every
  // spill byte returned to the budget, and no temp file outliving the
  // exchange.
  std::vector<Row> rows;
  Rng rng(42);
  for (int i = 0; i < 120; ++i) {
    rows.push_back(MakeRow(rng.Uniform(0, 1000), std::string(30, 'p')));
  }

  // Reference: uncapped barrier scatter for the expected receive order.
  exchange::ExchangeNetwork plain(3, /*batch_rows=*/8);
  for (int src = 0; src < 3; ++src) {
    ASSERT_TRUE(exchange::ScatterRows(&plain, src, rows, 0).ok());
  }
  std::vector<std::vector<Row>> want(3);
  for (int dst = 0; dst < 3; ++dst) {
    auto r = ReceiveAfterClose(&plain, dst);
    ASSERT_TRUE(r.ok());
    want[static_cast<size_t>(dst)] = std::move(*r);
  }

  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir_.string(), &budget};
  {
    exchange::ExchangeNetwork net(3, /*batch_rows=*/8,
                                  /*max_channel_bytes=*/64, cfg);
    SimScheduler sched;
    std::vector<int> res;
    std::vector<std::vector<exchange::ScatterInput>> inputs(3);
    for (size_t i = 0; i < 3; ++i) {
      res.push_back(sched.AddResource());
      inputs[i].push_back(exchange::ScatterInput{0, &rows, 0});
    }
    exchange::ExchangeRun run = exchange::RunExchange(
        {&net}, inputs, &sched, res, {0, 0, 0}, exchange::ExchangeLatencyParams{},
        exchange::ExchangeSchedule::kPipelined);
    EXPECT_GT(net.SpilledBytes(), 0u);

    for (size_t dst = 0; dst < 3; ++dst) {
      ASSERT_TRUE(run.consumer_status[dst].ok());
      const auto& w = want[dst];
      const auto& g = run.rows[0][dst];
      ASSERT_EQ(g.size(), w.size()) << "dst " << dst;
      for (size_t i = 0; i < w.size(); ++i) {
        ASSERT_EQ(g[i].size(), w[i].size());
        for (size_t c = 0; c < w[i].size(); ++c) {
          EXPECT_TRUE(g[i][c].Equals(w[i][c])) << "dst " << dst << " row " << i;
        }
      }
    }
    // Fully drained: the per-channel delete-on-last-consume already removed
    // every spill file.
    EXPECT_EQ(budget.used.load(), 0u);
    EXPECT_EQ(FilesInDir(), 0u);
  }
  EXPECT_EQ(FilesInDir(), 0u);
}

/// Loads `cluster` (2 DNs, DN 1 holding every fifth order) with 4000 orders
/// over 200 lookup keys and 200 lookup rows.
void LoadSkewedOrders(Cluster* cluster) {
  cluster->set_sharder(
      [](const sql::Value& v) { return v.AsInt() % 5 == 0 ? 1 : 0; });
  Schema orders({Column{"o_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  Schema lookup({Column{"l_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  ASSERT_TRUE(cluster->CreateTable("orders", orders).ok());
  ASSERT_TRUE(cluster->CreateTable("lookup", lookup).ok());
  std::string pad(48, 'p');
  for (int64_t i = 0; i < 4000; ++i) {
    Txn t = cluster->Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("orders", Value(i), MakeRow(i % 200, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  for (int64_t i = 0; i < 200; ++i) {
    Txn t = cluster->Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("lookup", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
}

TEST_F(ExchangeSpillTest, PipelinedCappedJoinStatsAreDeterministic) {
  // A hot producer streaming into a capped channel: the exchange loop
  // sends and pops in simulated-time order, so repeated runs agree on
  // every figure — the channels' spill and the simulated latency that
  // spill is charged in.
  Cluster cluster(2, Protocol::kGtmLite);
  LoadSkewedOrders(&cluster);

  JoinQuery spec{"orders", "lookup", "o_id", "l_id"};
  DistExecOptions opts;
  opts.pipeline = true;
  opts.batch_rows = 16;
  opts.max_channel_bytes = 8 * 1024;
  opts.spill_dir = dir_.string();
  std::vector<DistExecStats> runs;
  for (int run = 0; run < 8; ++run) {
    cluster.scheduler().Reset();
    auto r = ExecuteDistPlan(
        &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(ChannelSpill(r->stats),
              std::make_pair(r->stats.spill_bytes, r->stats.spill_segments));
    runs.push_back(r->stats);
  }
  EXPECT_GT(runs[0].spill_bytes, 0u);
  EXPECT_EQ(FilesInDir(), 0u);
  for (size_t run = 1; run < runs.size(); ++run) {
    const DistExecStats& a = runs[0];
    const DistExecStats& b = runs[run];
    EXPECT_EQ(b.sim_latency_us, a.sim_latency_us) << "run " << run;
    EXPECT_EQ(b.spill_bytes, a.spill_bytes) << "run " << run;
    EXPECT_EQ(b.spill_segments, a.spill_segments) << "run " << run;
    EXPECT_EQ(b.pipeline_overlap_us, a.pipeline_overlap_us) << "run " << run;
    EXPECT_EQ(b.batches_streamed, a.batches_streamed) << "run " << run;
    EXPECT_EQ(b.shuffle_bytes, a.shuffle_bytes) << "run " << run;
    EXPECT_EQ(b.exchange_batches, a.exchange_batches) << "run " << run;
    EXPECT_EQ(b.result_bytes, a.result_bytes) << "run " << run;
    EXPECT_EQ(b.build_spill_bytes, a.build_spill_bytes) << "run " << run;
  }
}

TEST_F(ExchangeSpillTest, CappedJoinReportsTheChannelsSpillUnderBothSchedules) {
  // The skewed 2-DN repartition join at a 32 KiB channel cap. The stats
  // must report the spill the channels really did (a replay of the send
  // logs once modeled 0 B here while the channels spilled ~120 KB), the
  // same on every run, with rows bit-identical to the uncapped run.
  Cluster cluster(2, Protocol::kGtmLite);
  LoadSkewedOrders(&cluster);

  JoinQuery spec{"orders", "lookup", "o_id", "l_id"};
  size_t barrier_spill = 0;
  for (bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    DistExecOptions opts;
    opts.pipeline = pipeline;
    opts.batch_rows = 16;
    opts.spill_dir = dir_.string();
    cluster.scheduler().Reset();
    auto uncapped = ExecuteDistPlan(
        &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
    ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
    EXPECT_EQ(uncapped->stats.spill_bytes, 0u);

    opts.max_channel_bytes = 32 * 1024;
    std::vector<DistExecStats> runs;
    for (int run = 0; run < 10; ++run) {
      cluster.scheduler().Reset();
      auto r = ExecuteDistPlan(
          &cluster, spec.Plan(JoinStrategy::kRepartition), opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const auto [bytes, segments] = ChannelSpill(r->stats);
      EXPECT_EQ(r->stats.spill_bytes, bytes) << "run " << run;
      EXPECT_EQ(r->stats.spill_segments, segments) << "run " << run;
      ASSERT_EQ(r->table.num_rows(), uncapped->table.num_rows());
      for (size_t i = 0; i < r->table.num_rows(); ++i) {
        const Row& a = uncapped->table.rows()[i];
        const Row& b = r->table.rows()[i];
        ASSERT_EQ(a.size(), b.size());
        for (size_t c = 0; c < a.size(); ++c) {
          ASSERT_TRUE(a[c].Equals(b[c])) << "run " << run << " row " << i;
        }
      }
      runs.push_back(r->stats);
    }
    if (pipeline) {
      // Draining as batches land never holds more in the window.
      EXPECT_LE(runs[0].spill_bytes, barrier_spill);
    } else {
      EXPECT_GT(runs[0].spill_bytes, 0u);
      barrier_spill = runs[0].spill_bytes;
    }
    EXPECT_EQ(FilesInDir(), 0u);
    for (size_t run = 1; run < runs.size(); ++run) {
      EXPECT_EQ(runs[run].spill_bytes, runs[0].spill_bytes) << "run " << run;
      EXPECT_EQ(runs[run].spill_segments, runs[0].spill_segments)
          << "run " << run;
      EXPECT_EQ(runs[run].sim_latency_us, runs[0].sim_latency_us)
          << "run " << run;
      EXPECT_EQ(runs[run].pipeline_overlap_us, runs[0].pipeline_overlap_us)
          << "run " << run;
    }
  }
}

}  // namespace
}  // namespace ofi::cluster
