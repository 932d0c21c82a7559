/// Pipelined exchange primitives: Close(status) propagation (fail fast on
/// producer error), sequence-tagged rollback that stays correct when a
/// consumer drained batches between the mark and the rollback (the
/// producer-fails-mid-stream path), StreamingScatter's framing (per
/// destination, batches of at most batch_rows rows in input order, routed
/// by HashForPartition), and the exchange loop under both schedules (the
/// pipelined consumer frontier starts before the skewed producer's frontier
/// ends, a consumer drains a later net while a producer still streams it,
/// and capped channels spill the same bytes on every run).
#include <gtest/gtest.h>

#include <filesystem>

#include "cluster/exchange/exchange.h"
#include "common/rng.h"

namespace ofi::cluster {
namespace {

namespace fs = std::filesystem;

using exchange::ExchangeChannel;
using exchange::ExchangeNetwork;
using sql::Row;
using sql::Value;

Row MakeRow(int64_t k, const std::string& pad) {
  return Row{Value(k), Value(pad)};
}

std::vector<Row> MakeRows(int count, int64_t key_mod, size_t pad = 40) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    rows.push_back(MakeRow(i % key_mod,
                           std::string(pad, static_cast<char>('a' + i % 26))));
  }
  return rows;
}

// --- Close(status) -----------------------------------------------------------

TEST(ExchangePipelineTest, ErrorCloseFailsFastEvenWithQueuedBatches) {
  ExchangeChannel ch;
  ASSERT_TRUE(ch.Send("queued").ok());
  ch.Close(Status::Internal("producer died"));

  // Fail fast outranks the queued payload: a consumer must never assemble
  // a partial stream from a failed producer.
  auto polled = ch.PopBatch();
  ASSERT_FALSE(polled.ok());
  EXPECT_NE(polled.status().ToString().find("producer died"),
            std::string::npos);

  // First non-OK close wins; a later OK close never masks it.
  ch.Close();
  EXPECT_FALSE(ch.close_status().ok());
}

// --- Sequence-tagged rollback under interleaved consumption -----------------

TEST(ExchangePipelineTest, RollbackDropsOnlyPostMarkBatches) {
  ExchangeChannel ch;
  ASSERT_TRUE(ch.Send("aaaa").ok());
  ExchangeChannel::Checkpoint cp = ch.Mark();
  ASSERT_TRUE(ch.Send("bbbb").ok());
  ASSERT_TRUE(ch.Send("cccc").ok());

  // A consumer drains the pre-mark batch AND one post-mark batch before the
  // rollback lands — the count-based scheme this replaces would then have
  // dropped the wrong items.
  ASSERT_EQ(**ch.PopBatch(), "aaaa");
  ASSERT_EQ(**ch.PopBatch(), "bbbb");

  ch.RollbackTo(cp);
  // Only the undelivered post-mark batch is dropped; lifetime accounting
  // rewinds to the mark and the whole post-mark payload (drained or not)
  // lands in aborted_bytes.
  EXPECT_FALSE(ch.PopBatch()->has_value());
  EXPECT_EQ(ch.bytes(), 4u);
  EXPECT_EQ(ch.batches(), 1u);
  EXPECT_EQ(ch.aborted_bytes(), 8u);

  // The channel stays usable: a retry's sends flow normally.
  ASSERT_TRUE(ch.Send("dddd").ok());
  EXPECT_EQ(**ch.PopBatch(), "dddd");
  EXPECT_EQ(ch.bytes(), 8u);
}

TEST(ExchangePipelineTest, RollbackWithSpilledSegmentsAndInterleavedPops) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-rollback";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    exchange::SpillBudget budget;
    exchange::ExchangeSpillConfig cfg{dir.string(), &budget};
    ExchangeChannel::SendLimits limits{32, &cfg};
    ExchangeChannel ch;

    // Two pre-mark batches (second spills past the 32B window).
    ASSERT_TRUE(ch.Send(std::string(20, 'a'), limits).ok());
    ASSERT_TRUE(ch.Send(std::string(20, 'b'), limits).ok());
    ExchangeChannel::Checkpoint cp = ch.Mark();
    // Post-mark: all spill (the window is still full).
    ASSERT_TRUE(ch.Send(std::string(20, 'c'), limits).ok());
    ASSERT_TRUE(ch.Send(std::string(20, 'd'), limits).ok());
    EXPECT_EQ(ch.spill_segments(), 3u);

    // Consumer drains one pre-mark batch concurrently with the "failure".
    ASSERT_EQ(**ch.PopBatch(), std::string(20, 'a'));

    ch.RollbackTo(cp);
    EXPECT_EQ(ch.bytes(), 40u);
    EXPECT_EQ(ch.aborted_bytes(), 40u);
    EXPECT_EQ(budget.used.load(), 20u);  // only the pre-mark segment remains
    // The surviving pre-mark payload is still deliverable, in order.
    ASSERT_EQ(**ch.PopBatch(), std::string(20, 'b'));
    EXPECT_FALSE(ch.PopBatch()->has_value());
    EXPECT_EQ(budget.used.load(), 0u);
  }
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(ExchangePipelineTest, RollbackToEmptyMarkRemovesSpillFile) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-rollback-empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    exchange::SpillBudget budget;
    exchange::ExchangeSpillConfig cfg{dir.string(), &budget};
    ExchangeChannel::SendLimits limits{16, &cfg};
    ExchangeChannel ch;
    ExchangeChannel::Checkpoint cp = ch.Mark();
    ASSERT_TRUE(ch.Send(std::string(20, 'x'), limits).ok());
    ASSERT_TRUE(ch.Send(std::string(20, 'y'), limits).ok());
    EXPECT_FALSE(ch.spill_path().empty());
    ch.RollbackTo(cp);
    // No pre-mark segments survive: the spill file itself is deleted and
    // the budget fully released, not merely truncated.
    EXPECT_TRUE(ch.spill_path().empty());
    EXPECT_EQ(budget.used.load(), 0u);
    EXPECT_TRUE(fs::is_empty(dir));
  }
  fs::remove_all(dir);
}

/// Runs the exchange loop on fresh resources: node i hash-repartitions
/// `rows[i]` on column 0 through `net`.
exchange::ExchangeRun RunLoop(ExchangeNetwork* net,
                          const std::vector<std::vector<Row>>& rows,
                          exchange::ExchangeSchedule schedule) {
  SimScheduler sched;
  std::vector<int> resources;
  std::vector<std::vector<exchange::ScatterInput>> inputs(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    resources.push_back(sched.AddResource());
    inputs[i].push_back(exchange::ScatterInput{0, &rows[i], 0});
  }
  return exchange::RunExchange({net}, inputs, &sched, resources,
                               std::vector<SimTime>(rows.size(), 0),
                               exchange::ExchangeLatencyParams{}, schedule);
}

// Producer fails mid-stream while a consumer is draining: a spill budget
// that runs out at a different point each iteration denies one of node 0's
// sends after node 1 has already popped some of its batches, so the
// ScatterGuard rollback meets a channel a consumer has partly drained.
// Invariants (no file leak, budget drained, abort accounting, fail fast)
// are asserted every iteration.
TEST(ExchangePipelineTest, ProducerFailsMidStreamWhileConsumerDrains) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-stress";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<Row> rows = MakeRows(160, 7);
  int failed_after_pops = 0;
  for (int iter = 0; iter < 20; ++iter) {
    exchange::SpillBudget budget(600 + 150 * static_cast<size_t>(iter));
    exchange::ExchangeSpillConfig cfg{dir.string(), &budget};
    {
      ExchangeNetwork net(2, /*batch_rows=*/8, /*max_channel_bytes=*/256, cfg);
      exchange::ExchangeRun run =
          RunLoop(&net, {rows, {}}, exchange::ExchangeSchedule::kPipelined);
      EXPECT_TRUE(run.producer_status[1].ok());
      if (!run.producer_status[0].ok()) {
        if (run.batches_popped > 0) ++failed_after_pops;
        EXPECT_EQ(run.producer_status[0].code(),
                  StatusCode::kResourceExhausted);
        EXPECT_GT(net.AbortedBytes(), 0u) << "iteration " << iter;
        // Every consumer reads node 0's channels, so each fails fast with
        // node 0's status instead of surfacing a partial stream.
        for (const Status& st : run.consumer_status) {
          EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
        }
      }
    }
    // Channels destroyed: every spill byte must be returned and no temp
    // file may survive the failed query.
    EXPECT_EQ(budget.used.load(), 0u) << "iteration " << iter;
    EXPECT_TRUE(fs::is_empty(dir)) << "iteration " << iter;
  }
  EXPECT_GT(failed_after_pops, 0);
  fs::remove_all(dir);
}

// --- StreamingScatter framing ----------------------------------------------

/// Decodes every batch queued on src->dst, in order.
std::vector<std::vector<Row>> DrainBatches(ExchangeNetwork* net, int src,
                                           int dst) {
  std::vector<std::vector<Row>> batches;
  while (true) {
    auto b = net->channel(src, dst).PopBatch();
    EXPECT_TRUE(b.ok());
    if (!b.ok() || !b->has_value()) break;
    auto rows = exchange::DecodeBatch(**b);
    EXPECT_TRUE(rows.ok());
    batches.push_back(std::move(*rows));
  }
  return batches;
}

/// Asserts `batches` frame exactly `want`: full batches of `batch_rows`
/// rows, then one partial tail, in input order.
void ExpectFramed(const std::vector<std::vector<Row>>& batches,
                  const std::vector<Row>& want, size_t batch_rows) {
  std::vector<Row> got;
  for (size_t b = 0; b < batches.size(); ++b) {
    if (b + 1 < batches.size()) {
      EXPECT_EQ(batches[b].size(), batch_rows) << "batch " << b;
    } else {
      EXPECT_GE(batches[b].size(), 1u);
      EXPECT_LE(batches[b].size(), batch_rows);
    }
    got.insert(got.end(), batches[b].begin(), batches[b].end());
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(got[r][c].Equals(want[r][c])) << "row " << r;
    }
  }
}

TEST(ExchangePipelineTest, StreamingScatterFramesRepartitionByHash) {
  const std::vector<Row> rows = MakeRows(100, 11);
  ExchangeNetwork net(3, /*batch_rows=*/8);
  size_t flushed_bytes = 0;
  exchange::StreamingScatter scatter(
      &net, 0, /*key_idx=*/0,
      [&](int, size_t bytes) { flushed_bytes += bytes; });
  for (const Row& row : rows) ASSERT_TRUE(scatter.Push(row).ok());
  ASSERT_TRUE(scatter.Finish().ok());

  EXPECT_EQ(flushed_bytes, net.channel(0, 0).bytes() +
                               net.channel(0, 1).bytes() +
                               net.channel(0, 2).bytes());
  for (int dst = 0; dst < 3; ++dst) {
    std::vector<Row> want;
    for (const Row& row : rows) {
      const uint64_t part = exchange::HashForPartition(row[0]) % 3;
      if (part == static_cast<uint64_t>(dst)) want.push_back(row);
    }
    ASSERT_FALSE(want.empty()) << "dst " << dst;
    ExpectFramed(DrainBatches(&net, 0, dst), want, 8);
  }
}

TEST(ExchangePipelineTest, StreamingScatterFramesBroadcastToEveryNode) {
  const std::vector<Row> rows = MakeRows(37, 5);
  ExchangeNetwork net(3, /*batch_rows=*/8);
  size_t flushes = 0;
  exchange::StreamingScatter scatter(&net, 1, /*key_idx=*/std::nullopt,
                                     [&](int, size_t) { ++flushes; });
  for (const Row& row : rows) ASSERT_TRUE(scatter.Push(row).ok());
  ASSERT_TRUE(scatter.Finish().ok());

  // ceil(37/8) = 5 batches to each node, the loopback copy included.
  EXPECT_EQ(flushes, 15u);
  for (int dst = 0; dst < 3; ++dst) {
    ExpectFramed(DrainBatches(&net, 1, dst), rows, 8);
  }
}

TEST(ExchangePipelineTest, ReceiveRowsIsSourceOrderThenSendOrder) {
  const std::vector<Row> rows = MakeRows(90, 13);
  ExchangeNetwork net(3, /*batch_rows=*/8);
  for (int src = 0; src < 3; ++src) {
    ASSERT_TRUE(exchange::ScatterRows(&net, src, rows, 0).ok());
    net.CloseAllFrom(src);
  }
  for (int dst = 0; dst < 3; ++dst) {
    std::vector<Row> want;
    for (int src = 0; src < 3; ++src) {
      for (const Row& row : rows) {
        if (exchange::HashForPartition(row[0]) % 3 ==
            static_cast<uint64_t>(dst)) {
          want.push_back(row);
        }
      }
    }
    auto waited = net.ReceiveRows(dst);
    ASSERT_TRUE(waited.ok());
    ASSERT_EQ(waited->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ((*waited)[i].size(), want[i].size());
      for (size_t c = 0; c < want[i].size(); ++c) {
        EXPECT_EQ((*waited)[i][c].ToString(), want[i][c].ToString());
      }
    }
  }
}

// --- The exchange loop under both schedules --------------------------------

/// The skewed two-node traffic: node 0 streams `heavy` rows, node 1 a
/// single light batch, both hash-repartitioned over the two nodes.
std::vector<std::vector<Row>> SkewedTraffic(int heavy) {
  std::vector<std::vector<Row>> rows(2);
  for (int src = 0; src < 2; ++src) {
    const int count = src == 0 ? heavy : 4;
    for (int i = 0; i < count; ++i) {
      rows[static_cast<size_t>(src)].push_back(
          MakeRow(2 * i + (src == 0 ? 1 : 0), std::string(64, 'p')));
    }
  }
  return rows;
}

TEST(ExchangePipelineTest, PipelinedExchangeOverlapsSkewedProducer) {
  const auto traffic = SkewedTraffic(/*heavy=*/400);
  ExchangeNetwork barrier_net(2, /*batch_rows=*/8);
  exchange::ExchangeRun barrier =
      RunLoop(&barrier_net, traffic, exchange::ExchangeSchedule::kBarrier);
  ExchangeNetwork piped_net(2, /*batch_rows=*/8);
  exchange::ExchangeRun sim =
      RunLoop(&piped_net, traffic, exchange::ExchangeSchedule::kPipelined);

  // The consumer frontier starts strictly before the slow producer's
  // frontier ends — the overlap the barrier schedule forbids by
  // construction.
  EXPECT_LT(sim.first_consume[1], sim.producer_done[0]);
  EXPECT_GT(sim.overlap_us, 0);
  EXPECT_GE(barrier.first_consume[1], barrier.producer_done[0]);
  EXPECT_EQ(barrier.overlap_us, 0);
  // Both schedules encode the same batches with the same charges.
  EXPECT_EQ(barrier.producer_done, sim.producer_done);
  // And the overlap translates into lower end-to-end readiness than the
  // barrier run of the identical traffic.
  EXPECT_LT(*std::max_element(sim.ready.begin(), sim.ready.end()),
            *std::max_element(barrier.ready.begin(), barrier.ready.end()));
  // Same rows in the same order either way.
  ASSERT_EQ(sim.rows[0][0].size() + sim.rows[0][1].size(), 404u);
  for (size_t j = 0; j < 2; ++j) {
    ASSERT_EQ(sim.rows[0][j].size(), barrier.rows[0][j].size());
    for (size_t r = 0; r < sim.rows[0][j].size(); ++r) {
      EXPECT_TRUE(sim.rows[0][j][r][0].Equals(barrier.rows[0][j][r][0]));
    }
  }

  // Deterministic: a second run of the same traffic on a fresh scheduler
  // lands on identical times.
  ExchangeNetwork again_net(2, /*batch_rows=*/8);
  exchange::ExchangeRun again =
      RunLoop(&again_net, traffic, exchange::ExchangeSchedule::kPipelined);
  EXPECT_EQ(again.ready, sim.ready);
  EXPECT_EQ(again.producer_done, sim.producer_done);
  EXPECT_EQ(again.first_consume, sim.first_consume);
  EXPECT_EQ(again.overlap_us, sim.overlap_us);
}

TEST(ExchangePipelineTest, ConsumerDrainsLaterNetWhileProducerStreams) {
  // Node 0 broadcasts a small relation on net 0, then a heavy one on net 1;
  // node 1 sends only on net 1, so its net-0 channels are closed from the
  // start. Each net closes as soon as its producer's last input on it
  // ends, so the pipelined consumer on node 1 gets past net 0 early and
  // decodes node 0's net-1 batches while node 0 is still encoding them. A
  // close only after the producer's last input would hold node 1 on net 0
  // until node 0 finished, and leave every net-1 decode after that.
  const std::vector<Row> small = MakeRows(8, 1000);
  const std::vector<Row> heavy = MakeRows(400, 1000);
  const std::vector<Row> tail = MakeRows(4, 1000);
  const exchange::ExchangeLatencyParams params;
  auto run = [&](ExchangeNetwork* net0, ExchangeNetwork* net1,
                 exchange::ExchangeSchedule schedule) {
    SimScheduler sched;
    const std::vector<int> resources = {sched.AddResource(),
                                        sched.AddResource()};
    const std::vector<std::vector<exchange::ScatterInput>> inputs = {
        {{0, &small, std::nullopt}, {1, &heavy, std::nullopt}},
        {{1, &tail, std::nullopt}}};
    return exchange::RunExchange({net0, net1}, inputs, &sched, resources,
                                 {0, 0}, params, schedule);
  };
  ExchangeNetwork piped0(2, /*batch_rows=*/8), piped1(2, /*batch_rows=*/8);
  exchange::ExchangeRun piped =
      run(&piped0, &piped1, exchange::ExchangeSchedule::kPipelined);
  ExchangeNetwork barrier0(2, /*batch_rows=*/8), barrier1(2, /*batch_rows=*/8);
  exchange::ExchangeRun barrier =
      run(&barrier0, &barrier1, exchange::ExchangeSchedule::kBarrier);
  for (const auto& st : piped.consumer_status) ASSERT_TRUE(st.ok());
  for (const auto& st : barrier.consumer_status) ASSERT_TRUE(st.ok());

  // Decode service of node 0's heavy net-1 traffic into node 1.
  SimTime heavy_decode = 0;
  for (const exchange::ChannelStats& ch : piped1.Stats()) {
    if (ch.src == 0 && ch.dst == 1) {
      heavy_decode =
          exchange::ExchangeServiceTime(ch.bytes, ch.batches, params);
    }
  }
  ASSERT_GT(heavy_decode, 0);
  // Pipelined: most of that decode ran before node 0 finished, so node 1 is
  // ready sooner after node 0's close than the decode alone would take.
  EXPECT_LT(piped.ready[1],
            piped.producer_done[0] + params.network_hop_us + heavy_decode);
  // Barrier: every decode waits for the last close, as before.
  EXPECT_GE(barrier.ready[1],
            barrier.producer_done[0] + params.network_hop_us + heavy_decode);
  // Both schedules deliver the same rows in the same order.
  for (size_t k = 0; k < 2; ++k) {
    for (size_t j = 0; j < 2; ++j) {
      ASSERT_EQ(piped.rows[k][j].size(), barrier.rows[k][j].size());
      for (size_t r = 0; r < piped.rows[k][j].size(); ++r) {
        EXPECT_TRUE(piped.rows[k][j][r][1].Equals(barrier.rows[k][j][r][1]));
      }
    }
  }
  EXPECT_EQ(piped.rows[1][1].size(), heavy.size() + tail.size());
}

TEST(ExchangePipelineTest, PipelinedExchangeChargesRealSpill) {
  // A tiny channel cap: the channels spill, and the loop charges exactly
  // what they spilled, the same amount on every run.
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-sim-spill";
  fs::remove_all(dir);
  fs::create_directories(dir);
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir.string(), &budget};
  const auto traffic = SkewedTraffic(/*heavy=*/400);
  {
    ExchangeNetwork capped(2, /*batch_rows=*/8, /*max_channel_bytes=*/128,
                           cfg);
    exchange::ExchangeRun sim =
        RunLoop(&capped, traffic, exchange::ExchangeSchedule::kPipelined);
    EXPECT_GT(capped.SpilledBytes(), 0u);
    EXPECT_GT(capped.SpillSegments(), 0u);

    // Uncapped run of the same traffic finishes no later than the capped
    // one (spill only ever adds service).
    ExchangeNetwork free_net(2, /*batch_rows=*/8);
    exchange::ExchangeRun free_sim =
        RunLoop(&free_net, traffic, exchange::ExchangeSchedule::kPipelined);
    EXPECT_EQ(free_net.SpilledBytes(), 0u);
    EXPECT_LE(*std::max_element(free_sim.ready.begin(), free_sim.ready.end()),
              *std::max_element(sim.ready.begin(), sim.ready.end()));

    // Under the barrier schedule no consumer drains before every send is
    // done: the window only fills, so it spills at least as much.
    ExchangeNetwork barrier_net(2, /*batch_rows=*/8,
                                /*max_channel_bytes=*/128, cfg);
    exchange::ExchangeRun barrier =
        RunLoop(&barrier_net, traffic, exchange::ExchangeSchedule::kBarrier);
    EXPECT_GE(barrier_net.SpilledBytes(), capped.SpilledBytes());

    // A second pipelined run spills exactly the same bytes.
    ExchangeNetwork again(2, /*batch_rows=*/8, /*max_channel_bytes=*/128,
                          cfg);
    exchange::ExchangeRun again_sim =
        RunLoop(&again, traffic, exchange::ExchangeSchedule::kPipelined);
    EXPECT_EQ(again.SpilledBytes(), capped.SpilledBytes());
    EXPECT_EQ(again.SpillSegments(), capped.SpillSegments());
    EXPECT_EQ(again_sim.ready, sim.ready);
  }
  // Every spilled segment was consumed: budget returned, no file left.
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ofi::cluster
