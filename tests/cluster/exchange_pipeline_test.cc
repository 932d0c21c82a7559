/// Pipelined exchange primitives: blocking PopBatchWait (condition-variable
/// wakeup, fail-fast on producer error, TimedOut on deadline),
/// Close(status) propagation, sequence-tagged rollback that stays correct
/// when a consumer drained batches between the mark and the rollback (the
/// producer-fails-mid-stream path), StreamingScatter's framing (per
/// destination, batches of at most batch_rows rows in input order, routed
/// by HashForPartition), and the deterministic latency replay under both
/// schedules (the pipelined consumer frontier starts before the skewed
/// producer's frontier ends). The concurrent stress cases run under tsan
/// in CI via the sanitizer focus list (scripts/check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

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

// --- PopBatchWait / Close(status) -------------------------------------------

TEST(ExchangePipelineTest, PopBatchWaitDrainsThenSignalsEndOfStream) {
  ExchangeChannel ch;
  ASSERT_TRUE(ch.Send("one").ok());
  ASSERT_TRUE(ch.Send("two").ok());
  ch.Close();

  auto a = ch.PopBatchWait(1000);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(**a, "one");
  auto b = ch.PopBatchWait(1000);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(**b, "two");
  // Clean close: drained channel reports end-of-stream, not an error.
  auto end = ch.PopBatchWait(1000);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
  // Sending after close is a producer bug, surfaced loudly.
  EXPECT_FALSE(ch.Send("late").ok());
}

TEST(ExchangePipelineTest, ErrorCloseFailsFastEvenWithQueuedBatches) {
  ExchangeChannel ch;
  ASSERT_TRUE(ch.Send("queued").ok());
  ch.Close(Status::Internal("producer died"));

  // Fail fast outranks the queued payload: a consumer must never assemble
  // a partial stream from a failed producer.
  auto waited = ch.PopBatchWait(1000);
  ASSERT_FALSE(waited.ok());
  EXPECT_NE(waited.status().ToString().find("producer died"),
            std::string::npos);
  auto polled = ch.PopBatch();
  ASSERT_FALSE(polled.ok());

  // First non-OK close wins; a later OK close never masks it.
  ch.Close();
  EXPECT_FALSE(ch.close_status().ok());
}

TEST(ExchangePipelineTest, PopBatchWaitTimesOutOnSilentProducer) {
  ExchangeChannel ch;
  auto r = ch.PopBatchWait(10);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimedOut()) << r.status().ToString();
}

TEST(ExchangePipelineTest, PopBatchWaitWakesOnSendAndOnClose) {
  ExchangeChannel ch;
  std::atomic<int> got{0};
  std::thread consumer([&] {
    auto r = ch.PopBatchWait(30'000);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "payload");
    got.fetch_add(1);
    auto end = ch.PopBatchWait(30'000);
    ASSERT_TRUE(end.ok());
    EXPECT_FALSE(end->has_value());
    got.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(ch.Send("payload").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.Close();
  consumer.join();
  EXPECT_EQ(got.load(), 2);
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

// Producer fails mid-stream while a consumer is draining with the blocking
// pop: the ScatterGuard rollback races the consumer's PopBatchWait on the
// same channels. Run under tsan in CI; single-threaded invariants (no file
// leak, budget drained, abort accounting) are asserted every iteration.
TEST(ExchangePipelineTest, ProducerFailsMidStreamWhileConsumerDrains) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-stress";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<Row> rows = MakeRows(160, 7);
  for (int iter = 0; iter < 20; ++iter) {
    exchange::SpillBudget budget;
    exchange::ExchangeSpillConfig cfg{dir.string(), &budget};
    {
      ExchangeNetwork net(2, /*batch_rows=*/8, /*max_channel_bytes=*/256, cfg);
      std::thread consumer([&] {
        auto r = net.ReceiveRowsWait(1, /*timeout_ms=*/30'000);
        // Depending on how far the drain got before the rollback + error
        // close, the consumer either fails fast with the producer's status
        // or (when it drained everything first) sees a clean close from
        // node 1 and the error from node 0.
        if (!r.ok()) {
          EXPECT_NE(r.status().ToString().find("injected"), std::string::npos)
              << r.status().ToString();
        }
      });
      {
        exchange::ScatterGuard guard(&net, 0);
        exchange::StreamingScatter scatter(&net, 0, /*key_idx=*/0);
        size_t pushed = 0;
        for (const Row& row : rows) {
          ASSERT_TRUE(scatter.Push(row).ok());
          // Fail partway through, at a different point each iteration.
          if (++pushed > static_cast<size_t>(16 + iter * 5)) break;
        }
        // No Commit: the guard rolls back node 0's partial scatter while
        // the consumer may still be popping.
      }
      net.CloseAllFrom(0, Status::Internal("injected producer failure"));
      net.CloseAllFrom(1);  // node 1 produced nothing and closed cleanly
      consumer.join();
      EXPECT_GT(net.AbortedBytes(), 0u);
    }
    // Channels destroyed: every spill byte must be returned and no temp
    // file may survive the failed query.
    EXPECT_EQ(budget.used.load(), 0u) << "iteration " << iter;
    EXPECT_TRUE(fs::is_empty(dir)) << "iteration " << iter;
  }
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
  exchange::StreamingScatter scatter(&net, 0, /*key_idx=*/0);
  for (const Row& row : rows) ASSERT_TRUE(scatter.Push(row).ok());
  ASSERT_TRUE(scatter.Finish().ok());

  size_t flushed_bytes = 0;
  for (const auto& rec : scatter.send_log()) flushed_bytes += rec.bytes;
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
  exchange::StreamingScatter scatter(&net, 1, /*key_idx=*/std::nullopt);
  for (const Row& row : rows) ASSERT_TRUE(scatter.Push(row).ok());
  ASSERT_TRUE(scatter.Finish().ok());

  // ceil(37/8) = 5 batches to each node, the loopback copy included.
  EXPECT_EQ(scatter.send_log().size(), 15u);
  for (int dst = 0; dst < 3; ++dst) {
    ExpectFramed(DrainBatches(&net, 1, dst), rows, 8);
  }
}

TEST(ExchangePipelineTest, ReceiveRowsWaitIsSourceOrderThenSendOrder) {
  const std::vector<Row> rows = MakeRows(90, 13);
  ExchangeNetwork net(3, /*batch_rows=*/8);
  std::vector<exchange::SentBatch> log;
  for (int src = 0; src < 3; ++src) {
    ASSERT_TRUE(exchange::ScatterRows(&net, src, rows, 0, 0, &log).ok());
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
    size_t streamed_batches = 0;
    auto waited = net.ReceiveRowsWait(dst, /*timeout_ms=*/1000,
                                      &streamed_batches);
    ASSERT_TRUE(waited.ok());
    ASSERT_EQ(waited->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ((*waited)[i].size(), want[i].size());
      for (size_t c = 0; c < want[i].size(); ++c) {
        EXPECT_EQ((*waited)[i][c].ToString(), want[i][c].ToString());
      }
    }
    EXPECT_GT(streamed_batches, 0u);
  }
}

// --- Deterministic pipelined latency replay ---------------------------------

/// Builds the skewed two-node traffic (node 0 ships `heavy` rows to node 1,
/// node 1 ships a single light batch back) on `net` and returns the
/// producer send logs (hash keys: even -> node 0, odd -> node 1).
std::vector<std::vector<exchange::SentBatch>> SkewedTraffic(
    ExchangeNetwork* net, int heavy) {
  std::vector<std::vector<exchange::SentBatch>> logs(2);
  for (int src = 0; src < 2; ++src) {
    // Everything node 0 produces is odd-keyed (routes to node 1) and vice
    // versa: maximal cross-traffic with one dominant producer.
    std::vector<Row> rows;
    const int count = src == 0 ? heavy : 4;
    for (int i = 0; i < count; ++i) {
      rows.push_back(MakeRow(2 * i + (src == 0 ? 1 : 0), std::string(64, 'p')));
    }
    EXPECT_TRUE(exchange::ScatterRows(net, src, rows, 0, 0,
                                      &logs[static_cast<size_t>(src)])
                    .ok());
  }
  return logs;
}

/// Replays `logs` on two fresh resources.
exchange::ExchangeSimResult Replay(
    const std::vector<std::vector<exchange::SentBatch>>& logs, size_t cap,
    exchange::ExchangeSchedule schedule) {
  SimScheduler sched;
  const std::vector<int> resources = {sched.AddResource(), sched.AddResource()};
  return exchange::SimulateExchange(&sched, resources, {cap}, logs, {0, 0},
                                    exchange::ExchangeLatencyParams{},
                                    schedule);
}

TEST(ExchangePipelineTest, PipelinedReplayOverlapsSkewedProducer) {
  ExchangeNetwork net(2, /*batch_rows=*/8);
  auto logs = SkewedTraffic(&net, /*heavy=*/400);
  exchange::ExchangeSimResult barrier =
      Replay(logs, 0, exchange::ExchangeSchedule::kBarrier);
  exchange::ExchangeSimResult sim =
      Replay(logs, 0, exchange::ExchangeSchedule::kPipelined);

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
  // barrier replay of the identical traffic.
  EXPECT_LT(*std::max_element(sim.ready.begin(), sim.ready.end()),
            *std::max_element(barrier.ready.begin(), barrier.ready.end()));

  // Deterministic: a second replay of the same logs on a fresh scheduler
  // lands on identical times.
  exchange::ExchangeSimResult again =
      Replay(logs, 0, exchange::ExchangeSchedule::kPipelined);
  EXPECT_EQ(again.ready, sim.ready);
  EXPECT_EQ(again.producer_done, sim.producer_done);
  EXPECT_EQ(again.first_consume, sim.first_consume);
  EXPECT_EQ(again.overlap_us, sim.overlap_us);
}

TEST(ExchangePipelineTest, PipelinedReplayChargesModeledSpill) {
  // A tiny channel cap: the replay must account spill deterministically
  // from the send/drain schedule (the real counters race the consumer).
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-sim-spill";
  fs::remove_all(dir);
  fs::create_directories(dir);
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir.string(), &budget};
  {
    ExchangeNetwork capped(2, /*batch_rows=*/8, /*max_channel_bytes=*/128,
                           cfg);
    auto logs = SkewedTraffic(&capped, /*heavy=*/400);
    exchange::ExchangeSimResult sim =
        Replay(logs, 128, exchange::ExchangeSchedule::kPipelined);
    EXPECT_GT(sim.spill_bytes, 0u);
    EXPECT_GT(sim.spill_segments, 0u);

    // Uncapped replay of the same traffic finishes no later than the
    // capped one (spill only ever adds service).
    exchange::ExchangeSimResult free_sim =
        Replay(logs, 0, exchange::ExchangeSchedule::kPipelined);
    EXPECT_EQ(free_sim.spill_bytes, 0u);
    EXPECT_LE(*std::max_element(free_sim.ready.begin(), free_sim.ready.end()),
              *std::max_element(sim.ready.begin(), sim.ready.end()));

    // Under the barrier schedule no consumer drains before every send is
    // done: the model spills at least as much as the pipelined one, and
    // exactly what the (undrained) channels spilled.
    exchange::ExchangeSimResult barrier =
        Replay(logs, 128, exchange::ExchangeSchedule::kBarrier);
    EXPECT_GE(barrier.spill_bytes, sim.spill_bytes);
    EXPECT_EQ(barrier.spill_bytes, capped.SpilledBytes());
    EXPECT_EQ(barrier.spill_segments, capped.SpillSegments());

    // Drain so the channels are clean before teardown (keeps the temp dir
    // empty for the leak check).
    for (int src = 0; src < 2; ++src) capped.CloseAllFrom(src);
    for (int dst = 0; dst < 2; ++dst) {
      ASSERT_TRUE(capped.ReceiveRowsWait(dst, /*timeout_ms=*/1000).ok());
    }
  }
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ofi::cluster
