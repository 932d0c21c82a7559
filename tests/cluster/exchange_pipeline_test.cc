/// Pipelined exchange primitives: blocking PopBatchWait (condition-variable
/// wakeup, fail-fast on producer error, TimedOut on deadline),
/// Close(status) propagation, sequence-tagged rollback that stays correct
/// when a consumer drained batches between the mark and the rollback (the
/// producer-fails-mid-stream path), StreamingScatter's bit-identical
/// framing vs the one-shot scatter operators, and the deterministic
/// pipelined latency replay (consumer frontier starts before the skewed
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

// --- StreamingScatter framing equivalence -----------------------------------

std::vector<std::string> DrainAll(ExchangeNetwork* net, int src, int dst) {
  std::vector<std::string> batches;
  while (true) {
    auto b = net->channel(src, dst).PopBatch();
    EXPECT_TRUE(b.ok());
    if (!b->has_value()) break;
    batches.push_back(std::move(**b));
  }
  return batches;
}

TEST(ExchangePipelineTest, StreamingScatterMatchesShufflePartition) {
  const std::vector<Row> rows = MakeRows(100, 11);
  ExchangeNetwork one_shot(3, /*batch_rows=*/8);
  ASSERT_TRUE(exchange::ShufflePartition(&one_shot, 0, rows, 0).ok());

  ExchangeNetwork streamed(3, /*batch_rows=*/8);
  exchange::StreamingScatter scatter(&streamed, 0, /*key_idx=*/0);
  for (const Row& row : rows) ASSERT_TRUE(scatter.Push(row).ok());
  ASSERT_TRUE(scatter.Finish().ok());

  size_t flushed_bytes = 0;
  for (const auto& rec : scatter.send_log()) flushed_bytes += rec.bytes;
  EXPECT_EQ(flushed_bytes, one_shot.channel(0, 0).bytes() +
                               one_shot.channel(0, 1).bytes() +
                               one_shot.channel(0, 2).bytes());
  for (int dst = 0; dst < 3; ++dst) {
    // Same batch boundaries, same payload, same order — the execution mode
    // cannot leak into downstream results.
    EXPECT_EQ(DrainAll(&streamed, 0, dst), DrainAll(&one_shot, 0, dst))
        << "dst " << dst;
  }
}

TEST(ExchangePipelineTest, StreamingScatterMatchesBroadcastRows) {
  const std::vector<Row> rows = MakeRows(37, 5);
  ExchangeNetwork one_shot(3, /*batch_rows=*/8);
  ASSERT_TRUE(exchange::BroadcastRows(&one_shot, 1, rows).ok());

  ExchangeNetwork streamed(3, /*batch_rows=*/8);
  exchange::StreamingScatter scatter(&streamed, 1, /*key_idx=*/std::nullopt);
  for (const Row& row : rows) ASSERT_TRUE(scatter.Push(row).ok());
  ASSERT_TRUE(scatter.Finish().ok());

  for (int dst = 0; dst < 3; ++dst) {
    EXPECT_EQ(DrainAll(&streamed, 1, dst), DrainAll(&one_shot, 1, dst))
        << "dst " << dst;
  }
}

TEST(ExchangePipelineTest, ReceiveRowsWaitMatchesReceiveRowsOrder) {
  const std::vector<Row> rows = MakeRows(90, 13);
  ExchangeNetwork a(3, /*batch_rows=*/8);
  ExchangeNetwork b(3, /*batch_rows=*/8);
  for (int src = 0; src < 3; ++src) {
    ASSERT_TRUE(exchange::ShufflePartition(&a, src, rows, 0).ok());
    ASSERT_TRUE(exchange::ShufflePartition(&b, src, rows, 0).ok());
    b.CloseAllFrom(src);
  }
  for (int dst = 0; dst < 3; ++dst) {
    auto plain = a.ReceiveRows(dst);
    ASSERT_TRUE(plain.ok());
    size_t streamed_batches = 0;
    auto waited = b.ReceiveRowsWait(dst, /*timeout_ms=*/1000,
                                    &streamed_batches);
    ASSERT_TRUE(waited.ok());
    ASSERT_EQ(plain->size(), waited->size());
    for (size_t i = 0; i < plain->size(); ++i) {
      EXPECT_EQ((*plain)[i].size(), (*waited)[i].size());
      for (size_t c = 0; c < (*plain)[i].size(); ++c) {
        EXPECT_EQ((*plain)[i][c].ToString(), (*waited)[i][c].ToString());
      }
    }
    EXPECT_GT(streamed_batches, 0u);
  }
}

// --- Deterministic pipelined latency replay ---------------------------------

/// Builds the skewed two-node traffic (node 0 ships `heavy` rows to node 1,
/// node 1 ships a single light batch back) on a fresh network and returns
/// the producer send logs, using the streaming scatter (hash keys: even ->
/// node 0, odd -> node 1).
std::vector<std::vector<exchange::PipelinedSendRec>> SkewedTraffic(
    ExchangeNetwork* net, int heavy) {
  std::vector<std::vector<exchange::PipelinedSendRec>> logs(2);
  for (int src = 0; src < 2; ++src) {
    exchange::StreamingScatter scatter(net, src, /*key_idx=*/0);
    const int count = src == 0 ? heavy : 4;
    for (int i = 0; i < count; ++i) {
      // Everything node 0 produces is odd-keyed (routes to node 1) and
      // vice versa: maximal cross-traffic with one dominant producer.
      EXPECT_TRUE(
          scatter.Push(MakeRow(2 * i + (src == 0 ? 1 : 0),
                               std::string(64, 'p'))).ok());
    }
    EXPECT_TRUE(scatter.Finish().ok());
    for (const auto& rec : scatter.send_log()) {
      logs[static_cast<size_t>(src)].push_back(
          exchange::PipelinedSendRec{0, rec.dst, rec.bytes});
    }
  }
  return logs;
}

TEST(ExchangePipelineTest, PipelinedReplayOverlapsSkewedProducer) {
  exchange::ExchangeLatencyParams p;
  const std::vector<SimTime> start = {0, 0};
  const std::vector<int> resources = {0, 1};

  ExchangeNetwork barrier_net(2, /*batch_rows=*/8);
  auto barrier_logs = SkewedTraffic(&barrier_net, /*heavy=*/400);
  SimScheduler barrier_sched;
  barrier_sched.AddResource();
  barrier_sched.AddResource();
  std::vector<SimTime> barrier_done = exchange::SimulateExchange(
      &barrier_sched, resources, {&barrier_net}, start, p);

  ExchangeNetwork piped_net(2, /*batch_rows=*/8);
  auto logs = SkewedTraffic(&piped_net, /*heavy=*/400);
  SimScheduler sched;
  sched.AddResource();
  sched.AddResource();
  exchange::PipelinedSimResult sim = exchange::SimulatePipelinedExchange(
      &sched, resources, {&piped_net}, logs, start, p);

  // The consumer frontier starts strictly before the slow producer's
  // frontier ends — the overlap the barrier model forbids by construction.
  EXPECT_LT(sim.first_consume[1], sim.producer_done[0]);
  EXPECT_GT(sim.overlap_us, 0);
  // And the overlap translates into lower end-to-end readiness than the
  // barrier replay of the identical traffic.
  EXPECT_LT(*std::max_element(sim.ready.begin(), sim.ready.end()),
            *std::max_element(barrier_done.begin(), barrier_done.end()));

  // Deterministic: a second replay of the same logs on a fresh scheduler
  // lands on identical times.
  SimScheduler sched2;
  sched2.AddResource();
  sched2.AddResource();
  exchange::PipelinedSimResult again = exchange::SimulatePipelinedExchange(
      &sched2, resources, {&piped_net}, logs, start, p);
  EXPECT_EQ(again.ready, sim.ready);
  EXPECT_EQ(again.producer_done, sim.producer_done);
  EXPECT_EQ(again.first_consume, sim.first_consume);
  EXPECT_EQ(again.overlap_us, sim.overlap_us);
}

TEST(ExchangePipelineTest, PipelinedReplayChargesModeledSpill) {
  exchange::ExchangeLatencyParams p;
  const std::vector<SimTime> start = {0, 0};
  const std::vector<int> resources = {0, 1};

  // A tiny channel cap: the replay must account spill deterministically
  // from the send/drain schedule (the real counters race the consumer).
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-sim-spill";
  fs::remove_all(dir);
  fs::create_directories(dir);
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir.string(), &budget};
  ExchangeNetwork capped(2, /*batch_rows=*/8, /*max_channel_bytes=*/128, cfg);
  auto logs = SkewedTraffic(&capped, /*heavy=*/400);

  SimScheduler sched;
  sched.AddResource();
  sched.AddResource();
  exchange::PipelinedSimResult sim = exchange::SimulatePipelinedExchange(
      &sched, resources, {&capped}, logs, start, p);
  EXPECT_GT(sim.modeled_spill_bytes, 0u);

  // Uncapped replay of the same traffic finishes no later than the capped
  // one (spill only ever adds service).
  ExchangeNetwork uncapped(2, /*batch_rows=*/8);
  auto free_logs = SkewedTraffic(&uncapped, /*heavy=*/400);
  SimScheduler sched2;
  sched2.AddResource();
  sched2.AddResource();
  exchange::PipelinedSimResult free_sim = exchange::SimulatePipelinedExchange(
      &sched2, resources, {&uncapped}, free_logs, start, p);
  EXPECT_EQ(free_sim.modeled_spill_bytes, 0u);
  EXPECT_LE(*std::max_element(free_sim.ready.begin(), free_sim.ready.end()),
            *std::max_element(sim.ready.begin(), sim.ready.end()));

  // Drain so the channels are clean before teardown (keeps the temp dir
  // empty for the leak check).
  for (int dst = 0; dst < 2; ++dst) {
    ASSERT_TRUE(capped.ReceiveRows(dst).ok());
    ASSERT_TRUE(uncapped.ReceiveRows(dst).ok());
  }
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ofi::cluster
