/// Exchange subsystem units: the wire codec must round-trip every value
/// type and reject corrupt input; the partition hash must be consistent
/// with Value equality; repartition/broadcast scatters must deliver
/// deterministically with exact byte/batch accounting; the barrier-schedule
/// exchange loop must keep the max-over-senders (not chained) shape and
/// start a consumer only once every channel into it has closed.
#include "cluster/exchange/exchange.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace ofi::cluster::exchange {
namespace {

using sql::Row;
using sql::Value;

Row MixedRow(int64_t i) {
  return {Value(i), Value(static_cast<double>(i) + 0.5),
          Value("s" + std::to_string(i)), Value(i % 2 == 0),
          Value::Timestamp(1000 + i), Value::Null()};
}

TEST(ExchangeCodecTest, RoundTripsEveryValueType) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(MixedRow(i));
  rows.push_back({});  // empty row
  std::string batch = EncodeBatch(rows, 0, rows.size());
  auto decoded = DecodeBatch(batch);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ((*decoded)[r].size(), rows[r].size()) << "row " << r;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_EQ((*decoded)[r][c].type(), rows[r][c].type());
      EXPECT_TRUE((*decoded)[r][c].Equals(rows[r][c])) << r << "," << c;
    }
  }
}

TEST(ExchangeCodecTest, EncodedSizeMatchesActualEncoding) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 7; ++i) rows.push_back(MixedRow(i));
  std::string batch = EncodeBatch(rows, 0, rows.size());
  size_t per_row = 0;
  for (const auto& r : rows) per_row += EncodedRowSize(r);
  EXPECT_EQ(batch.size(), per_row + 4);  // + batch header
  EXPECT_EQ(EncodedBytes(rows, rows.size()), batch.size());
  // Framed into batches of 2: ceil(7/2)=4 headers.
  EXPECT_EQ(EncodedBytes(rows, 2), per_row + 4 * 4);
}

TEST(ExchangeCodecTest, RejectsCorruptInput) {
  std::vector<Row> rows = {MixedRow(1)};
  std::string batch = EncodeBatch(rows, 0, rows.size());
  // Truncations at every prefix length must fail, never crash.
  for (size_t cut = 0; cut < batch.size(); ++cut) {
    EXPECT_FALSE(DecodeBatch(batch.substr(0, cut)).ok()) << "cut " << cut;
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeBatch(batch + "x").ok());
  // Unknown type tag.
  std::string bad = batch;
  bad[8] = '\x77';  // first value's tag byte (4 count + 4 value-count)
  EXPECT_FALSE(DecodeBatch(bad).ok());
}

TEST(ExchangePartitionHashTest, ConsistentWithValueEquality) {
  // 1, 1.0 and TIMESTAMP(1) compare equal, so a repartitioned join must
  // route them to one node: equal values -> equal hashes.
  EXPECT_EQ(HashForPartition(Value(int64_t{1})), HashForPartition(Value(1.0)));
  EXPECT_EQ(HashForPartition(Value(int64_t{1})),
            HashForPartition(Value::Timestamp(1)));
  EXPECT_EQ(HashForPartition(Value::Null()), HashForPartition(Value::Null()));
  EXPECT_NE(HashForPartition(Value(int64_t{1})), HashForPartition(Value(1.5)));
  EXPECT_NE(HashForPartition(Value("a")), HashForPartition(Value("b")));
  // Distinct int keys spread over more than one partition residue.
  std::set<uint64_t> residues;
  for (int64_t i = 0; i < 64; ++i) {
    residues.insert(HashForPartition(Value(i)) % 4);
  }
  EXPECT_GT(residues.size(), 1u);
}

/// Receives everything bound for `dst` after closing every channel — the
/// barrier schedule's consumer (it never waits).
Result<std::vector<Row>> ReceiveAfterClose(ExchangeNetwork* net, int dst) {
  for (int src = 0; src < net->num_nodes(); ++src) net->CloseAllFrom(src);
  return net->ReceiveRows(dst);
}

TEST(ExchangeNetworkTest, ShuffleDeliversEveryRowExactlyOnceCoPartitioned) {
  const int n = 4;
  ExchangeNetwork net(n, /*batch_rows=*/3);
  Rng rng(11);
  size_t total = 0;
  for (int src = 0; src < n; ++src) {
    std::vector<Row> rows;
    for (int i = 0; i < 20; ++i) {
      rows.push_back({Value(rng.Uniform(0, 50)), Value(int64_t{src})});
    }
    total += rows.size();
    ASSERT_TRUE(ScatterRows(&net, src, rows, /*key_idx=*/0).ok());
  }
  size_t received = 0;
  std::set<int64_t> seen_keys;
  for (int dst = 0; dst < n; ++dst) {
    auto rows = ReceiveAfterClose(&net, dst);
    ASSERT_TRUE(rows.ok());
    received += rows->size();
    for (const auto& r : *rows) {
      // Co-partitioning: every row with this key landed HERE.
      EXPECT_EQ(HashForPartition(r[0]) % n, static_cast<uint64_t>(dst));
      seen_keys.insert(r[0].AsInt());
    }
  }
  EXPECT_EQ(received, total);
}

TEST(ExchangeNetworkTest, ReceiveOrderIsSourceOrderThenSendOrder) {
  const int n = 3;
  ExchangeNetwork net(n, /*batch_rows=*/2);
  auto send = [&](int src, const std::vector<Row>& rows) {
    std::string batch = EncodeBatch(rows, 0, rows.size());
    ASSERT_TRUE(net.channel(src, 0).Send(std::move(batch)).ok());
  };
  // Sources send to node 0 out of source order; the receiver must still see
  // src-0 rows, then src-1, then src-2, each in send order.
  send(2, {{Value(int64_t{20})}, {Value(int64_t{21})}});
  send(0, {{Value(int64_t{0})}, {Value(int64_t{1})}});
  send(0, {{Value(int64_t{2})}});
  send(1, {{Value(int64_t{10})}});
  auto rows = ReceiveAfterClose(&net, 0);
  ASSERT_TRUE(rows.ok());
  std::vector<int64_t> got;
  for (const auto& r : *rows) got.push_back(r[0].AsInt());
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 10, 20, 21}));
}

TEST(ExchangeNetworkTest, BroadcastReachesEveryNodeAndCountsCrossTraffic) {
  const int n = 4;
  ExchangeNetwork net(n, /*batch_rows=*/8);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value(i)});
  ASSERT_TRUE(ScatterRows(&net, 1, rows, std::nullopt).ok());
  const size_t encoded = EncodedBytes(rows, 8);
  for (int dst = 0; dst < n; ++dst) {
    auto got = ReceiveAfterClose(&net, dst);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), rows.size()) << "dst " << dst;
  }
  // Loopback excluded from cross-node accounting: (n-1) copies move.
  EXPECT_EQ(net.CrossNodeBytes(), encoded * (n - 1));
  EXPECT_EQ(net.OutBytes(1), encoded * (n - 1));
  EXPECT_EQ(net.OutBytes(0), 0u);
  EXPECT_EQ(net.InBytes(1), 0u);
  EXPECT_EQ(net.InBytes(2), encoded);
  // ceil(10/8) = 2 batches per destination.
  EXPECT_EQ(net.CrossNodeBatches(), 2u * (n - 1));
  // Stats cover every non-empty channel, loopback included.
  size_t stat_bytes = 0;
  size_t stat_batches = 0;
  for (const auto& s : net.Stats()) {
    stat_bytes += s.bytes;
    stat_batches += s.batches;
  }
  EXPECT_EQ(stat_bytes, encoded * n);
  EXPECT_EQ(stat_batches, 2u * n);
}

/// Runs the exchange loop under the barrier schedule on fresh resources:
/// node i hash-repartitions `rows[i]` on column 0 through `net`.
ExchangeRun RunBarrier(ExchangeNetwork* net,
                       const std::vector<std::vector<Row>>& rows,
                       const std::vector<SimTime>& start,
                       const ExchangeLatencyParams& p,
                       SimScheduler* sched) {
  std::vector<int> res;
  std::vector<std::vector<ScatterInput>> inputs(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    res.push_back(sched->AddResource());
    inputs[i].push_back(ScatterInput{0, &rows[i], 0});
  }
  return RunExchange({net}, inputs, sched, res, start, p,
                     ExchangeSchedule::kBarrier);
}

/// An int64 key that hash-partitions to `node` of `n`.
int64_t KeyFor(int node, int n) {
  for (int64_t k = 0;; ++k) {
    if (HashForPartition(Value(k)) % n == static_cast<uint64_t>(node)) {
      return k;
    }
  }
}

TEST(ExchangeSimTest, ParallelExchangeIsMaxOverSendersNotSum) {
  ExchangeLatencyParams p;  // hop 25, batch 4, kb 2
  auto run = [&](int n) {
    ExchangeNetwork net(n, 64);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 200; ++i) rows.push_back({Value(i), Value(i * 7)});
    std::vector<std::vector<Row>> per_node(static_cast<size_t>(n), rows);
    std::vector<SimTime> start(static_cast<size_t>(n), 100);
    SimScheduler sched;
    ExchangeRun sim = RunBarrier(&net, per_node, start, p, &sched);
    SimTime max_done = 0;
    for (SimTime d : sim.ready) max_done = std::max(max_done, d);
    return max_done - 100;
  };
  SimTime two = run(2);
  SimTime eight = run(8);
  // Each node's send/receive work SHRINKS with n (same rows split n ways) —
  // the parallel exchange must not grow linearly in node count.
  EXPECT_LT(eight, 3 * two);
}

TEST(ExchangeSimTest, NoTrafficChargesNothing) {
  // Nothing moves, so no node is charged anything; each still waits for
  // the other's close, one hop after it.
  ExchangeLatencyParams p;
  ExchangeNetwork net(2);
  SimScheduler sched;
  ExchangeRun sim = RunBarrier(&net, {{}, {}}, {40, 60}, p, &sched);
  EXPECT_EQ(sched.BusyTime(0), 0);
  EXPECT_EQ(sched.BusyTime(1), 0);
  EXPECT_EQ(sim.ready[0], 60 + p.network_hop_us);
  EXPECT_EQ(sim.ready[1], 40 + p.network_hop_us);
  EXPECT_EQ(sim.overlap_us, 0);
}

TEST(ExchangeSimTest, ReceiverWaitsForSlowestSenderPlusHop) {
  ExchangeLatencyParams p;
  // Nodes 1 and 2 ship one small batch each to node 0; node 2 starts late.
  const Row to_node0 = {Value(KeyFor(0, 3))};
  const size_t batch_bytes = EncodeBatch({to_node0}, 0, 1).size();
  ExchangeNetwork net(3);
  SimScheduler sched;
  ExchangeRun sim =
      RunBarrier(&net, {{}, {to_node0}, {to_node0}}, {0, 0, 500}, p, &sched);
  SimTime send_service = ExchangeServiceTime(batch_bytes, 1, p);
  // Node 2 sends at 500..500+s; node 0 decodes after that + one hop.
  SimTime slowest_arrival = 500 + send_service + p.network_hop_us;
  EXPECT_EQ(sim.ready[0],
            slowest_arrival + ExchangeServiceTime(2 * batch_bytes, 2, p));
  EXPECT_EQ(sim.first_consume[0], slowest_arrival);
  // A node that receives nothing still cannot finish before the last close
  // into it arrives: node 2's own close at 500+s, node 2's close at node 1
  // one hop later. No consumer knows in advance that a channel stays empty.
  EXPECT_EQ(sim.ready[2], 500 + send_service);
  EXPECT_EQ(sim.ready[1], slowest_arrival);
  EXPECT_EQ(sim.rows[0][0].size(), 2u);
}

TEST(ExchangeSimTest, BarrierWindowOnlyFillsEvenWhenPopMeetsSend) {
  // Node 1 keeps two 100-byte batches on its loopback channel: nothing is
  // encoded, so both are sent at time 0, and the consumer could reach the
  // first one at time 0 too. Under the barrier schedule nobody pops before
  // every channel has closed, so the second batch finds the 150-byte window
  // holding the first and spills.
  const Row row = {Value(KeyFor(1, 2)), Value(std::string(78, 'w'))};
  ASSERT_EQ(EncodeBatch({row}, 0, 1).size(), 100u);
  SpillBudget budget;
  ExchangeSpillConfig cfg{::testing::TempDir(), &budget};
  ExchangeNetwork net(2, /*batch_rows=*/1, /*max_channel_bytes=*/150, cfg);
  SimScheduler sched;
  ExchangeRun sim =
      RunBarrier(&net, {{}, {row, row}}, {0, 0}, ExchangeLatencyParams{},
                 &sched);
  EXPECT_EQ(net.SpilledBytes(), 100u);
  EXPECT_EQ(net.SpillSegments(), 1u);
  EXPECT_EQ(sim.rows[0][1].size(), 2u);
  EXPECT_EQ(budget.used.load(), 0u);
}

}  // namespace
}  // namespace ofi::cluster::exchange
