// Sharded parallel engine: partition edge cases, cross-shard frame
// exchange, and the atomic refcount under genuine thread contention.
//
// The determinism story (threads={1,2,4} bit-exact at a fixed shard
// count) lives in test_determinism.cpp; this file covers the pieces it
// stands on — stripe assignment at exact boundaries, audible circles
// spanning 3+ stripes, degenerate shard layouts with empty stripes,
// phantom (remote) transmissions delivering without perturbing local
// bookkeeping, the outbox handoff between windows, the same per-node and
// medium metric names on both engines, and the atomic FrameBuffer
// refcount under real concurrent copies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/medium.hpp"
#include "sim/parallel.hpp"
#include "util/frame_buffer.hpp"
#include "wile/scenario.hpp"

namespace wile::sim {
namespace {

struct RecordingClient : MediumClient {
  int frames = 0;
  int corrupt = 0;
  bool rx_on = true;
  void on_frame(const RxFrame&) override { ++frames; }
  void on_corrupt_frame(const RxFrame&, bool) override { ++corrupt; }
  [[nodiscard]] bool rx_enabled() const override { return rx_on; }
};

// --- stripe partition edge cases --------------------------------------------

TEST(ShardRouter, NodeExactlyOnBoundaryGoesToTheRightStripe) {
  ShardRouter router{8, 0.0, 80.0};  // stripe width 10 m
  EXPECT_EQ(router.shard_of(0.0), 0u);
  EXPECT_EQ(router.shard_of(9.999), 0u);
  // x == a stripe edge belongs to the stripe starting there, matching
  // the half-open [x0, x1) span contract.
  EXPECT_EQ(router.shard_of(10.0), 1u);
  EXPECT_EQ(router.shard_of(70.0), 7u);
  // The extent's right edge and anything beyond clamp into the last
  // stripe; anything left of the extent clamps into the first.
  EXPECT_EQ(router.shard_of(80.0), 7u);
  EXPECT_EQ(router.shard_of(1e9), 7u);
  EXPECT_EQ(router.shard_of(-5.0), 0u);

  const auto [s0, s1] = router.span(3);
  EXPECT_DOUBLE_EQ(s0, 30.0);
  EXPECT_DOUBLE_EQ(s1, 40.0);
  // A node sitting exactly at span(3).second is owned by shard 4.
  EXPECT_EQ(router.shard_of(s1), 4u);
}

TEST(ShardRouter, AudibleRadiusSpanningManyStripesReachesEveryOne) {
  ShardRouter router{8, 0.0, 80.0};  // stripe width 10 m
  RemoteTx tx;
  tx.origin_node = 1;
  tx.origin = Position{35.0, 0.0};  // inside stripe 3
  tx.audible_range_m = 25.0;        // circle covers [10, 60] -> stripes 1..6
  tx.mpdu = FrameBuffer{Bytes{0xAB}};
  router.route(3, tx);

  std::vector<BoundaryTx> inbox;
  for (std::size_t dst = 0; dst < 8; ++dst) {
    inbox.clear();
    router.drain(dst, inbox);
    const bool expect_copy = dst >= 1 && dst <= 6 && dst != 3;
    EXPECT_EQ(inbox.size(), expect_copy ? 1u : 0u) << "stripe " << dst;
    if (expect_copy) {
      EXPECT_EQ(inbox[0].origin_shard, 3u);
      EXPECT_EQ(inbox[0].tx.origin_node, 1u);
    }
  }
  EXPECT_EQ(router.routed_from(3), 5u);
}

TEST(ShardRouter, DrainMergesIntoCanonicalOrder) {
  ShardRouter router{4, 0.0, 40.0};
  auto make = [](double x, std::int64_t start_us) {
    RemoteTx tx;
    tx.origin = Position{x, 0.0};
    tx.audible_range_m = 50.0;  // reaches every stripe
    tx.start = TimePoint{usec(start_us)};
    return tx;
  };
  // Push out of order from two origins; drain must sort by (start,
  // origin_shard, seq) regardless of arrival interleaving.
  router.route(2, make(25.0, 700));
  router.route(0, make(5.0, 300));
  router.route(2, make(25.0, 300));
  router.route(0, make(5.0, 900));

  std::vector<BoundaryTx> inbox;
  router.drain(1, inbox);
  ASSERT_EQ(inbox.size(), 4u);
  EXPECT_EQ(inbox[0].tx.start.us(), 300);
  EXPECT_EQ(inbox[0].origin_shard, 0u);  // start tie: lower origin first
  EXPECT_EQ(inbox[1].tx.start.us(), 300);
  EXPECT_EQ(inbox[1].origin_shard, 2u);
  EXPECT_EQ(inbox[2].tx.start.us(), 700);
  EXPECT_EQ(inbox[3].tx.start.us(), 900);
}

TEST(ShardRouter, EachRoutedFrameIsDrainedOnceAndReleased) {
  const std::uint64_t live_before = FrameBuffer::live_buffers();
  ShardRouter router{4, 0.0, 40.0};  // stripe width 10 m
  // Origin A sits in stripe 0 and reaches stripes 1 and 2; origin B sits
  // in stripe 2 and reaches stripes 1 and 3. Stripe 1 hears both.
  auto from_a = [](std::int64_t start_us, std::uint8_t tag) {
    RemoteTx tx;
    tx.origin = Position{8.0, 0.0};
    tx.audible_range_m = 14.0;  // [-6, 22]
    tx.start = TimePoint{usec(start_us)};
    tx.mpdu = FrameBuffer{Bytes{tag}};
    return tx;
  };
  auto from_b = [](std::int64_t start_us, std::uint8_t tag) {
    RemoteTx tx;
    tx.origin = Position{25.0, 0.0};
    tx.audible_range_m = 9.0;  // [16, 34]
    tx.start = TimePoint{usec(start_us)};
    tx.mpdu = FrameBuffer{Bytes{tag}};
    return tx;
  };
  std::vector<BoundaryTx> inboxes[4];
  auto drain_all = [&] {
    for (std::size_t dst = 0; dst < 4; ++dst) {
      inboxes[dst].clear();
      router.drain(dst, inboxes[dst]);
    }
  };
  auto tags = [&inboxes](std::size_t dst) {
    std::vector<int> out;
    for (const BoundaryTx& b : inboxes[dst]) out.push_back(b.tx.mpdu[0]);
    return out;
  };
  using Tags = std::vector<int>;

  router.route(0, from_a(500, 1));
  router.route(2, from_b(200, 2));
  router.route(0, from_a(200, 3));
  drain_all();
  // Each destination holds each frame that reached it exactly once, in
  // canonical (start, origin_shard, seq) order: the start tie at 200 us
  // goes to the lower origin.
  EXPECT_EQ(tags(0), Tags{});
  EXPECT_EQ(tags(1), (Tags{3, 2, 1}));
  EXPECT_EQ(tags(2), (Tags{3, 1}));
  EXPECT_EQ(tags(3), Tags{2});
  EXPECT_EQ(router.routed_from(0), 4u);  // two frames x stripes {1, 2}
  EXPECT_EQ(router.routed_from(1), 0u);
  EXPECT_EQ(router.routed_from(2), 2u);  // one frame x stripes {1, 3}
  EXPECT_EQ(router.routed_from(3), 0u);

  // A second drain finds every outbox empty.
  drain_all();
  for (std::size_t dst = 0; dst < 4; ++dst) EXPECT_EQ(tags(dst), Tags{}) << dst;

  // The next window's traffic arrives alone, in canonical order: the
  // start tie at 900 us goes to the lower origin, then the lower seq.
  router.route(2, from_b(900, 4));
  router.route(0, from_a(900, 5));
  router.route(2, from_b(800, 6));
  router.route(0, from_a(900, 7));
  drain_all();
  EXPECT_EQ(tags(0), Tags{});
  EXPECT_EQ(tags(1), (Tags{6, 5, 7, 4}));
  EXPECT_EQ(tags(2), (Tags{5, 7}));
  EXPECT_EQ(tags(3), (Tags{6, 4}));
  EXPECT_EQ(router.routed_from(0), 8u);
  EXPECT_EQ(router.routed_from(2), 6u);

  // Only the inboxes still hold payloads; no outbox keeps one alive.
  EXPECT_EQ(FrameBuffer::live_buffers(), live_before + 4);
  for (auto& inbox : inboxes) inbox.clear();
  EXPECT_EQ(FrameBuffer::live_buffers(), live_before);
}

// --- boundary hook + phantom injection --------------------------------------

TEST(MediumSharding, BoundaryHookFiresOnlyWhenTheCircleEscapesTheSpan) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{7}};
  RecordingClient inner_client;
  RecordingClient edge_client;
  // A 0 dBm transmission is audible ~25 m; give the span enough width
  // that a centered node stays inside and an edge node escapes.
  const NodeId inner = medium.attach(&inner_client, Position{500.0, 0.0});
  const NodeId edge = medium.attach(&edge_client, Position{995.0, 0.0});
  medium.set_owned_span(0.0, 1000.0);
  std::vector<RemoteTx> crossed;
  medium.set_boundary_hook([&](const RemoteTx& tx) { crossed.push_back(tx); });

  TxRequest req;
  req.mpdu = Bytes{1, 2, 3};
  req.airtime = usec(500);
  req.tx_power_dbm = 0.0;
  medium.transmit(inner, std::move(req));
  scheduler.run_until(TimePoint{usec(1000)});
  EXPECT_TRUE(crossed.empty()) << "interior transmission should not cross";

  TxRequest req2;
  req2.mpdu = Bytes{4, 5, 6};
  req2.airtime = usec(500);
  req2.tx_power_dbm = 0.0;
  medium.transmit(edge, std::move(req2));
  scheduler.run_until(TimePoint{usec(2000)});
  ASSERT_EQ(crossed.size(), 1u);
  EXPECT_EQ(crossed[0].origin_node, edge);
  EXPECT_DOUBLE_EQ(crossed[0].origin.x_m, 995.0);
  EXPECT_GT(crossed[0].audible_range_m, 5.0);
}

TEST(MediumSharding, InjectedRemoteDeliversWithoutLocalBookkeeping) {
  Scheduler sched_a;
  Scheduler sched_b;
  Medium med_a{sched_a, phy::Channel{}, Rng{1}};
  Medium med_b{sched_b, phy::Channel{}, Rng{2}};
  RecordingClient tx_client;
  RecordingClient rx_client;
  const NodeId a = med_a.attach(&tx_client, Position{9.5, 0.0});
  med_b.attach(&rx_client, Position{10.5, 0.0});
  med_a.set_owned_span(0.0, 10.0);
  std::vector<RemoteTx> crossed;
  med_a.set_boundary_hook([&](const RemoteTx& tx) { crossed.push_back(tx); });

  TxRequest req;
  req.mpdu = Bytes{0xDE, 0xAD};
  req.airtime = usec(400);
  req.tx_power_dbm = 0.0;
  med_a.transmit(a, std::move(req));
  ASSERT_EQ(crossed.size(), 1u);

  med_b.inject_remote(crossed[0]);
  EXPECT_EQ(med_b.active_transmissions(), 1u);
  // Phantom occupies the channel for carrier sense at the local node.
  EXPECT_TRUE(med_b.carrier_busy(0));

  sched_b.run_until(TimePoint{usec(1000)});
  // 1 m link, huge SNR: the frame arrives (as a decode or, at worst, a
  // channel-loss draw) exactly once.
  EXPECT_EQ(rx_client.frames + rx_client.corrupt, 1);
  EXPECT_EQ(rx_client.frames, 1);
  // The phantom is not a local transmission: the origin shard counted
  // it, the receiving shard only counts the delivery.
  EXPECT_EQ(med_b.stats().transmissions, 0u);
  EXPECT_EQ(med_b.stats().deliveries, 1u);
  EXPECT_EQ(med_b.active_transmissions(), 0u);

  sched_a.run_until(TimePoint{usec(1000)});
  EXPECT_EQ(med_a.stats().transmissions, 1u);
}

TEST(MediumSharding, LateInjectedRemoteDeliversAtInjectionTime) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{3}};
  RecordingClient rx_client;
  medium.attach(&rx_client, Position{1.0, 0.0});
  scheduler.run_until(TimePoint{msec(10)});  // barrier time: frame already over

  RemoteTx tx;
  tx.origin_node = 42;
  tx.origin = Position{0.0, 0.0};
  tx.start = TimePoint{usec(100)};
  tx.end = TimePoint{usec(600)};  // ended 9.4 ms ago
  tx.tx_power_dbm = 0.0;
  tx.audible_range_m = 25.0;
  tx.mpdu = FrameBuffer{Bytes{0x01}};
  tx.airtime = usec(500);
  medium.inject_remote(tx);  // must not throw "scheduled in the past"
  scheduler.run_until(TimePoint{msec(11)});
  EXPECT_EQ(rx_client.frames + rx_client.corrupt, 1);
}

// --- degenerate shard layouts ------------------------------------------------

TEST(ParallelScenario, ShardCountExceedingOccupiedStripesStillRuns) {
  // Nine devices clustered in the leftmost stripes of a 6-shard layout:
  // most shards own nothing and must still advance through every window
  // without wedging the barrier.
  auto scenario = ScenarioBuilder{}
                      .devices(9)
                      .grid_spacing_m(1.5)
                      .duty_cycle(seconds(5))
                      .threads(2)
                      .shards(6)
                      .window(msec(10))
                      .per_node_metrics(false)
                      .build();
  scenario->run_for(seconds(20));
  scenario->stop_all();

  ASSERT_TRUE(scenario->parallel());
  const auto& stats = scenario->parallel_engine()->shard_stats();
  ASSERT_EQ(stats.size(), 6u);
  for (std::size_t s = 0; s < stats.size(); ++s) {
    EXPECT_EQ(stats[s].windows, 2000u) << "shard " << s;  // 20 s / 10 ms
  }
  EXPECT_GT(scenario->medium_stats().transmissions, 0u);
  EXPECT_GT(scenario->messages(), 0u);
  EXPECT_EQ(scenario->now(), TimePoint{seconds(20)});
}

TEST(ParallelScenario, ShardsReadOneSharedProfile) {
  // Every device of both shards runs on one profile, whose codec seals
  // each beacon with the fleet's AES key schedule, so two worker threads
  // read it at once. The results do not depend on the thread count.
  const Bytes key(16, 0x42);
  const auto run = [&key](unsigned threads) {
    auto scenario = ScenarioBuilder{}
                        .devices(64)
                        .gateways(2)
                        .duty_cycle(seconds(5))
                        .threads(threads)
                        .shards(2)
                        .configure_sender(
                            [&key](core::SenderConfig& cfg, int) { cfg.key = key; })
                        .configure_gateway(
                            [&key](core::ReceiverConfig& cfg, int) { cfg.key = key; })
                        .build();
    const core::SenderProfile* profile = &scenario->devices().front()->profile();
    for (const auto& d : scenario->devices()) EXPECT_EQ(&d->profile(), profile);
    EXPECT_TRUE(profile->codec.encrypted());
    scenario->run_for(seconds(30));
    return std::pair{scenario->messages(), scenario->medium_stats().transmissions};
  };
  const auto two = run(2);
  EXPECT_GT(two.first, 0u);
  EXPECT_EQ(two, run(1));
}

TEST(ParallelScenario, NarrowGridPlacesGatewayLikeSerial) {
  // A 0.5 m fleet is narrower than the router's minimum 1 m span. The
  // clamp widens the stripes only; the default gateway still sits on
  // the true grid diagonal, so the first delivery's RSSI (a pure
  // function of distance) matches the serial engine's exactly.
  const auto first_rssi = [](unsigned threads) {
    std::optional<double> rssi;
    auto builder = ScenarioBuilder{}
                       .devices(1)
                       .grid_spacing_m(0.5)
                       .duty_cycle(seconds(5))
                       .telemetry(false)
                       .on_message([&rssi](const core::Message&, const core::RxMeta& meta) {
                         if (!rssi) rssi = meta.rssi_dbm;
                       });
    if (threads > 0) builder.threads(threads).shards(2);
    auto scenario = builder.build();
    scenario->run_for(seconds(20));
    return rssi;
  };
  const std::optional<double> serial = first_rssi(0);
  const std::optional<double> sharded = first_rssi(1);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(*serial, *sharded);
}

TEST(ParallelScenario, PerNodeMetricsNameTheSameNodesAsSerial) {
  // Every shard numbers its own nodes from 0, so per-node metric names
  // must come from the fleet-wide index, not the shard-local NodeId.
  const auto node_metrics = [](unsigned threads) {
    auto builder = ScenarioBuilder{}.devices(16).gateways(2);
    if (threads > 0) builder.threads(threads).shards(4);
    auto scenario = builder.build();
    std::vector<std::string> names;
    for (const auto& v : scenario->snapshot().values) {
      if (v.name.rfind("node.", 0) == 0) names.push_back(v.name);
    }
    return names;
  };
  const std::vector<std::string> serial = node_metrics(0);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, node_metrics(1));
}

TEST(ParallelScenario, MediumMetricsAreTheSameOnBothEngines) {
  // The medium's aggregates are bound once, over the event cores, so the
  // sharded export carries every name (and impairment value) the serial
  // one does.
  const auto medium_metrics = [](unsigned threads) {
    auto builder = ScenarioBuilder{}.devices(16).gateways(2);
    if (threads > 0) builder.threads(threads).shards(4);
    auto scenario = builder.build();
    std::vector<std::pair<std::string, double>> gauges;
    for (const auto& v : scenario->snapshot().values) {
      if (v.name.rfind("medium.", 0) == 0) gauges.emplace_back(v.name, v.value);
    }
    return gauges;
  };
  const auto serial = medium_metrics(0);
  EXPECT_EQ(serial.size(), 8u);
  EXPECT_EQ(serial, medium_metrics(1));
}

TEST(ParallelScenario, SerialOnlySubsystemsAreRejected) {
  auto scenario = ScenarioBuilder{}
                      .devices(4)
                      .threads(1)
                      .shards(4)
                      .per_node_metrics(false)
                      .build();
  EXPECT_THROW((void)scenario->scheduler(), std::logic_error);
  EXPECT_THROW((void)scenario->medium(), std::logic_error);
  EXPECT_THROW((void)scenario->faults(), std::logic_error);
  EXPECT_THROW((void)scenario->chaos_targets(), std::logic_error);

  EXPECT_THROW(ScenarioBuilder{}.devices(4).threads(2).trace(true).build(),
               std::invalid_argument);
  EXPECT_THROW(
      ScenarioBuilder{}.devices(4).threads(2).sample_every(seconds(1)).build(),
      std::invalid_argument);
}

TEST(ParallelScenario, DegenerateChannelIsRejectedOnEveryEngine) {
  // Every core's Medium takes its model from phy::Channel's constructor,
  // which refuses a channel with no finite audible range.
  phy::ChannelConfig flat;
  flat.path_loss_exponent = 0.0;
  EXPECT_THROW(ScenarioBuilder{}.devices(4).channel(flat).build(), std::invalid_argument);
  EXPECT_THROW(ScenarioBuilder{}.devices(4).threads(2).channel(flat).build(),
               std::invalid_argument);
}

// --- atomic refcount under contention ---------------------------------------

TEST(FrameBuffer, RefcountSurvivesThreadedCopyChurn) {
  const std::uint64_t live_before = FrameBuffer::live_buffers();
  {
    FrameBuffer shared{Bytes(64, 0x5A)};
    constexpr int kThreads = 4;
    constexpr int kIterations = 50'000;
    std::atomic<bool> start{false};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kIterations; ++i) {
          FrameBuffer copy = shared;          // relaxed increment
          FrameBuffer second = copy;           // and again
          ASSERT_EQ(second.size(), 64u);
          ASSERT_EQ(second[0], 0x5A);
          // both copies release on scope exit (acq-rel decrement)
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    EXPECT_EQ(shared.owners(), 1);
    EXPECT_EQ(FrameBuffer::live_buffers(), live_before + 1);
  }
  EXPECT_EQ(FrameBuffer::live_buffers(), live_before);
}

}  // namespace
}  // namespace wile::sim
