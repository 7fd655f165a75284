// Bit-for-bit determinism of the event core, pinned across data-structure
// changes. The simulator's contract (DESIGN.md §9) is that identical seeds
// produce identical runs: same Medium::Stats, same delivered messages in
// the same order with the same timestamps, same energy totals, same event
// count. Two properties are checked over a contended multi-sender scenario:
//
//  1. Repeatability — two runs with the same seeds digest identically.
//  2. Data-structure independence — the spatially-indexed delivery path
//     and the exhaustive dense scan it replaced produce identical runs.
//     The grid holds only listening nodes and must only skip nodes that
//     are provably below the carrier-sense floor or deaf (neither ever
//     consumes an RNG draw), so switching it on is invisible to the
//     simulation. The dense scan polls every node, so it is the oracle
//     for the listener index too: fleets whose radios listen part of
//     the time (RX windows, WUR companions across a brown-out) must
//     match it exactly.
//  3. Thread-count independence — the sharded parallel engine at a
//     fixed shard count produces identical runs for threads={1,2,4}.
//     Shard assignment, per-shard RNG streams and the cross-shard merge
//     order are functions of the shard layout alone; threads only pick
//     which worker executes which shard (sim/parallel.hpp). Because a
//     global delivery order does not exist across concurrent shards,
//     the digest is per-gateway (deterministic within a shard) and
//     combined in gateway order.
//  4. Serial vs sharded — the same builder chain on threads(0) and on
//     8 shards sends exactly the same frames; Wi-LE deliveries agree
//     within the statistical bound of independent per-shard PER streams
//     plus collisions (DESIGN.md §13).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "util/fnv1a.hpp"
#include "wile/receiver.hpp"
#include "wile/scenario.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

struct RunResult {
  sim::Medium::Stats medium_stats;
  std::uint64_t message_digest = 0;
  std::uint64_t messages = 0;
  std::uint64_t events_run = 0;
  double total_energy_j = 0.0;
  /// Frames the fleet's own radios heard (RX windows, WUR wakes); 0 for
  /// transmit-only fleets.
  std::uint64_t fleet_frames_heard = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

// A contended neighbourhood: 25 duty-cycled senders 4 m apart (all well
// within carrier-sense range of each other), CSMA on, jittered wakeups,
// one monitor. Thirty simulated seconds of overlapping cycles exercises
// scheduler churn (CSMA defers/cancels), collisions, and the PER draw
// order — everything that could diverge if event or RNG ordering drifted.
// With `rx_window` set the senders are two-way: each listens after its
// beacon and hears its neighbours' beacons inside the window.
RunResult run_reference_scenario(bool grid_enabled,
                                 std::optional<RxWindow> rx_window = std::nullopt) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD37E12}};
  medium.set_spatial_grid_enabled(grid_enabled);

  Receiver monitor{scheduler, medium, {10, 10}};
  util::Fnv1a digest;
  monitor.set_message_callback([&](const Message& m, const RxMeta& meta) {
    digest.add(m.device_id);
    digest.add(m.sequence);
    digest.add(m.data.size());
    digest.add(m.data);
    digest.add(static_cast<std::uint64_t>(meta.received_at.us()));
  });

  Rng master{0xD7E7E241ULL};
  std::vector<std::unique_ptr<Sender>> senders;
  constexpr int kSide = 5;
  for (int i = 0; i < kSide * kSide; ++i) {
    SenderConfig cfg;
    cfg.device_id = 0x500 + static_cast<std::uint32_t>(i);
    cfg.period = seconds(5);
    cfg.use_csma = true;
    cfg.wake_jitter = msec(200);
    cfg.rx_window = rx_window;
    senders.push_back(std::make_unique<Sender>(
        scheduler, medium,
        sim::Position{static_cast<double>(i % kSide) * 4.0,
                      static_cast<double>(i / kSide) * 4.0},
        cfg, master.fork()));
    senders.back()->start_duty_cycle(
        [i] { return Bytes{static_cast<std::uint8_t>(i), 0xA5, 0x17}; });
  }

  scheduler.run_until(TimePoint{seconds(30)});
  for (auto& s : senders) s->stop_duty_cycle();

  RunResult result;
  result.medium_stats = medium.stats();
  result.message_digest = digest.value();
  result.messages = monitor.stats().messages;
  result.events_run = scheduler.events_run();
  for (const auto& s : senders) {
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{seconds(30)}).value;
  }
  // Every frame on the air is a beacon, so whatever the monitor did not
  // see as one was delivered to a sender.
  result.fleet_frames_heard = result.medium_stats.deliveries - monitor.stats().beacons_seen;
  return result;
}

// A serial WUR fleet with its AP: every companion listens whenever its
// board deep-sleeps, so the listener index changes at every wake. With
// `harvesting`, the whole fleet browns out at 7 s and recharges a few
// seconds later; a companion that is not re-listed on recharge misses
// every later wake on the grid but not on the dense scan. With
// `rx_window`, every sender also opens a main-radio RX window per cycle,
// so the medium files it as 802.11 there and as rate-less while its
// companion listens.
RunResult run_wur_fleet_scenario(bool grid_enabled, bool harvesting,
                                 std::optional<RxWindow> rx_window = std::nullopt) {
  util::Fnv1a digest;
  auto builder = sim::ScenarioBuilder{}
                     .devices(36)
                     .grid_spacing_m(4.0)
                     .gateways(2)
                     .duty_cycle(seconds(2))
                     .wake_jitter(msec(200))
                     .seed(0xD7E7E241ULL)
                     .medium_seed(0xD37E12)
                     .wur(sim::WurFleetOptions{})
                     .telemetry(false)
                     .on_message([&digest](const Message& m, const RxMeta& meta) {
                       digest.add(m.device_id);
                       digest.add(m.sequence);
                       digest.add(m.data.size());
                       digest.add(m.data);
                       digest.add(static_cast<std::uint64_t>(meta.received_at.us()));
                     });
  if (rx_window) {
    builder.configure_sender([rx_window](SenderConfig& cfg, int) { cfg.rx_window = rx_window; });
  }
  if (harvesting) {
    HarvestingConfig h;
    h.harvester.capacitance_f = 20e-3;  // ~109 mJ: about two cycles stored
    h.harvester.harvest_power = Watts{20e-3};
    builder.harvesting(h).configure_faults(
        [](sim::FaultInjector& f) { f.brown_out_all(TimePoint{seconds(7)}); });
  }
  auto scenario = builder.build();
  scenario->medium().set_spatial_grid_enabled(grid_enabled);
  scenario->run_until(TimePoint{seconds(30)});

  RunResult result;
  result.medium_stats = scenario->medium_stats();
  for (const auto& s : scenario->devices()) {
    digest.add(s->wur_wakes());
    digest.add(s->brown_outs());
    result.fleet_frames_heard += s->wur_wakes();
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{seconds(30)}).value;
  }
  digest.add(scenario->wur_ap()->wakes_sent());
  result.message_digest = digest.value();
  result.messages = scenario->messages();
  result.events_run = scenario->events_run();
  if (harvesting) {
    // The scripted brown-out hit, and the fleet came back from it.
    for (const auto& s : scenario->devices()) {
      EXPECT_EQ(s->brown_outs(), 1u);
      EXPECT_FALSE(s->recovering());
    }
  }
  return result;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalRuns) {
  const RunResult a = run_reference_scenario(/*grid_enabled=*/true);
  const RunResult b = run_reference_scenario(/*grid_enabled=*/true);

  EXPECT_EQ(a.medium_stats.transmissions, b.medium_stats.transmissions);
  EXPECT_EQ(a.medium_stats.deliveries, b.medium_stats.deliveries);
  EXPECT_EQ(a.medium_stats.collision_losses, b.medium_stats.collision_losses);
  EXPECT_EQ(a.medium_stats.channel_losses, b.medium_stats.channel_losses);
  EXPECT_EQ(a.message_digest, b.message_digest);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);  // bit-exact, not NEAR
}

void expect_grid_matches_dense(const RunResult& grid, const RunResult& dense) {
  EXPECT_EQ(grid.medium_stats.transmissions, dense.medium_stats.transmissions);
  EXPECT_EQ(grid.medium_stats.deliveries, dense.medium_stats.deliveries);
  EXPECT_EQ(grid.medium_stats.collision_losses, dense.medium_stats.collision_losses);
  EXPECT_EQ(grid.medium_stats.channel_losses, dense.medium_stats.channel_losses);
  EXPECT_EQ(grid.message_digest, dense.message_digest);
  EXPECT_EQ(grid.messages, dense.messages);
  EXPECT_EQ(grid.events_run, dense.events_run);
  EXPECT_EQ(grid.total_energy_j, dense.total_energy_j);
  EXPECT_EQ(grid.fleet_frames_heard, dense.fleet_frames_heard);
}

TEST(Determinism, SpatialGridMatchesDenseScanExactly) {
  {
    SCOPED_TRACE("transmit-only senders");
    expect_grid_matches_dense(run_reference_scenario(/*grid_enabled=*/true),
                              run_reference_scenario(/*grid_enabled=*/false));
  }
  {
    SCOPED_TRACE("two-way senders with RX windows");
    const RxWindow window{msec(2), msec(300)};
    const RunResult grid = run_reference_scenario(/*grid_enabled=*/true, window);
    expect_grid_matches_dense(grid, run_reference_scenario(/*grid_enabled=*/false, window));
    EXPECT_GT(grid.fleet_frames_heard, 50u);
  }
  {
    SCOPED_TRACE("WUR fleet");
    const RunResult grid = run_wur_fleet_scenario(/*grid_enabled=*/true, false);
    expect_grid_matches_dense(grid, run_wur_fleet_scenario(/*grid_enabled=*/false, false));
    EXPECT_GT(grid.fleet_frames_heard, 100u);
  }
  {
    SCOPED_TRACE("WUR harvesting fleet across a brown-out and recharge");
    const RunResult grid = run_wur_fleet_scenario(/*grid_enabled=*/true, true);
    expect_grid_matches_dense(grid, run_wur_fleet_scenario(/*grid_enabled=*/false, true));
    EXPECT_GT(grid.fleet_frames_heard, 100u);
  }
  {
    SCOPED_TRACE("WUR fleet with RX windows: filed under both waveform classes in turn");
    const RxWindow window{msec(2), msec(300)};
    const RunResult grid = run_wur_fleet_scenario(/*grid_enabled=*/true, false, window);
    expect_grid_matches_dense(grid,
                              run_wur_fleet_scenario(/*grid_enabled=*/false, false, window));
    EXPECT_GT(grid.fleet_frames_heard, 100u);
  }
}

// Same contended-neighbourhood shape as run_reference_scenario, but on
// the sharded engine: 100 CSMA senders 4 m apart striped over 8 shards
// (stripe width 5 m, audible radius ~25 m — nearly every transmission
// crosses multiple stripes, the worst case for cross-shard commit).
RunResult run_sharded_scenario(unsigned threads) {
  auto scenario =
      sim::ScenarioBuilder{}
          .devices(100)
          .grid_spacing_m(4.0)
          .gateways(4)
          .duty_cycle(seconds(5))
          .wake_jitter(msec(200))
          .seed(0xD7E7E241ULL)
          .medium_seed(0xD37E12)
          .configure_sender([](SenderConfig& cfg, int) { cfg.use_csma = true; })
          .threads(threads)
          .shards(8)
          .window(msec(10))
          .telemetry(false)
          .build();

  // Per-gateway digests: each gateway fires only on its owning shard's
  // thread, and each writes its own preallocated slot — no shared
  // mutable state between workers.
  auto& gateways = scenario->gateways();
  std::vector<util::Fnv1a> digests(gateways.size());
  for (std::size_t k = 0; k < gateways.size(); ++k) {
    gateways[k]->set_message_callback(
        [slot = &digests[k]](const Message& m, const RxMeta& meta) {
          slot->add(m.device_id);
          slot->add(m.sequence);
          slot->add(m.data.size());
          slot->add(m.data);
          slot->add(static_cast<std::uint64_t>(meta.received_at.us()));
        });
  }

  scenario->run_for(seconds(30));
  scenario->stop_all();

  RunResult result;
  result.medium_stats = scenario->medium_stats();
  util::Fnv1a combined;
  for (const util::Fnv1a& d : digests) combined.add(d.value());
  result.message_digest = combined.value();
  for (const auto& gw : gateways) result.messages += gw->stats().messages;
  result.events_run = scenario->events_run();
  for (const auto& s : scenario->devices()) {
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{seconds(30)}).value;
  }
  return result;
}

TEST(Determinism, ShardedEngineIsThreadCountIndependent) {
  const RunResult one = run_sharded_scenario(1);
  const RunResult two = run_sharded_scenario(2);
  const RunResult four = run_sharded_scenario(4);

  // Traffic sanity first: digests of a dead fleet prove nothing.
  EXPECT_GT(one.medium_stats.transmissions, 100u);
  EXPECT_GT(one.messages, 50u);

  for (const RunResult* other : {&two, &four}) {
    EXPECT_EQ(one.medium_stats.transmissions, other->medium_stats.transmissions);
    EXPECT_EQ(one.medium_stats.deliveries, other->medium_stats.deliveries);
    EXPECT_EQ(one.medium_stats.collision_losses,
              other->medium_stats.collision_losses);
    EXPECT_EQ(one.medium_stats.channel_losses, other->medium_stats.channel_losses);
    EXPECT_EQ(one.message_digest, other->message_digest);
    EXPECT_EQ(one.messages, other->messages);
    EXPECT_EQ(one.events_run, other->events_run);
    EXPECT_EQ(one.total_energy_j, other->total_energy_j);  // bit-exact, not NEAR
  }
}

TEST(Determinism, ShardedEngineIsRepeatable) {
  const RunResult a = run_sharded_scenario(2);
  const RunResult b = run_sharded_scenario(2);
  EXPECT_EQ(a, b);
}

// The WUR mode on the sharded engine: the AP lives on one shard and its
// wake frames reach companions on every other shard through the same
// boundary-phantom path data frames use (RemoteTx carries the rate-less
// OOK waveform's explicit airtime). Wake order, companion RNG streams
// and the woken devices' uplinks must all be functions of the shard
// layout alone, never of the thread count.
RunResult run_sharded_wur_scenario(unsigned threads) {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(100)
                      .grid_spacing_m(4.0)
                      .gateways(4)
                      .duty_cycle(seconds(5))
                      .wake_jitter(msec(200))
                      .seed(0xD7E7E241ULL)
                      .medium_seed(0xD37E12)
                      .wur(sim::WurFleetOptions{})
                      .threads(threads)
                      .shards(8)
                      .window(msec(10))
                      .telemetry(false)
                      .build();

  auto& gateways = scenario->gateways();
  std::vector<util::Fnv1a> digests(gateways.size());
  for (std::size_t k = 0; k < gateways.size(); ++k) {
    gateways[k]->set_message_callback(
        [slot = &digests[k]](const Message& m, const RxMeta& meta) {
          slot->add(m.device_id);
          slot->add(m.sequence);
          slot->add(m.data.size());
          slot->add(m.data);
          slot->add(static_cast<std::uint64_t>(meta.received_at.us()));
        });
  }

  scenario->run_for(seconds(30));
  scenario->stop_all();

  RunResult result;
  result.medium_stats = scenario->medium_stats();
  util::Fnv1a combined;
  for (const util::Fnv1a& d : digests) combined.add(d.value());
  combined.add(scenario->wur_ap()->wakes_sent());
  for (const auto& s : scenario->devices()) combined.add(s->wur_wakes());
  result.message_digest = combined.value();
  for (const auto& gw : gateways) result.messages += gw->stats().messages;
  result.events_run = scenario->events_run();
  for (const auto& s : scenario->devices()) {
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{seconds(30)}).value;
  }
  return result;
}

TEST(Determinism, WurShardedEngineIsThreadCountIndependent) {
  const RunResult one = run_sharded_wur_scenario(1);
  const RunResult two = run_sharded_wur_scenario(2);
  const RunResult four = run_sharded_wur_scenario(4);

  // Traffic sanity first: the AP must actually be waking companions.
  EXPECT_GT(one.medium_stats.transmissions, 100u);
  EXPECT_GT(one.messages, 50u);

  for (const RunResult* other : {&two, &four}) {
    EXPECT_EQ(one.medium_stats.transmissions, other->medium_stats.transmissions);
    EXPECT_EQ(one.medium_stats.deliveries, other->medium_stats.deliveries);
    EXPECT_EQ(one.medium_stats.collision_losses,
              other->medium_stats.collision_losses);
    EXPECT_EQ(one.medium_stats.channel_losses, other->medium_stats.channel_losses);
    EXPECT_EQ(one.message_digest, other->message_digest);
    EXPECT_EQ(one.messages, other->messages);
    EXPECT_EQ(one.events_run, other->events_run);
    EXPECT_EQ(one.total_energy_j, other->total_energy_j);  // bit-exact, not NEAR
  }
}

TEST(Determinism, WurShardedEngineIsRepeatable) {
  const RunResult a = run_sharded_wur_scenario(2);
  const RunResult b = run_sharded_wur_scenario(2);
  EXPECT_EQ(a, b);
}

// One fleet, two engines: 2000 devices on the default 5 m grid with a
// gateway per 20 devices, 120 simulated seconds, at threads(0) and at
// threads(2) over 8 shards.
sim::Medium::Stats run_on_engine(TxMode mode, unsigned threads) {
  auto builder =
      sim::ScenarioBuilder{}.mode(mode).devices(2000).gateway_every(20).telemetry(false);
  if (threads > 0) builder.threads(threads).shards(8);
  auto scenario = builder.build();
  scenario->run_until(TimePoint{seconds(120)});
  return scenario->medium_stats();
}

TEST(Determinism, ShardedWiLeAgreesWithSerialWithinLossBound) {
  const sim::Medium::Stats serial = run_on_engine(TxMode::WiLeBeacon, 0);
  const sim::Medium::Stats sharded = run_on_engine(TxMode::WiLeBeacon, 2);
  EXPECT_GT(serial.transmissions, 1000u);
  EXPECT_EQ(serial.transmissions, sharded.transmissions);

  // Each shard draws its own PER stream, so the engines' loss draws are
  // two independent binomials over the serial run's decode attempts;
  // allow four standard deviations of their difference, plus every
  // collision loss on either engine (a cross-stripe frame commits at the
  // next window barrier and may collide differently).
  const auto d_serial = static_cast<double>(serial.deliveries);
  const double attempts = d_serial + static_cast<double>(serial.channel_losses);
  ASSERT_GT(attempts, 0.0);
  const double p = d_serial / attempts;
  const double bound =
      4.0 * std::sqrt(2.0 * attempts * p * (1.0 - p)) +
      static_cast<double>(serial.collision_losses + sharded.collision_losses);
  EXPECT_LE(std::fabs(d_serial - static_cast<double>(sharded.deliveries)), bound);
}

TEST(Determinism, ShardedBleSendsWhatSerialSends) {
  // Deliveries are not bounded here: the always-listening scanner hears
  // cross-stripe frames only at window barriers, where they collide far
  // more often than on the serial engine (DESIGN.md §13).
  const sim::Medium::Stats serial = run_on_engine(TxMode::Ble, 0);
  const sim::Medium::Stats sharded = run_on_engine(TxMode::Ble, 2);
  EXPECT_GT(serial.transmissions, 1000u);
  EXPECT_EQ(serial.transmissions, sharded.transmissions);
}

TEST(Determinism, ScenarioActuallyExercisesTheMedium) {
  // Guard against the scenario silently degenerating (e.g. everyone out
  // of range): the digests above are only meaningful if traffic flowed
  // and contention happened.
  const RunResult r = run_reference_scenario(/*grid_enabled=*/true);
  EXPECT_GT(r.medium_stats.transmissions, 100u);
  EXPECT_GT(r.messages, 100u);
  EXPECT_GT(r.events_run, 1000u);
  EXPECT_GT(r.total_energy_j, 0.0);
}

}  // namespace
}  // namespace wile::core
