// Intermittent-power senders (DESIGN.md §11): capacitor harvester,
// brown-out checkpointing, and energy starvation as a first-class fault.
//
// Pins the contracts the harvesting subsystem promises:
//  * Harvester arithmetic — exact integration, clamping, fade
//    stack/unwind, time_to_reach as the exact inverse of advance;
//  * a mid-cycle brown-out checkpoints the in-flight message and the
//    recharged device RESUMES it (same sequence, no duplicate at the
//    receiver, no lost sample) instead of restarting the cycle;
//  * bounded staleness — a checkpoint older than max_checkpoint_age is
//    discarded on recharge and its sequence stays consumed (receivers
//    see an honest gap, not a stale reading);
//  * the wake gate skips cycles the capacitor cannot fund, so devices
//    degrade to a lower report rate instead of browning out mid-flight;
//  * a browned-out board refuses send_now until it has recharged;
//  * fleet-wide RF droughts (FaultInjector) degrade gracefully and
//    recover once the fade lifts;
//  * same-seed harvesting runs are bit-exact, and telemetry (whose
//    charge gauge reads projected_charge) never perturbs them;
//  * ScenarioBuilder fault wiring — configure_faults + automatic
//    energy-target registration — is bit-identical to hand wiring;
//  * satellite: the gateway's reconnect backoff adds a seeded one-shot
//    desync spread after an uplink loss.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ap/access_point.hpp"
#include "power/harvester.hpp"
#include "sim/fault.hpp"
#include "util/fnv1a.hpp"
#include "wile/gateway.hpp"
#include "wile/receiver.hpp"
#include "wile/scenario.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

// --- harvester arithmetic ---------------------------------------------------

power::HarvesterConfig small_cap() {
  power::HarvesterConfig cfg;
  cfg.capacitance_f = 1e-3;  // 5.445 mJ at 3.3 V
  cfg.initial_charge_fraction = 0.5;
  cfg.harvest_power = microwatts(100);
  cfg.leakage = microwatts(1);
  return cfg;
}

TEST(Harvester, IntegratesNetInputAndClamps) {
  power::Harvester h{small_cap()};
  const double cap_j = h.capacity().value;
  EXPECT_NEAR(cap_j, 0.5 * 1e-3 * 3.3 * 3.3, 1e-12);
  EXPECT_NEAR(h.charge().value, cap_j / 2, 1e-12);

  // 10 s of (100 - 1) uW net input.
  h.advance(seconds(10), Joules{0});
  EXPECT_NEAR(h.charge().value, cap_j / 2 + 99e-6 * 10, 1e-12);

  // Long idle clamps at capacity; a huge draw clamps at zero.
  h.advance(seconds(3600), Joules{0});
  EXPECT_DOUBLE_EQ(h.charge().value, cap_j);
  h.advance(seconds(1), Joules{1.0});
  EXPECT_DOUBLE_EQ(h.charge().value, 0.0);
  EXPECT_TRUE(h.empty());
}

TEST(Harvester, FadesStackMultiplicativelyAndUnwindExactly) {
  power::Harvester h{small_cap()};
  EXPECT_DOUBLE_EQ(h.fade_scale(), 1.0);
  h.push_fade(0.5);
  h.push_fade(0.2);
  EXPECT_DOUBLE_EQ(h.fade_scale(), 0.1);
  EXPECT_NEAR(h.net_input().value, 100e-6 * 0.1 - 1e-6, 1e-15);
  h.pop_fade(0.5);
  EXPECT_DOUBLE_EQ(h.fade_scale(), 0.2);
  h.pop_fade(0.2);
  // Exact, not approximate: the product is recomputed from survivors.
  EXPECT_DOUBLE_EQ(h.fade_scale(), 1.0);
  EXPECT_NEAR(h.net_input().value, 99e-6, 1e-15);
}

TEST(Harvester, TimeToReachInvertsAdvance) {
  power::HarvesterConfig cfg = small_cap();
  cfg.initial_charge_fraction = 0.0;
  power::Harvester h{cfg};
  const Joules target{h.capacity().value / 2};

  const Duration dt = h.time_to_reach(target);
  ASSERT_NE(dt, Duration::max());
  h.advance(dt, Joules{0});
  // Ceil-to-microsecond rounding can only overshoot.
  EXPECT_GE(h.charge().value, target.value);
  EXPECT_NEAR(h.charge().value, target.value, 99e-6 * 2e-6 + 1e-12);

  // A drought (fade to zero) leaves net input negative: never reaches.
  h.push_fade(0.0);
  EXPECT_LT(h.net_input().value, 0.0);
  EXPECT_EQ(h.time_to_reach(h.capacity()), Duration::max());
}

// --- brown-out checkpoint / resume ------------------------------------------

struct Delivery {
  std::uint32_t sequence;
  std::int64_t at_us;
};

struct HarvestRig {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD37E12}};
  std::unique_ptr<Sender> sender;
  Receiver monitor{scheduler, medium, {2, 0}};
  std::vector<Delivery> deliveries;
  std::vector<SendReport> reports;

  explicit HarvestRig(const HarvestingConfig& harvesting) {
    SenderConfig cfg;
    cfg.device_id = 0x77;
    cfg.period = seconds(5);
    cfg.harvesting = harvesting;
    sender = std::make_unique<Sender>(scheduler, medium, sim::Position{0, 0}, cfg,
                                      Rng{0xBEEF});
    monitor.set_message_callback([this](const Message& m, const RxMeta& meta) {
      deliveries.push_back({m.sequence, meta.received_at.us()});
    });
    sender->start_duty_cycle([] { return Bytes{0x17, 0xC0}; },
                             [this](const SendReport& r) { reports.push_back(r); });
  }

  [[nodiscard]] std::map<std::uint32_t, int> sequence_counts() const {
    std::map<std::uint32_t, int> counts;
    for (const Delivery& d : deliveries) ++counts[d.sequence];
    return counts;
  }
};

TEST(BrownOut, MidCycleBrownOutResumesCheckpointAfterRecharge) {
  HarvestingConfig h;
  h.harvester.harvest_power = Watts{10e-3};
  h.max_checkpoint_age = seconds(30);
  HarvestRig rig{h};

  // First wake at t = 5 s; boot + injector init take 300 ms, so 150 ms
  // in the cycle is encoded-but-not-yet-transmitted: the checkpoint
  // holds the message with its sequence already assigned.
  sim::FaultInjector faults{rig.scheduler, rig.medium, Rng{0xFA11}};
  faults.attach_energy_target(rig.sender->energy_governor());
  faults.brown_out(TimePoint{msec(5150)}, *rig.sender->energy_governor());

  rig.scheduler.run_until(TimePoint{seconds(32)});

  EXPECT_EQ(rig.sender->brown_outs(), 1u);
  EXPECT_EQ(rig.sender->cycles_resumed(), 1u);
  EXPECT_EQ(rig.sender->cycles_aborted_stale(), 0u);
  EXPECT_FALSE(rig.sender->recovering());
  EXPECT_EQ(faults.stats().brown_outs_injected, 1u);

  // The interrupted sample arrived: exactly once (no duplicate from the
  // resumed retransmission), within the staleness bound, and later
  // cycles carry fresh sequences — nothing lost, nothing replayed.
  const auto counts = rig.sequence_counts();
  ASSERT_TRUE(counts.contains(0));
  for (const auto& [seq, n] : counts) EXPECT_EQ(n, 1) << "sequence " << seq;
  EXPECT_GE(counts.size(), 3u);
  for (const Delivery& d : rig.deliveries) {
    if (d.sequence == 0) {
      EXPECT_LT(d.at_us, (seconds(5) + h.max_checkpoint_age).count());
    }
  }

  // The resumed cycle reported as such, with the checkpointed sequence.
  int resumed_reports = 0;
  for (const SendReport& r : rig.reports) {
    if (!r.resumed) continue;
    ++resumed_reports;
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.sequence, 0u);
  }
  EXPECT_EQ(resumed_reports, 1);
}

TEST(BrownOut, StaleCheckpointIsDiscardedAndSequenceStaysConsumed) {
  HarvestingConfig h;
  // 5 mW refills the ~65 mJ resume target in ~13 s — well past the
  // 3 s staleness bound, so the checkpoint must be dropped on recharge.
  h.harvester.harvest_power = Watts{5e-3};
  h.max_checkpoint_age = seconds(3);
  HarvestRig rig{h};

  sim::FaultInjector faults{rig.scheduler, rig.medium, Rng{0xFA11}};
  faults.attach_energy_target(rig.sender->energy_governor());
  faults.brown_out(TimePoint{msec(5150)}, *rig.sender->energy_governor());

  rig.scheduler.run_until(TimePoint{seconds(32)});

  EXPECT_EQ(rig.sender->brown_outs(), 1u);
  EXPECT_EQ(rig.sender->cycles_resumed(), 0u);
  EXPECT_EQ(rig.sender->cycles_aborted_stale(), 1u);
  EXPECT_FALSE(rig.sender->recovering());

  // Sequence 0 was never delivered — the gap is the honest signal that
  // a reading was lost to power, not a silent stale retransmission.
  const auto counts = rig.sequence_counts();
  EXPECT_FALSE(counts.contains(0));
  ASSERT_GE(counts.size(), 1u);
  for (const auto& [seq, n] : counts) EXPECT_EQ(n, 1) << "sequence " << seq;

  // The abort surfaced as a failed report carrying the dead sequence.
  int failed = 0;
  for (const SendReport& r : rig.reports) {
    if (r.success) continue;
    ++failed;
    EXPECT_EQ(r.sequence, 0u);
  }
  EXPECT_EQ(failed, 1);
}

TEST(BrownOut, WakeGateSkipsUnfundableCyclesInsteadOfBrowningOut) {
  HarvestingConfig h;
  h.harvester.harvest_power = Watts{2e-3};
  h.harvester.initial_charge_fraction = 0.0;  // deployed flat
  HarvestRig rig{h};

  // Stop off the wake grid so no cycle is mid-flight at the cutoff.
  rig.scheduler.run_until(TimePoint{seconds(118)});

  // 2 mW against a ~43 mJ cycle: roughly one affordable wake per
  // half-minute. The gate absorbs the deficit as skipped wakes; the
  // device never runs itself into an organic brown-out.
  EXPECT_GE(rig.sender->cycles_run(), 2u);
  EXPECT_LE(rig.sender->cycles_run(), 10u);
  EXPECT_GE(rig.sender->cycles_skipped_energy(), 5u);
  EXPECT_EQ(rig.sender->brown_outs(), 0u);
  EXPECT_EQ(rig.deliveries.size(), rig.sender->cycles_run());
}

TEST(BrownOut, SendNowOnABrownedOutBoardThrows) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD37E12}};
  SenderConfig cfg;
  cfg.device_id = 0x77;
  HarvestingConfig h;
  h.harvester.harvest_power = Watts{10e-3};
  cfg.harvesting = h;
  Sender sender{scheduler, medium, sim::Position{0, 0}, cfg, Rng{0xBEEF}};

  // Dark in deep sleep: the one-shot wake obeys the same start rule as
  // the timer and the WUR companion, and the resume path owns the board.
  sender.energy_governor()->fault_brown_out();
  ASSERT_TRUE(sender.recovering());
  EXPECT_THROW(sender.send_now(Bytes{1}, {}), std::logic_error);
  EXPECT_EQ(sender.cycles_run(), 0u);

  scheduler.run_until(TimePoint{seconds(30)});
  ASSERT_FALSE(sender.recovering());
  EXPECT_NO_THROW(sender.send_now(Bytes{2}, {}));
  EXPECT_EQ(sender.cycles_run(), 1u);
}

// --- fleet-wide faults through ScenarioBuilder ------------------------------

HarvestingConfig fleet_harvesting() {
  HarvestingConfig h;
  h.harvester.capacitance_f = 20e-3;  // ~109 mJ: about two cycles stored
  h.harvester.harvest_power = Watts{20e-3};
  return h;
}

TEST(EnergyFaults, FleetRfDroughtDegradesGracefullyAndRecovers) {
  std::vector<Delivery> deliveries;
  auto scenario =
      sim::ScenarioBuilder{}
          .devices(4)
          .grid_spacing_m(2)
          .duty_cycle(seconds(5))
          .harvesting(fleet_harvesting())
          .telemetry(false)
          .configure_faults([](sim::FaultInjector& f) {
            f.rf_drought(TimePoint{seconds(30)}, seconds(30));
            f.brown_out_all(TimePoint{seconds(45)});
          })
          .on_message([&deliveries](const Message& m, const RxMeta& meta) {
            deliveries.push_back({m.sequence, meta.received_at.us()});
          })
          .build();

  scenario->run_until(TimePoint{seconds(90)});

  int before = 0, during = 0, after = 0;
  for (const Delivery& d : deliveries) {
    if (d.at_us < seconds(30).count()) {
      ++before;
    } else if (d.at_us < seconds(60).count()) {
      ++during;
    } else {
      ++after;
    }
  }
  // Healthy cadence before; the drought throttles the fleet to its
  // stored charge; the fade lifting restores the cadence.
  EXPECT_GE(before, 12);
  EXPECT_LT(during, before / 2);
  EXPECT_GE(after, 12);

  EXPECT_EQ(scenario->faults().stats().harvest_fades, 1u);
  EXPECT_EQ(scenario->faults().stats().brown_outs_injected, 4u);
  EXPECT_EQ(scenario->faults().energy_targets(), 4u);
  for (const auto& s : scenario->devices()) {
    EXPECT_EQ(s->brown_outs(), 1u);
    EXPECT_FALSE(s->recovering());  // everyone recovered post-drought
    EXPECT_GT(s->cycles_skipped_energy(), 0u);
  }
}

// --- determinism ------------------------------------------------------------

struct HarvestRun {
  std::uint64_t events = 0;
  sim::Medium::Stats medium_stats{};
  std::uint64_t messages = 0;
  std::uint64_t message_digest = 0;
  std::vector<std::uint64_t> brown_outs;
  std::vector<std::uint64_t> resumed;
  std::vector<double> charges;  // settled end-of-run charge, bit-exact
};

HarvestRun run_harvest_fleet(bool telemetry, bool sample) {
  util::Fnv1a digest;
  auto builder = sim::ScenarioBuilder{}
                     .devices(4)
                     .grid_spacing_m(2)
                     .duty_cycle(seconds(5))
                     .harvesting(fleet_harvesting())
                     .telemetry(telemetry)
                     .configure_faults([](sim::FaultInjector& f) {
                       f.harvest_fade(TimePoint{seconds(20)}, seconds(15), 0.3);
                       f.brown_out_all(TimePoint{seconds(40)});
                       f.rf_drought(TimePoint{seconds(50)}, seconds(10));
                     })
                     .on_message([&digest](const Message& m, const RxMeta& meta) {
                       digest.add(m.device_id);
                       digest.add(m.sequence);
                       digest.add(static_cast<std::uint64_t>(meta.received_at.us()));
                     });
  if (sample) builder.sample_every(seconds(10));
  auto scenario = builder.build();
  scenario->run_until(TimePoint{seconds(80)});

  HarvestRun r;
  r.events = scenario->scheduler().events_run();
  r.medium_stats = scenario->medium().stats();
  r.messages = scenario->messages();
  r.message_digest = digest.value();
  for (const auto& s : scenario->devices()) {
    r.brown_outs.push_back(s->brown_outs());
    r.resumed.push_back(s->cycles_resumed());
    r.charges.push_back(s->energy_governor()->charge().value);
  }
  return r;
}

TEST(EnergyFaults, SameSeedHarvestingRunsAreBitExact) {
  const HarvestRun a = run_harvest_fleet(/*telemetry=*/false, /*sample=*/false);
  const HarvestRun b = run_harvest_fleet(/*telemetry=*/false, /*sample=*/false);

  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.medium_stats.transmissions, b.medium_stats.transmissions);
  EXPECT_EQ(a.medium_stats.deliveries, b.medium_stats.deliveries);
  EXPECT_EQ(a.medium_stats.collision_losses, b.medium_stats.collision_losses);
  EXPECT_EQ(a.medium_stats.channel_losses, b.medium_stats.channel_losses);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.message_digest, b.message_digest);
  EXPECT_EQ(a.brown_outs, b.brown_outs);
  EXPECT_EQ(a.resumed, b.resumed);
  EXPECT_EQ(a.charges, b.charges);  // bit-exact, not NEAR
  // The scenario actually exercised the energy machinery.
  std::uint64_t total_brown_outs = 0;
  for (std::uint64_t n : a.brown_outs) total_brown_outs += n;
  EXPECT_GE(total_brown_outs, 4u);
  EXPECT_GT(a.messages, 0u);
}

TEST(EnergyFaults, TelemetryChargeGaugeDoesNotPerturbTheRun) {
  // The periodic sampler reads the .energy.charge_j gauge, which goes
  // through projected_charge() — a pure projection. If it settled the
  // governor, the settlement sequence (and thus every subsequent drain)
  // would shift and this comparison would break.
  const HarvestRun off = run_harvest_fleet(/*telemetry=*/false, /*sample=*/false);
  const HarvestRun on = run_harvest_fleet(/*telemetry=*/true, /*sample=*/true);

  EXPECT_EQ(on.medium_stats.transmissions, off.medium_stats.transmissions);
  EXPECT_EQ(on.medium_stats.deliveries, off.medium_stats.deliveries);
  EXPECT_EQ(on.messages, off.messages);
  EXPECT_EQ(on.message_digest, off.message_digest);
  EXPECT_EQ(on.brown_outs, off.brown_outs);
  EXPECT_EQ(on.resumed, off.resumed);
  EXPECT_EQ(on.charges, off.charges);
}

// --- ScenarioBuilder fault wiring vs hand wiring ----------------------------

struct HandWired {
  std::uint64_t events = 0;
  sim::Medium::Stats medium_stats{};
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> brown_outs;
  std::vector<std::uint64_t> skipped;
  std::vector<std::uint64_t> cycles;
  std::vector<std::uint64_t> resumed;
};

void schedule_fault_script(sim::FaultInjector& f) {
  f.rf_drought(TimePoint{seconds(20)}, seconds(20));
  f.brown_out_all(TimePoint{seconds(30)});
  f.harvest_fade(TimePoint{seconds(50)}, seconds(10), 0.5);
}

/// The ScenarioBuilder device/gateway/fault wiring, by hand, in the
/// exact historical order (see Scenario's constructor): devices with
/// master.fork() + staggered starts, then gateways, then the fault
/// injector with the derived seed and energy targets attached in
/// device order, then the user's fault script.
HandWired run_hand_wired_faults(int n, int sim_seconds) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xF1EE7}};

  constexpr double kSpacingM = 2.0;
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double extent = side * kSpacingM;

  Rng master{0xF1EE7C0DE};
  std::vector<std::unique_ptr<Sender>> senders;
  for (int i = 0; i < n; ++i) {
    SenderConfig cfg;
    cfg.device_id = static_cast<std::uint32_t>(i + 1);
    cfg.period = seconds(5);
    cfg.wake_jitter = msec(500);     // the builder's defaults
    cfg.timeline_max_segments = 64;
    cfg.harvesting = fleet_harvesting();
    const sim::Position pos{(i % side) * kSpacingM, (i / side) * kSpacingM};
    senders.push_back(
        std::make_unique<Sender>(scheduler, medium, pos, cfg, master.fork()));
    const auto start_us = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(i) * 5'000'000ull) / static_cast<std::uint64_t>(n));
    Sender* s = senders.back().get();
    scheduler.schedule_at(TimePoint{usec(start_us)}, [s] {
      s->start_duty_cycle([] { return Bytes(16, 0xA5); });
    });
  }

  std::uint64_t messages = 0;
  Receiver gateway{scheduler, medium, sim::Position{0.5 * extent, 0.5 * extent}};
  gateway.set_message_callback(
      [&messages](const Message&, const RxMeta&) { ++messages; });

  sim::FaultInjector faults{scheduler, medium, Rng{0xF1EE7C0DE ^ 0x0FA1'7000}};
  for (auto& s : senders) faults.attach_energy_target(s->energy_governor());
  schedule_fault_script(faults);

  scheduler.run_until(TimePoint{seconds(sim_seconds)});
  HandWired r;
  r.events = scheduler.events_run();
  r.medium_stats = medium.stats();
  r.messages = messages;
  for (const auto& s : senders) {
    r.brown_outs.push_back(s->brown_outs());
    r.skipped.push_back(s->cycles_skipped_energy());
    r.cycles.push_back(s->cycles_run());
    r.resumed.push_back(s->cycles_resumed());
  }
  return r;
}

TEST(Scenario, FaultWiringBitIdenticalToHandWiring) {
  constexpr int kN = 4;
  constexpr int kSimSeconds = 70;
  const HandWired legacy = run_hand_wired_faults(kN, kSimSeconds);

  auto scenario = sim::ScenarioBuilder{}
                      .devices(kN)
                      .grid_spacing_m(2)
                      .duty_cycle(seconds(5))
                      .harvesting(fleet_harvesting())
                      .telemetry(false)
                      .configure_faults(schedule_fault_script)
                      .build();
  scenario->run_until(TimePoint{seconds(kSimSeconds)});

  EXPECT_EQ(scenario->scheduler().events_run(), legacy.events);
  EXPECT_EQ(scenario->medium().stats().transmissions, legacy.medium_stats.transmissions);
  EXPECT_EQ(scenario->medium().stats().deliveries, legacy.medium_stats.deliveries);
  EXPECT_EQ(scenario->medium().stats().collision_losses,
            legacy.medium_stats.collision_losses);
  EXPECT_EQ(scenario->medium().stats().channel_losses,
            legacy.medium_stats.channel_losses);
  EXPECT_EQ(scenario->messages(), legacy.messages);
  ASSERT_EQ(scenario->devices().size(), legacy.brown_outs.size());
  for (std::size_t i = 0; i < legacy.brown_outs.size(); ++i) {
    EXPECT_EQ(scenario->devices()[i]->brown_outs(), legacy.brown_outs[i]) << i;
    EXPECT_EQ(scenario->devices()[i]->cycles_skipped_energy(), legacy.skipped[i]) << i;
    EXPECT_EQ(scenario->devices()[i]->cycles_run(), legacy.cycles[i]) << i;
    EXPECT_EQ(scenario->devices()[i]->cycles_resumed(), legacy.resumed[i]) << i;
  }
  // Guard against the scenario degenerating into silence.
  EXPECT_GT(scenario->messages(), 0u);
  EXPECT_GT(legacy.brown_outs[0], 0u);
}

// --- satellite: gateway reconnect desync ------------------------------------

/// Time of the first reassociation after an injected uplink kill, with
/// multiplicative jitter disabled so the desync spread is the only
/// random term in the backoff.
Duration reassociation_time(Duration desync_spread, std::uint64_t gw_seed) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  ap::AccessPointConfig ap_cfg;
  ap::AccessPoint ap{scheduler, medium, {0, 0}, ap_cfg, Rng{10}};
  ap.start();

  GatewayConfig cfg;
  cfg.station.mac = MacAddress::from_seed(0x6A7E);
  cfg.reconnect_jitter_fraction = 0.0;
  cfg.reconnect_desync_spread = desync_spread;
  Gateway gw{scheduler, medium, {3, 0}, cfg, Rng{gw_seed}};

  bool ready = false;
  gw.start([&ready](bool ok) { ready = ok; });
  scheduler.run_until(TimePoint{seconds(10)});
  EXPECT_TRUE(ready);

  gw.kill_uplink();
  while (gw.stats().reassociations < 1 &&
         scheduler.now() < TimePoint{seconds(60)}) {
    scheduler.run_until(scheduler.now() + msec(1));
  }
  EXPECT_EQ(gw.stats().reassociations, 1u);
  return scheduler.now().since_epoch();
}

TEST(Gateway, DesyncSpreadDelaysFirstReconnectAfterLoss) {
  const Duration base = reassociation_time(Duration{0}, 7);
  const Duration spread_a = reassociation_time(seconds(2), 7);
  const Duration spread_a2 = reassociation_time(seconds(2), 7);
  const Duration spread_b = reassociation_time(seconds(2), 8);

  // The spread only ever adds delay, stays within its window, is
  // deterministic per seed, and actually varies across seeds — that
  // variation is the whole point (a fleet stops stampeding the AP).
  EXPECT_GE(spread_a, base);
  EXPECT_LE(spread_a, base + seconds(2) + msec(5));
  EXPECT_EQ(spread_a, spread_a2);
  EXPECT_NE(spread_a, spread_b);
}

TEST(Gateway, BackoffJitterStaysBounded) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  GatewayConfig cfg;
  cfg.station.mac = MacAddress::from_seed(0x6B7E);
  Gateway gw{scheduler, medium, {3, 0}, cfg, Rng{0x1CE}};

  // No loss yet: failures = 0, desync unarmed. Every draw is
  // base * (1 +/- jitter_fraction).
  for (int i = 0; i < 32; ++i) {
    const Duration d = gw.backoff_delay();
    EXPECT_GE(d, msec(400));
    EXPECT_LE(d, msec(600));
  }
}

}  // namespace
}  // namespace wile::core
