// Chaos harness: campaign generation/serialization, invariant oracles,
// fault-script validation, minimal-repro shrinking and deterministic
// replay — plus the satellite coverage for NaN-hardened loss floors and
// the clock-drift step interacting with receiver scan windows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "util/frame_buffer.hpp"
#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/scenario.hpp"

namespace wile::sim {
namespace {

// ---------------------------------------------------------------------------
// Campaign generation and JSON round-trip
// ---------------------------------------------------------------------------

TEST(ChaosCampaign, GenerationIsDeterministicAndBounded) {
  ChaosConfig config;
  config.min_actions = 4;
  config.max_actions = 12;
  config.horizon = seconds(60);
  config.n_devices = 8;

  const Campaign a = generate_campaign(42, config);
  const Campaign b = generate_campaign(42, config);
  EXPECT_EQ(a, b);  // pure function of (seed, config)
  EXPECT_NE(a, generate_campaign(43, config));

  EXPECT_GE(a.actions.size(), 4u);
  EXPECT_LE(a.actions.size(), 12u);
  for (const FaultAction& action : a.actions) {
    EXPECT_GE(action.start_us, 0);
    EXPECT_LE(action.start_us, a.horizon_us);
    if (action.target >= 0) {
      EXPECT_LT(action.target, 8);
    }
  }
  // Chronological order (stable for equal starts).
  for (std::size_t i = 1; i < a.actions.size(); ++i) {
    EXPECT_LE(a.actions[i - 1].start_us, a.actions[i].start_us);
  }
}

TEST(ChaosCampaign, JsonRoundTripIsExact) {
  ChaosConfig config;
  config.horizon = seconds(120);
  config.n_devices = 5;
  // Many seeds so every fault kind (and both drift signs) appears.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Campaign campaign = generate_campaign(seed, config);
    const auto parsed = campaign_from_json(campaign_to_json(campaign));
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(*parsed, campaign) << "seed " << seed;  // incl. bitwise doubles
  }
}

TEST(ChaosCampaign, MalformedJsonRejectedWithoutThrowing) {
  EXPECT_FALSE(campaign_from_json("").has_value());
  EXPECT_FALSE(campaign_from_json("{").has_value());
  EXPECT_FALSE(campaign_from_json("[1,2,3]").has_value());
  EXPECT_FALSE(campaign_from_json(R"({"schema": "wrong-schema"})").has_value());
  EXPECT_FALSE(campaign_from_json(
                   R"({"schema": "wile-chaos-campaign-v1", "seed": 1,
                       "horizon_us": 10, "actions": [{"kind": "no_such_fault",
                       "start_us": 0}]})")
                   .has_value());
}

TEST(ChaosCampaign, KindNamesRoundTrip) {
  for (const FaultKind kind :
       {FaultKind::kApOutage, FaultKind::kJammer, FaultKind::kNoiseRise,
        FaultKind::kPerMultiplier, FaultKind::kLossFloor,
        FaultKind::kNodeLossFloor, FaultKind::kRadioDeaf,
        FaultKind::kClockDriftStep, FaultKind::kBrownOut,
        FaultKind::kBrownOutAll, FaultKind::kHarvestFade,
        FaultKind::kRfDrought}) {
    const auto parsed = kind_from_name(kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(kind_from_name("warp_core_breach").has_value());
}

// Every generated campaign arms against a real fleet without throwing,
// across the full vocabulary.
TEST(ChaosCampaign, SchedulesAgainstScenarioWithoutThrowing) {
  ChaosConfig config;
  config.horizon = seconds(30);
  config.n_devices = 3;
  config.min_actions = 12;
  config.max_actions = 20;

  auto scenario = ScenarioBuilder{}.devices(3).gateways(1).build();
  const Campaign campaign = generate_campaign(7, config);
  const std::size_t armed =
      schedule_campaign(campaign, scenario->chaos_targets());
  // Mains-powered fleet: kBrownOut (needs a per-device energy target)
  // and kClockDriftStep/kRadioDeaf arm only when bound — but the bulk of
  // the script must arm.
  EXPECT_GT(armed, 0u);
  EXPECT_LE(armed, campaign.actions.size());
  scenario->run_until(TimePoint{seconds(31)});
}

// ---------------------------------------------------------------------------
// Fault-script validation (satellite)
// ---------------------------------------------------------------------------

TEST(FaultValidation, WindowEndMustFollowStart) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  FaultInjector fi{scheduler, medium, Rng{2}};
  EXPECT_THROW(fi.window(TimePoint{seconds(1)}, seconds(0), {}, {}),
               std::invalid_argument);
  EXPECT_THROW(fi.window(TimePoint{seconds(1)}, seconds(-1), {}, {}),
               std::invalid_argument);
  EXPECT_NO_THROW(fi.window(TimePoint{seconds(1)}, usec(1), {}, {}));
}

TEST(FaultValidation, NonFiniteParametersRejected) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  FaultInjector fi{scheduler, medium, Rng{2}};
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fi.noise_floor_rise(TimePoint{}, seconds(1), nan),
               std::invalid_argument);
  EXPECT_THROW(fi.per_multiplier(TimePoint{}, seconds(1), nan),
               std::invalid_argument);
  EXPECT_THROW(fi.per_multiplier(TimePoint{}, seconds(1), inf),
               std::invalid_argument);
  EXPECT_THROW(fi.per_floor(TimePoint{}, seconds(1), nan), std::invalid_argument);
  EXPECT_THROW(fi.per_floor(TimePoint{}, seconds(1), 1.0), std::invalid_argument);
  EXPECT_THROW(fi.per_floor(TimePoint{}, seconds(1), nan, NodeId{0}),
               std::invalid_argument);
  EXPECT_THROW(fi.harvest_fade(TimePoint{}, seconds(1), nan),
               std::invalid_argument);
  EXPECT_THROW(fi.harvest_fade(TimePoint{}, seconds(1), -0.5),
               std::invalid_argument);
}

TEST(FaultValidation, OverlappingSameTargetWindowsCountedOnce) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  FaultInjector fi{scheduler, medium, Rng{2}};

  fi.noise_floor_rise(TimePoint{seconds(10)}, seconds(10), 3.0);
  EXPECT_EQ(fi.stats().windows_overlapping, 0u);
  // Overlaps the first noise window -> one warning.
  fi.noise_floor_rise(TimePoint{seconds(15)}, seconds(10), 3.0);
  EXPECT_EQ(fi.stats().windows_overlapping, 1u);
  // Same interval, different fault kind: no warning.
  fi.per_multiplier(TimePoint{seconds(15)}, seconds(10), 2.0);
  EXPECT_EQ(fi.stats().windows_overlapping, 1u);
  // Same kind, disjoint interval: no warning.
  fi.noise_floor_rise(TimePoint{seconds(30)}, seconds(5), 3.0);
  EXPECT_EQ(fi.stats().windows_overlapping, 1u);
  // Per-node faults only collide on the same node.
  fi.radio_deaf(TimePoint{seconds(0)}, seconds(10), NodeId{1});
  fi.radio_deaf(TimePoint{seconds(5)}, seconds(10), NodeId{2});
  EXPECT_EQ(fi.stats().windows_overlapping, 1u);
  fi.radio_deaf(TimePoint{seconds(8)}, seconds(10), NodeId{1});
  EXPECT_EQ(fi.stats().windows_overlapping, 2u);

  // The warning is published as a telemetry counter.
  telemetry::MetricsRegistry registry;
  fi.publish_metrics(registry);
  const telemetry::Snapshot snap = registry.snapshot(TimePoint{});
  ASSERT_NE(snap.find("fault.windows_overlapping"), nullptr);
  EXPECT_EQ(snap.find("fault.windows_overlapping")->count, 2u);
}

// ---------------------------------------------------------------------------
// Loss-floor hardening (satellite)
// ---------------------------------------------------------------------------

TEST(LossFloorHardening, MediumClampsAndSurvivesNaN) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  core::Receiver rx{scheduler, medium, {1, 0}};  // attaches a node
  const NodeId node = rx.node_id();

  medium.set_loss_floor(1.7);
  EXPECT_EQ(medium.loss_floor(), 1.0);
  medium.set_loss_floor(-0.3);
  EXPECT_EQ(medium.loss_floor(), 0.0);
  medium.set_node_loss_floor(node, 2.5);
  EXPECT_EQ(medium.node_loss_floor(node), 1.0);

#ifdef NDEBUG
  // Release builds drop the poison instead of propagating it.
  medium.set_loss_floor(std::nan(""));
  EXPECT_EQ(medium.loss_floor(), 0.0);
  medium.set_node_loss_floor(node, std::nan(""));
  EXPECT_EQ(medium.node_loss_floor(node), 0.0);
#else
  EXPECT_DEATH(medium.set_loss_floor(std::nan("")), "");
  EXPECT_DEATH(medium.set_node_loss_floor(node, std::nan("")), "");
#endif
}

TEST(LossFloorHardening, PerNodeFloorStacksOnGlobal) {
  // A per-node floor must only affect its node: two receivers at the
  // same distance, one behind a 90% erasure floor, same seeded run.
  auto scenario = ScenarioBuilder{}
                      .devices(1)
                      .gateways(2)
                      .duty_cycle(seconds(1))
                      .stagger_starts(false)
                      .place_device([](int) { return Position{0, 0}; })
                      .place_gateway([](int k) {
                        return k == 0 ? Position{2, 0} : Position{-2, 0};
                      })
                      .build();
  const NodeId impaired = scenario->gateways()[1]->node_id();
  scenario->medium().set_node_loss_floor(impaired, 0.9);
  EXPECT_DOUBLE_EQ(scenario->medium().node_loss_floor(impaired), 0.9);

  scenario->run_until(TimePoint{seconds(60)});
  scenario->stop_all();
  scenario->run_for(seconds(1));

  const auto clean = scenario->gateways()[0]->stats().messages;
  const auto floored = scenario->gateways()[1]->stats().messages;
  EXPECT_GT(clean, 50u);       // ~1 msg/s, clean short link
  EXPECT_LT(floored, clean / 2);  // the 90% floor must bite
  EXPECT_GT(floored, 0u);      // but not black-hole the node
}

// ---------------------------------------------------------------------------
// InvariantMonitor mechanics
// ---------------------------------------------------------------------------

TEST(InvariantMonitor, MonotoneAndBoundedOracles) {
  Scheduler scheduler;
  InvariantMonitor monitor;
  std::uint64_t counter = 10;
  double gauge = 0.5;
  monitor.add_monotone_counter("test.counter", [&] { return counter; });
  monitor.add_bounded_gauge("test.gauge", [&] { return gauge; }, 0.0, 1.0, 7);

  monitor.run_checks(TimePoint{});
  EXPECT_TRUE(monitor.ok());

  counter = 5;  // backwards
  gauge = 1.5;  // out of bounds
  monitor.run_checks(TimePoint{seconds(1)});
  ASSERT_EQ(monitor.violations().size(), 2u);
  EXPECT_EQ(monitor.violations()[0].invariant, "test.counter");
  EXPECT_EQ(monitor.violations()[1].invariant, "test.gauge");
  EXPECT_EQ(monitor.violations()[1].node, 7u);
  EXPECT_EQ(monitor.violations()[1].at, TimePoint{seconds(1)});

  // NaN is out of every bound.
  gauge = std::nan("");
  counter = 5;  // not backwards anymore (last observed was 5)
  monitor.run_checks(TimePoint{seconds(2)});
  EXPECT_EQ(monitor.stats().violations, 3u);
}

TEST(InvariantMonitor, SequenceUniquenessFlagsDuplicates) {
  InvariantMonitor monitor;
  monitor.on_delivery(1, 9, 100, TimePoint{});
  monitor.on_delivery(1, 9, 101, TimePoint{});
  monitor.on_delivery(2, 9, 100, TimePoint{});  // other receiver: fine
  monitor.on_delivery(1, 8, 100, TimePoint{});  // other device: fine
  EXPECT_TRUE(monitor.ok());
  monitor.on_delivery(1, 9, 100, TimePoint{seconds(3)});  // duplicate
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].invariant, "receiver.sequence_unique");
  EXPECT_EQ(monitor.violations()[0].node, 9u);
}

TEST(InvariantMonitor, SweepsRideTheSchedulerAndStopCleanly) {
  Scheduler scheduler;
  InvariantMonitor monitor;
  std::uint64_t checks = 0;
  monitor.add_check("test.tick", [&]() -> std::optional<std::string> {
    ++checks;
    return std::nullopt;
  });
  monitor.start(scheduler, msec(100));
  scheduler.schedule_at(TimePoint{seconds(10)}, [] {});
  scheduler.run_until(TimePoint{seconds(1)});
  EXPECT_EQ(monitor.stats().sweeps, 10u);
  EXPECT_EQ(checks, 10u);
  monitor.stop();
  scheduler.run_until(TimePoint{seconds(2)});
  EXPECT_EQ(checks, 10u);  // no sweeps after stop
}

TEST(InvariantMonitor, ViolationRecordListIsBounded) {
  InvariantMonitor monitor;
  for (std::uint32_t i = 0; i < 3 * InvariantMonitor::kMaxViolations; ++i) {
    monitor.report("test.flood", "x", TimePoint{});
  }
  EXPECT_EQ(monitor.violations().size(), InvariantMonitor::kMaxViolations);
  EXPECT_EQ(monitor.stats().violations, 3 * InvariantMonitor::kMaxViolations);
}

TEST(FrameBufferAccounting, LiveBufferCountTracksAllocations) {
  const std::uint64_t before = FrameBuffer::live_buffers();
  {
    FrameBuffer a{Bytes(8, 0x11)};
    EXPECT_EQ(FrameBuffer::live_buffers(), before + 1);
    FrameBuffer b = a;  // shares the allocation
    EXPECT_EQ(FrameBuffer::live_buffers(), before + 1);
    EXPECT_EQ(b.owners(), 2);
    FrameBuffer c{Bytes(8, 0x22)};
    EXPECT_EQ(FrameBuffer::live_buffers(), before + 2);
    FrameBuffer empty;  // no allocation
    EXPECT_EQ(FrameBuffer::live_buffers(), before + 2);
  }
  EXPECT_EQ(FrameBuffer::live_buffers(), before);
}

// A healthy fleet under a multi-fault campaign trips nothing.
TEST(InvariantMonitor, CleanFleetUnderChaosHasNoViolations) {
  auto scenario = ScenarioBuilder{}
                      .devices(4)
                      .gateways(1)
                      .duty_cycle(seconds(2))
                      .build();
  InvariantMonitor monitor;
  scenario->attach_invariants(monitor);
  monitor.start(scenario->scheduler(), msec(200));

  ChaosConfig config;
  config.horizon = seconds(30);
  config.n_devices = 4;
  schedule_campaign(generate_campaign(3, config), scenario->chaos_targets());

  scenario->run_until(TimePoint{seconds(30)});
  scenario->stop_all();
  scenario->run_for(seconds(2));
  monitor.run_checks(scenario->scheduler().now());
  monitor.stop();

  EXPECT_TRUE(monitor.ok()) << monitor.violations().front().invariant << ": "
                            << monitor.violations().front().detail;
  EXPECT_GT(monitor.stats().sweeps, 100u);
  EXPECT_GT(monitor.stats().deliveries_checked, 0u);
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

TEST(Shrinker, FindsMinimalSubsetForSyntheticDependency) {
  // 12 actions; the failure needs exactly actions #3 and #8 together.
  Campaign campaign;
  campaign.seed = 1;
  campaign.horizon_us = 1'000'000;
  for (int i = 0; i < 12; ++i) {
    FaultAction a;
    a.kind = FaultKind::kNoiseRise;
    a.start_us = i * 1000;
    a.duration_us = 500;
    a.magnitude = static_cast<double>(i);  // identity survives shrinking
    campaign.actions.push_back(a);
  }
  const auto has = [](const Campaign& c, double magnitude) {
    for (const FaultAction& a : c.actions) {
      if (a.magnitude == magnitude) return true;
    }
    return false;
  };
  std::size_t probes = 0;
  const ShrinkResult result = shrink_campaign(
      campaign,
      [&](const Campaign& c) {
        ++probes;
        return has(c, 3.0) && has(c, 8.0);
      });

  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.original_actions, 12u);
  ASSERT_EQ(result.minimal.actions.size(), 2u);
  EXPECT_EQ(result.minimal.actions[0].magnitude, 3.0);
  EXPECT_EQ(result.minimal.actions[1].magnitude, 8.0);
  EXPECT_EQ(result.runs, probes);
  EXPECT_LT(probes, 60u);  // ddmin, not brute force
}

TEST(Shrinker, NonReproducingInputReportedNotShrunk) {
  Campaign campaign;
  campaign.actions.push_back({});
  const ShrinkResult result =
      shrink_campaign(campaign, [](const Campaign&) { return false; });
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.runs, 1u);
  EXPECT_EQ(result.minimal, campaign);
}

TEST(Shrinker, BaselineFailureShrinksToEmptyCampaign) {
  Campaign campaign;
  for (int i = 0; i < 5; ++i) campaign.actions.push_back({});
  const ShrinkResult result =
      shrink_campaign(campaign, [](const Campaign&) { return true; });
  EXPECT_TRUE(result.reproduced);
  EXPECT_TRUE(result.minimal.actions.empty());
}

// ---------------------------------------------------------------------------
// End-to-end: intentionally-broken oracle -> shrink -> repro file ->
// deterministic replay (the ISSUE's acceptance path).
// ---------------------------------------------------------------------------

struct BrokenOracleRun {
  std::uint64_t violations = 0;
  std::string first_invariant;
  std::uint64_t first_at_us = 0;
};

/// Fleet with a deliberately broken oracle: "no device ever browns
/// out". Brown-out faults in a campaign then violate it on purpose.
BrokenOracleRun run_with_broken_oracle(const Campaign& campaign) {
  core::HarvestingConfig harvesting;
  harvesting.harvester.capacitance_f = 1e-3;
  harvesting.harvester.initial_charge_fraction = 0.5;
  harvesting.harvester.harvest_power = microwatts(250);
  auto scenario = ScenarioBuilder{}
                      .devices(2)
                      .gateways(1)
                      .duty_cycle(seconds(2))
                      .harvesting(harvesting)
                      .seed(campaign.seed)
                      .build();
  InvariantMonitor monitor;
  scenario->attach_invariants(monitor);
  for (auto& device : scenario->devices()) {
    const core::Sender* dev = device.get();
    monitor.add_check("test.never_browns_out",
                      [dev]() -> std::optional<std::string> {
                        if (dev->brown_outs() > 0) {
                          return "device browned out " +
                                 std::to_string(dev->brown_outs()) + " times";
                        }
                        return std::nullopt;
                      },
                      dev->node_id());
  }
  monitor.start(scenario->scheduler(), msec(100));
  schedule_campaign(campaign, scenario->chaos_targets());
  scenario->run_until(TimePoint{Duration{campaign.horizon_us}});
  scenario->stop_all();
  scenario->run_for(seconds(1));
  monitor.run_checks(scenario->scheduler().now());
  monitor.stop();

  BrokenOracleRun result;
  result.violations = monitor.stats().violations;
  if (!monitor.violations().empty()) {
    result.first_invariant = monitor.violations().front().invariant;
    result.first_at_us =
        static_cast<std::uint64_t>(monitor.violations().front().at.us());
  }
  return result;
}

TEST(ChaosEndToEnd, BrokenOracleShrinksToMinimalReproAndReplays) {
  // Generate until a campaign trips the broken oracle (brown-out kinds
  // are in the vocabulary, so this converges fast).
  ChaosConfig config;
  config.horizon = seconds(30);
  config.n_devices = 2;
  config.min_actions = 8;
  config.max_actions = 14;

  std::optional<Campaign> failing;
  BrokenOracleRun original;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const Campaign candidate = generate_campaign(seed, config);
    const BrokenOracleRun run = run_with_broken_oracle(candidate);
    if (run.violations > 0) {
      failing = candidate;
      original = run;
      break;
    }
  }
  ASSERT_TRUE(failing.has_value()) << "no campaign tripped the broken oracle";
  EXPECT_EQ(original.first_invariant, "test.never_browns_out");

  // Shrink: the same oracle must re-fire.
  const ShrinkResult shrunk = shrink_campaign(*failing, [](const Campaign& c) {
    return run_with_broken_oracle(c).violations > 0;
  });
  ASSERT_TRUE(shrunk.reproduced);
  // Only a brown-out-capable action can trip the oracle, and one is
  // enough: the minimal repro is a single action.
  ASSERT_EQ(shrunk.minimal.actions.size(), 1u);
  const FaultKind kind = shrunk.minimal.actions[0].kind;
  EXPECT_TRUE(kind == FaultKind::kBrownOut || kind == FaultKind::kBrownOutAll ||
              kind == FaultKind::kRfDrought || kind == FaultKind::kHarvestFade)
      << "minimal action kind: " << kind_name(kind);

  // Write the repro, reload it, and replay: byte-identical campaign,
  // same violation, same simulated timestamps, run after run.
  const std::string path =
      ::testing::TempDir() + "/chaos_repro_test.json";
  ReproFile repro;
  repro.campaign = shrunk.minimal;
  repro.scenario = "test-fleet";
  repro.scenario_seed = failing->seed;
  repro.invariant = original.first_invariant;
  ASSERT_TRUE(write_repro_file(path, repro));

  const auto loaded = load_repro_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->campaign, shrunk.minimal);
  EXPECT_EQ(loaded->scenario, "test-fleet");
  EXPECT_EQ(loaded->invariant, "test.never_browns_out");

  const BrokenOracleRun replay1 = run_with_broken_oracle(loaded->campaign);
  const BrokenOracleRun replay2 = run_with_broken_oracle(loaded->campaign);
  EXPECT_GT(replay1.violations, 0u);
  EXPECT_EQ(replay1.violations, replay2.violations);
  EXPECT_EQ(replay1.first_invariant, replay2.first_invariant);
  EXPECT_EQ(replay1.first_at_us, replay2.first_at_us);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Clock-drift step x receiver scan windows (satellite)
// ---------------------------------------------------------------------------

TEST(ClockDriftScanWindows, DownlinksSurviveDriftStep) {
  // A sender announcing RX windows, a controller with queued downlinks,
  // and a mid-run one-shot clock-drift step (temperature excursion). The
  // controller aims into windows *announced in beacons*, so downlink
  // delivery must keep working however far the device clock skews.
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  FaultInjector fi{scheduler, medium, Rng{2}};

  core::SenderConfig cfg;
  cfg.device_id = 9;
  cfg.period = seconds(2);
  cfg.rx_window = core::RxWindow{msec(2), msec(20)};
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{3}};
  core::Controller controller{scheduler, medium, {2, 0}, core::ControllerConfig{},
                              Rng{4}};

  std::vector<std::uint64_t> downlink_times_us;
  sender.set_downlink_callback([&](const core::Message&) {
    downlink_times_us.push_back(
        static_cast<std::uint64_t>(scheduler.now().us()));
  });
  for (int i = 0; i < 8; ++i) controller.queue_downlink(9, Bytes{std::uint8_t(i)});

  // +20% clock skew at t=7s, between cycles 4 and 5.
  fi.at(TimePoint{seconds(7)}, [&] { sender.apply_clock_drift_ppm(200000.0); });

  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler.run_until(TimePoint{seconds(30)});
  sender.stop_duty_cycle();
  scheduler.run_until(TimePoint{seconds(32)});

  // All eight downlinks landed, both before and after the step.
  EXPECT_EQ(downlink_times_us.size(), 8u);
  EXPECT_EQ(controller.stats().downlinks_sent, 8u);
  std::size_t after_step = 0;
  for (const std::uint64_t t : downlink_times_us) {
    if (t > 7'000'000) ++after_step;
  }
  EXPECT_GE(after_step, 3u) << "no downlinks delivered after the drift step";
  // And the drifted duty cycle actually stretched: post-step windows are
  // spaced ~2.4 s apart, not 2 s.
  ASSERT_GE(downlink_times_us.size(), 8u);
  const std::uint64_t last_gap =
      downlink_times_us[7] - downlink_times_us[6];
  EXPECT_GT(last_gap, 2'200'000u);
}

TEST(ClockDriftScanWindows, CampaignDriftStepsArmThroughChaosTargets) {
  auto scenario = ScenarioBuilder{}
                      .devices(2)
                      .gateways(1)
                      .duty_cycle(seconds(2))
                      .build();
  Campaign campaign;
  campaign.seed = 5;
  campaign.horizon_us = seconds(20).count();
  FaultAction drift;
  drift.kind = FaultKind::kClockDriftStep;
  drift.start_us = seconds(5).count();
  drift.magnitude = 150000.0;
  drift.target = 0;
  campaign.actions.push_back(drift);

  ASSERT_EQ(schedule_campaign(campaign, scenario->chaos_targets()), 1u);
  scenario->run_until(TimePoint{seconds(20)});
  EXPECT_DOUBLE_EQ(scenario->devices()[0]->clock_ppm_error(), 150000.0);
  EXPECT_DOUBLE_EQ(scenario->devices()[1]->clock_ppm_error(), 0.0);
  scenario->stop_all();
  scenario->run_for(seconds(1));
  EXPECT_GT(scenario->messages(), 0u);  // fleet kept reporting through it
}

}  // namespace
}  // namespace wile::sim
