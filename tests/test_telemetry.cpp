// Telemetry subsystem + ScenarioBuilder facade (DESIGN.md §10).
//
// Pins the contracts the rest of the repo builds on:
//  * registry binding/snapshot semantics (named closures, schema rows
//    bound per node and per group, duplicate rejection), including the
//    registration-order determinism exporters rely on;
//  * disabled-mode zero side effects — a telemetry-off scenario runs the
//    exact same simulation as a pre-telemetry build;
//  * ScenarioBuilder bit-identity with the historical hand-wired
//    scale_fleet setup (construction order, RNG forks, staggered starts);
//  * exported aggregates equal to the legacy Stats accessors, per-node
//    metrics present for every device;
//  * byte-identical JSON export and trace for same-seed runs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "wile/scenario.hpp"

namespace wile::telemetry {
namespace {

// --- registry ---------------------------------------------------------------

/// A component with per-node metrics, as a schema describes them.
struct Device {
  std::uint64_t cycles = 0;
  std::uint64_t beacons = 0;
  double energy_j = 0.0;
  Histogram* active_us = nullptr;
  Histogram* recharge_us = nullptr;
};

constexpr Row kDeviceRows[] = {
    counter<Device>("cycles", [](const Device& d) { return d.cycles; }),
    counter<Device>("beacons", [](const Device& d) { return d.beacons; }),
    histogram<Device>("active_us", [](const Device& d) { return d.active_us; }),
};
constexpr Schema kDevice{"sender", kDeviceRows};

constexpr Row kPowerRows[] = {
    gauge<Device>("energy_j", [](const Device& d) { return d.energy_j; }),
    histogram<Device>("recharge_us", [](const Device& d) { return d.recharge_us; }),
};
constexpr Schema kPower{"power", kPowerRows};

TEST(MetricsRegistry, BindSnapshot) {
  MetricsRegistry reg;
  std::uint64_t tx = 0;
  double temp = 21.5;
  reg.bind_counter_fn("medium.transmissions", [&tx] { return tx; });
  reg.bind_gauge_fn("env.temperature_c", [&temp] { return temp; });
  reg.bind_counter_fn("derived.twice_tx", [&tx] { return 2 * tx; });
  EXPECT_EQ(reg.size(), 3u);

  tx = 41;
  temp = -3.25;
  const Snapshot snap = reg.snapshot(TimePoint{seconds(7)});
  EXPECT_EQ(snap.at, TimePoint{seconds(7)});
  ASSERT_EQ(snap.values.size(), 3u);
  // Registration order, not name order.
  EXPECT_EQ(snap.values[0].name, "medium.transmissions");
  EXPECT_EQ(snap.values[1].name, "env.temperature_c");
  EXPECT_EQ(snap.values[2].name, "derived.twice_tx");
  const MetricValue* v = snap.find("medium.transmissions");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 41u);
  EXPECT_EQ(snap.find("derived.twice_tx")->count, 82u);
  EXPECT_DOUBLE_EQ(snap.find("env.temperature_c")->value, -3.25);
  EXPECT_EQ(snap.find("missing"), nullptr);

  // A snapshot is a copy: later increments don't alter it.
  tx = 1000;
  EXPECT_EQ(snap.find("medium.transmissions")->count, 41u);
}

TEST(MetricsRegistry, SchemaRowsAreNamedPerNodeAndPerGroup) {
  MetricsRegistry reg;
  Device a{.cycles = 4, .beacons = 9};
  Device b{.cycles = 6, .beacons = 2};
  reg.bind_node(7, kDevice, &a);
  reg.bind_group("lab.bench", kDevice, &b);
  a.active_us = reg.make_histogram();
  // Every row counts, histograms included; the snapshot holds the
  // counters and gauges.
  EXPECT_EQ(reg.size(), 6u);
  const Snapshot snap = reg.snapshot(TimePoint{});
  ASSERT_EQ(snap.values.size(), 4u);
  EXPECT_EQ(snap.values[0].name, "node.7.sender.cycles");
  EXPECT_EQ(snap.values[1].name, "node.7.sender.beacons");
  EXPECT_EQ(snap.values[2].name, "lab.bench.cycles");
  EXPECT_EQ(snap.values[3].name, "lab.bench.beacons");
  EXPECT_EQ(snap.find("node.7.sender.beacons")->count, 9u);
  EXPECT_EQ(snap.find("lab.bench.cycles")->count, 6u);
  // The sampler's read skips the nodes.
  const Snapshot aggregates = reg.aggregate_snapshot(TimePoint{});
  ASSERT_EQ(aggregates.values.size(), 2u);
  EXPECT_EQ(aggregates.values[0].name, "lab.bench.cycles");
}

TEST(MetricsRegistry, DuplicateNameThrows) {
  MetricsRegistry reg;
  Device d;
  reg.bind_counter_fn("x.y", [] { return std::uint64_t{1}; });
  EXPECT_THROW(reg.bind_counter_fn("x.y", [] { return std::uint64_t{2}; }), std::logic_error);
  EXPECT_THROW(reg.bind_gauge_fn("x.y", [] { return 2.0; }), std::logic_error);
  // A group's rows collide with a closure's name, and with another
  // group's rows, piece for piece.
  reg.bind_counter_fn("lab.cycles", [] { return std::uint64_t{1}; });
  EXPECT_THROW(reg.bind_group("lab", kDevice, &d), std::logic_error);
  reg.bind_group("rig", kDevice, &d);
  EXPECT_THROW(reg.bind_group("rig", kDevice, &d), std::logic_error);
  EXPECT_THROW(reg.bind_counter_fn("rig.beacons", [] { return std::uint64_t{1}; }),
               std::logic_error);
  // A node bound twice under one component throws, however the ids
  // arrive; another component, or another node, does not.
  reg.bind_node(5, kDevice, &d);
  reg.bind_node(3, kDevice, &d);
  EXPECT_THROW(reg.bind_node(5, kDevice, &d), std::logic_error);
  EXPECT_THROW(reg.bind_node(3, kDevice, &d), std::logic_error);
  reg.bind_node(5, kPower, &d);
  reg.bind_node(4, kDevice, &d);
}

TEST(Histogram, BucketsAndMoments) {
  Histogram h;
  EXPECT_TRUE(h.span().empty());  // nothing stored before the first record
  h.record(7);    // bucket 3: [4, 8)
  h.record(1);    // bucket 1
  h.record(0);    // bucket 0
  h.record(8);    // bucket 4: [8, 16)
  h.record(6);    // bucket 3 again
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 22u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.4);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.bucket(5), 0u);
  // Only the span between the lowest and the highest bucket is stored.
  EXPECT_EQ(h.first_bucket(), 0u);
  EXPECT_EQ(h.span().size(), 5u);

  Histogram wide;
  wide.record(std::uint64_t{1} << 63);  // the last bucket takes the widest values
  wide.record(300);                     // bucket 9
  EXPECT_EQ(wide.bucket(63), 1u);
  EXPECT_EQ(wide.bucket(9), 1u);
  EXPECT_EQ(wide.first_bucket(), 9u);
  EXPECT_EQ(wide.span().size(), 55u);
}

// --- export -----------------------------------------------------------------

// Per-node metrics are grouped by node id in first-appearance order, each
// node's metrics in registration order, however the ids interleave; the
// histograms section keeps registration order across aggregates and
// nodes.
TEST(Export, NodeSectionGroupsInterleavedIdsInFirstAppearanceOrder) {
  MetricsRegistry reg;
  Device d10{.cycles = 3, .beacons = 13, .energy_j = 0.25};
  Device d2{.cycles = 5, .beacons = 11};
  Device gateway;
  static constexpr Row kLatencyRows[] = {
      histogram<Device>("latency_us", [](const Device& d) { return d.active_us; }),
  };
  static constexpr Schema kLatency{"gateway", kLatencyRows};
  reg.bind_node(10, kDevice, &d10);
  reg.bind_node(2, kDevice, &d2);
  reg.bind_counter_fn("medium.transmissions", [] { return std::uint64_t{7}; });
  reg.bind_group("gateway", kLatency, &gateway);
  reg.bind_node(10, kPower, &d10);
  d10.active_us = reg.make_histogram();
  d10.recharge_us = reg.make_histogram();
  gateway.active_us = reg.make_histogram();
  for (const std::uint64_t us : {300, 5, 40}) d10.active_us->record(us);
  d10.recharge_us->record(1);
  gateway.active_us->record(6);

  ExportMeta meta;
  meta.bench = "export_grouping";
  EXPECT_EQ(to_json(reg, TimePoint{seconds(3)}, {}, meta),
            "{\n"
            "  \"schema\": \"wile-telemetry-v1\",\n"
            "  \"bench\": \"export_grouping\",\n"
            "  \"sim_time_us\": 3000000,\n"
            "  \"meta\": {},\n"
            "  \"aggregates\": {\"medium.transmissions\": 7},\n"
            "  \"histograms\": {\"node.10.sender.active_us\": {\"count\": 3, \"sum\": 345, "
            "\"min\": 5, \"max\": 300, \"mean\": 115, \"buckets\": {\"3\": 1, \"6\": 1, "
            "\"9\": 1}}, \"node.2.sender.active_us\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"mean\": 0, \"buckets\": {}}, \"gateway.latency_us\": {\"count\": 1, "
            "\"sum\": 6, \"min\": 6, \"max\": 6, \"mean\": 6, \"buckets\": {\"3\": 1}}, "
            "\"node.10.power.recharge_us\": {\"count\": 1, \"sum\": 1, \"min\": 1, \"max\": 1, "
            "\"mean\": 1, \"buckets\": {\"1\": 1}}},\n"
            "  \"nodes\": [\n"
            "    {\"node\": 10, \"metrics\": {\"sender.cycles\": 3, \"sender.beacons\": 13, "
            "\"power.energy_j\": 0.25}},\n"
            "    {\"node\": 2, \"metrics\": {\"sender.cycles\": 5, \"sender.beacons\": 11}}\n"
            "  ],\n"
            "  \"samples\": [],\n"
            "  \"trace\": {\"recorded\": 0, \"dropped\": 0}\n"
            "}\n");
}

// --- tracer -----------------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.begin(TimePoint{seconds(1)}, 3, Phase::Tx);
  t.instant(TimePoint{seconds(1)}, 3, Phase::Sample);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, BoundedBufferCountsDrops) {
  Tracer t;
  t.set_enabled(true);
  t.set_max_events(3);
  for (int i = 0; i < 5; ++i) t.instant(TimePoint{usec(i)}, 1, Phase::Csma);
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.dropped(), 2u);
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

// --- periodic sampler -------------------------------------------------------

TEST(Sampler, AggregatesOnSchedulerTimer) {
  sim::Scheduler scheduler;
  MetricsRegistry reg;
  std::uint64_t ticks = 0;
  Device device;
  reg.bind_counter_fn("agg.ticks", [&ticks] { return ticks; });
  reg.bind_node(3, kDevice, &device);  // not sampled

  PeriodicSampler<sim::Scheduler> sampler{scheduler, reg, seconds(1)};
  sampler.start();
  scheduler.schedule_at(TimePoint{msec(2500)}, [&ticks] { ticks = 9; });
  scheduler.run_until(TimePoint{msec(4500)});

  // Samples at t=1,2,3,4 s.
  ASSERT_EQ(sampler.samples().size(), 4u);
  EXPECT_EQ(sampler.samples()[1].at, TimePoint{seconds(2)});
  EXPECT_EQ(sampler.samples()[1].find("agg.ticks")->count, 0u);
  EXPECT_EQ(sampler.samples()[3].find("agg.ticks")->count, 9u);
  // Samples hold the aggregates only.
  EXPECT_EQ(sampler.samples()[0].values.size(), 1u);
  EXPECT_EQ(sampler.samples()[0].find("node.3.sender.cycles"), nullptr);
  sampler.stop();
}

// --- scenario ---------------------------------------------------------------

constexpr int kFleetN = 200;
constexpr int kFleetSimSeconds = 150;

/// The pre-ScenarioBuilder scale_fleet wiring, verbatim (same seeds,
/// same construction order, same staggered starts). The facade must be
/// indistinguishable from this.
struct HandWired {
  std::uint64_t events = 0;
  sim::Medium::Stats medium_stats{};
  std::uint64_t messages = 0;
};

HandWired run_hand_wired(int n, int sim_seconds) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xF1EE7}};

  constexpr double kSpacingM = 5.0;
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double extent = side * kSpacingM;

  Rng master{0xF1EE7C0DE};
  std::vector<std::unique_ptr<core::Sender>> senders;
  senders.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::SenderConfig cfg;
    cfg.device_id = static_cast<std::uint32_t>(i + 1);
    cfg.period = seconds(60);
    cfg.wake_jitter = msec(500);
    cfg.timeline_max_segments = 64;
    const sim::Position pos{(i % side) * kSpacingM, (i / side) * kSpacingM};
    senders.push_back(
        std::make_unique<core::Sender>(scheduler, medium, pos, cfg, master.fork()));
    const auto start_us = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(i) * 60'000'000ull) / static_cast<std::uint64_t>(n));
    core::Sender* s = senders.back().get();
    scheduler.schedule_at(TimePoint{usec(start_us)}, [s] {
      s->start_duty_cycle([] { return Bytes(16, 0xA5); });
    });
  }

  const int n_gw = std::max(1, n / 2500);
  std::vector<std::unique_ptr<core::Receiver>> gateways;
  std::uint64_t messages = 0;
  for (int k = 0; k < n_gw; ++k) {
    const double c = (k + 0.5) * extent / n_gw;
    gateways.push_back(
        std::make_unique<core::Receiver>(scheduler, medium, sim::Position{c, c}));
    gateways.back()->set_message_callback(
        [&messages](const core::Message&, const core::RxMeta&) { ++messages; });
  }

  scheduler.run_until(TimePoint{seconds(sim_seconds)});
  return {scheduler.events_run(), medium.stats(), messages};
}

std::unique_ptr<sim::Scenario> build_fleet(bool telemetry) {
  return sim::ScenarioBuilder{}
      .devices(kFleetN)
      .grid_spacing_m(5)
      .gateway_every(2500)
      .duty_cycle(seconds(60))
      .seed(0xF1EE7C0DE)
      .medium_seed(0xF1EE7)
      .telemetry(telemetry)
      .build();
}

TEST(Scenario, BitIdenticalToHandWiredFleet) {
  const HandWired legacy = run_hand_wired(kFleetN, kFleetSimSeconds);

  auto scenario = build_fleet(/*telemetry=*/true);
  scenario->run_until(TimePoint{seconds(kFleetSimSeconds)});

  // Same event count means the whole schedule unfolded identically; the
  // medium counters and delivered-message count pin the radio side.
  EXPECT_EQ(scenario->scheduler().events_run(), legacy.events);
  EXPECT_EQ(scenario->medium().stats().transmissions, legacy.medium_stats.transmissions);
  EXPECT_EQ(scenario->medium().stats().deliveries, legacy.medium_stats.deliveries);
  EXPECT_EQ(scenario->medium().stats().collision_losses,
            legacy.medium_stats.collision_losses);
  EXPECT_EQ(scenario->medium().stats().channel_losses,
            legacy.medium_stats.channel_losses);
  EXPECT_EQ(scenario->messages(), legacy.messages);
  EXPECT_GT(scenario->messages(), 0u);
}

TEST(Scenario, DisabledTelemetryHasZeroSideEffects) {
  auto on = build_fleet(true);
  auto off = build_fleet(false);
  on->run_until(TimePoint{seconds(kFleetSimSeconds)});
  off->run_until(TimePoint{seconds(kFleetSimSeconds)});

  EXPECT_FALSE(off->telemetry_enabled());
  EXPECT_EQ(off->metrics().size(), 0u);
  EXPECT_GT(on->metrics().size(), 0u);

  // The simulation itself is untouched by registration.
  EXPECT_EQ(on->scheduler().events_run(), off->scheduler().events_run());
  EXPECT_EQ(on->medium().stats().transmissions, off->medium().stats().transmissions);
  EXPECT_EQ(on->medium().stats().deliveries, off->medium().stats().deliveries);
  EXPECT_EQ(on->messages(), off->messages());
}

TEST(Scenario, AggregatesMatchLegacyStatsExactly) {
  auto scenario = build_fleet(true);
  scenario->run_until(TimePoint{seconds(kFleetSimSeconds)});

  const Snapshot snap = scenario->snapshot();
  const sim::Medium::Stats& m = scenario->medium().stats();
  EXPECT_EQ(snap.find("medium.transmissions")->count, m.transmissions);
  EXPECT_EQ(snap.find("medium.deliveries")->count, m.deliveries);
  EXPECT_EQ(snap.find("medium.collision_losses")->count, m.collision_losses);
  EXPECT_EQ(snap.find("medium.channel_losses")->count, m.channel_losses);
  EXPECT_EQ(snap.find("scheduler.events_run")->count,
            scenario->scheduler().events_run());
  EXPECT_EQ(snap.find("fleet.messages")->count, scenario->messages());
  EXPECT_DOUBLE_EQ(snap.find("fleet.devices")->value, kFleetN);
}

TEST(Scenario, PerNodeMetricsForEveryDevice) {
  auto scenario = build_fleet(true);
  scenario->run_until(TimePoint{seconds(kFleetSimSeconds)});

  const Snapshot snap = scenario->snapshot();
  const auto count = [&snap](const std::string& name) {
    const MetricValue* v = snap.find(name);
    EXPECT_NE(v, nullptr) << name;
    return v != nullptr ? v->count : 0;
  };
  std::uint64_t tx_total = 0;
  for (const auto& s : scenario->devices()) {
    const std::string p = "node." + std::to_string(s->node_id()) + ".sender";
    EXPECT_EQ(count(p + ".cycles"), s->cycles_run());
    EXPECT_EQ(count(p + ".tx.beacons"), s->beacons_sent());
    EXPECT_EQ(count(p + ".tx.airtime_us"),
              static_cast<std::uint64_t>(s->tx_airtime_total().count()));
    // Integrated energy over the whole run: every device slept if nothing
    // else, so the gauge is strictly positive.
    const MetricValue* energy = snap.find(p + ".energy_j");
    ASSERT_NE(energy, nullptr) << p;
    EXPECT_GT(energy->value, 0.0);
    tx_total += s->beacons_sent();
  }
  EXPECT_EQ(tx_total, scenario->medium().stats().transmissions);

  for (const auto& r : scenario->gateways()) {
    const std::string p = "node." + std::to_string(r->node_id()) + ".receiver";
    EXPECT_EQ(count(p + ".messages"), r->stats().messages);
    EXPECT_EQ(count(p + ".beacons_seen"), r->stats().beacons_seen);
  }
}

TEST(Scenario, ExportedJsonIsDeterministicAcrossRuns) {
  ExportMeta meta;
  meta.bench = "test_fleet";
  meta.ints = {{"n", kFleetN}};

  auto a = build_fleet(true);
  a->run_until(TimePoint{seconds(kFleetSimSeconds)});
  const std::string json_a = a->export_json(meta);

  auto b = build_fleet(true);
  b->run_until(TimePoint{seconds(kFleetSimSeconds)});
  const std::string json_b = b->export_json(meta);

  EXPECT_EQ(json_a, json_b);
  EXPECT_NE(json_a.find("\"schema\": \"wile-telemetry-v1\""), std::string::npos);
  EXPECT_NE(json_a.find("\"bench\": \"test_fleet\""), std::string::npos);
  EXPECT_NE(json_a.find("\"nodes\": ["), std::string::npos);
  EXPECT_NE(json_a.find("\"aggregates\""), std::string::npos);
}

TEST(Scenario, PeriodicSamples) {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(20)
                      .duty_cycle(seconds(10))
                      .sample_every(seconds(30))
                      .build();
  scenario->run_until(TimePoint{seconds(100)});

  ASSERT_EQ(scenario->samples().size(), 3u);  // t = 30, 60, 90 s
  EXPECT_EQ(scenario->samples()[0].at, TimePoint{seconds(30)});
  // Sampler keeps aggregates only.
  for (const MetricValue& v : scenario->samples()[0].values) {
    EXPECT_NE(v.name.substr(0, 5), "node.") << v.name;
  }
  // Counters are non-decreasing across samples.
  EXPECT_LE(scenario->samples()[0].find("medium.transmissions")->count,
            scenario->samples()[2].find("medium.transmissions")->count);
}

TEST(Scenario, TraceIsDeterministicAndPhased) {
  auto run = [] {
    auto scenario = sim::ScenarioBuilder{}
                        .devices(3)
                        .duty_cycle(seconds(10))
                        .trace(true)
                        .build();
    scenario->run_until(TimePoint{seconds(35)});
    return scenario;
  };
  auto a = run();
  auto b = run();

  const auto& ea = a->tracer().events();
  const auto& eb = b->tracer().events();
  ASSERT_FALSE(ea.empty());
  ASSERT_EQ(ea.size(), eb.size());
  bool saw_cycle = false, saw_tx = false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].at_us, eb[i].at_us);
    EXPECT_EQ(ea[i].node, eb[i].node);
    EXPECT_EQ(ea[i].phase, eb[i].phase);
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    saw_cycle |= ea[i].phase == Phase::Cycle;
    saw_tx |= ea[i].phase == Phase::Tx;
  }
  EXPECT_TRUE(saw_cycle);
  EXPECT_TRUE(saw_tx);
}

}  // namespace
}  // namespace wile::telemetry
