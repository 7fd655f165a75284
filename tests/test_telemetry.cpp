// Telemetry subsystem + ScenarioBuilder facade (DESIGN.md §10).
//
// Pins the contracts the rest of the repo builds on:
//  * registry register/lookup/snapshot semantics, including the
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

TEST(MetricsRegistry, BindLookupSnapshot) {
  MetricsRegistry reg;
  std::uint64_t tx = 0;
  double temp = 21.5;
  reg.bind_counter("medium.transmissions", &tx);
  reg.bind_gauge_fn("env.temperature_c", [&temp] { return temp; });
  reg.bind_counter_fn("derived.twice_tx", [&tx] { return 2 * tx; });

  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.contains("medium.transmissions"));
  EXPECT_FALSE(reg.contains("medium.nope"));

  tx = 41;
  temp = -3.25;
  EXPECT_EQ(reg.counter_value("medium.transmissions"), 41u);
  EXPECT_EQ(reg.counter_value("derived.twice_tx"), 82u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("env.temperature_c"), -3.25);

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
  EXPECT_EQ(snap.find("missing"), nullptr);

  // A snapshot is a copy: later increments don't alter it.
  tx = 1000;
  EXPECT_EQ(snap.find("medium.transmissions")->count, 41u);
}

TEST(MetricsRegistry, DuplicateNameThrows) {
  MetricsRegistry reg;
  std::uint64_t a = 0, b = 0;
  reg.bind_counter("x.y", &a);
  EXPECT_THROW(reg.bind_counter("x.y", &b), std::logic_error);
  // histogram() is get-or-create, not a duplicate registration.
  Histogram* h1 = reg.histogram("x.h");
  Histogram* h2 = reg.histogram("x.h");
  EXPECT_EQ(h1, h2);
}

TEST(Histogram, BucketsAndMoments) {
  Histogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1
  h.record(7);    // bucket 3: [4, 8)
  h.record(8);    // bucket 4: [8, 16)
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 16u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[4], 1u);
}

// --- export -----------------------------------------------------------------

// Per-node metrics are grouped by node id in first-appearance order, each
// node's metrics in registration order, however the ids interleave. The
// literal was produced by the exporter that rescanned the snapshot once
// per node.
TEST(Export, NodeSectionGroupsInterleavedIdsInFirstAppearanceOrder) {
  MetricsRegistry reg;
  std::uint64_t cycles10 = 3, cycles2 = 5, tx = 7, beacons2 = 11, beacons10 = 13;
  double energy10 = 0.25;
  reg.bind_counter("node.10.sender.cycles", &cycles10);
  reg.bind_counter("node.2.sender.cycles", &cycles2);
  reg.bind_counter("medium.transmissions", &tx);
  reg.bind_gauge_fn("node.10.energy_j", [&energy10] { return energy10; });
  reg.bind_counter("node.2.sender.beacons", &beacons2);
  reg.bind_counter("node.10.sender.beacons", &beacons10);
  reg.histogram("gateway.latency_us")->record(6);

  ExportMeta meta;
  meta.bench = "export_grouping";
  EXPECT_EQ(to_json(reg.snapshot(TimePoint{seconds(3)}), {}, meta),
            "{\n"
            "  \"schema\": \"wile-telemetry-v1\",\n"
            "  \"bench\": \"export_grouping\",\n"
            "  \"sim_time_us\": 3000000,\n"
            "  \"meta\": {},\n"
            "  \"aggregates\": {\"medium.transmissions\": 7},\n"
            "  \"histograms\": {\"gateway.latency_us\": {\"count\": 1, \"sum\": 6, "
            "\"min\": 6, \"max\": 6, \"mean\": 6, \"buckets\": {\"3\": 1}}},\n"
            "  \"nodes\": [\n"
            "    {\"node\": 10, \"metrics\": {\"sender.cycles\": 3, \"energy_j\": 0.25, "
            "\"sender.beacons\": 13}},\n"
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
  reg.bind_counter("agg.ticks", &ticks);
  reg.bind_counter("node.3.sender.cycles", &ticks);  // filtered out by default

  PeriodicSampler<sim::Scheduler> sampler{scheduler, reg, seconds(1)};
  sampler.start();
  scheduler.schedule_at(TimePoint{msec(2500)}, [&ticks] { ticks = 9; });
  scheduler.run_until(TimePoint{msec(4500)});

  // Samples at t=1,2,3,4 s.
  ASSERT_EQ(sampler.samples().size(), 4u);
  EXPECT_EQ(sampler.samples()[1].at, TimePoint{seconds(2)});
  EXPECT_EQ(sampler.samples()[1].find("agg.ticks")->count, 0u);
  EXPECT_EQ(sampler.samples()[3].find("agg.ticks")->count, 9u);
  // Default filter keeps aggregates only.
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

  MetricsRegistry& reg = scenario->metrics();
  std::uint64_t tx_total = 0;
  for (const auto& s : scenario->devices()) {
    const std::string p = "node." + std::to_string(s->node_id()) + ".sender";
    ASSERT_TRUE(reg.contains(p + ".cycles")) << p;
    EXPECT_EQ(reg.counter_value(p + ".cycles"), s->cycles_run());
    EXPECT_EQ(reg.counter_value(p + ".tx.beacons"), s->beacons_sent());
    EXPECT_EQ(reg.counter_value(p + ".tx.airtime_us"),
              static_cast<std::uint64_t>(s->tx_airtime_total().count()));
    // Integrated energy over the whole run: every device slept if nothing
    // else, so the gauge is strictly positive.
    EXPECT_GT(reg.gauge_value(p + ".energy_j"), 0.0);
    tx_total += s->beacons_sent();
  }
  EXPECT_EQ(tx_total, scenario->medium().stats().transmissions);

  for (const auto& r : scenario->gateways()) {
    const std::string p = "node." + std::to_string(r->node_id()) + ".receiver";
    ASSERT_TRUE(reg.contains(p + ".messages"));
    EXPECT_EQ(reg.counter_value(p + ".messages"), r->stats().messages);
    EXPECT_EQ(reg.counter_value(p + ".beacons_seen"), r->stats().beacons_seen);
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
