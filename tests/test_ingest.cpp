// Ingest pipeline units: the flat open-addressing table, the
// controller's DeviceState record, the wile-batch-v1 uplink codec, and
// the gateway rules engine — plus the scenario wiring that feeds the
// engine from gateway deliveries.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/flat_table.hpp"
#include "wile/controller.hpp"
#include "wile/gateway.hpp"
#include "wile/rules/engine.hpp"
#include "wile/scenario.hpp"

namespace wile {
namespace {

// --- util::FlatTable ---------------------------------------------------------

TEST(FlatTable, InsertFindRoundTripIncludingKeyZero) {
  util::FlatTable<int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(0), nullptr);

  table.find_or_insert(0) = 41;    // device id 0 is a legal key
  table.find_or_insert(7) = 42;
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.find(0), nullptr);
  EXPECT_EQ(*table.find(0), 41);
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(*table.find(7), 42);
  EXPECT_EQ(table.find(8), nullptr);

  // find_or_insert on an existing key returns the same value.
  EXPECT_EQ(table.find_or_insert(7), 42);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatTable, GrowthPreservesEveryEntry) {
  util::FlatTable<std::uint32_t> table;
  constexpr std::uint32_t kN = 1000;
  for (std::uint32_t k = 0; k < kN; ++k) {
    table.find_or_insert(k * 2654435761u) = k;  // scattered keys
  }
  EXPECT_EQ(table.size(), kN);
  // Load factor stays <= 1/2 through doubling growth.
  EXPECT_GE(table.capacity(), 2 * kN);
  for (std::uint32_t k = 0; k < kN; ++k) {
    auto* v = table.find(k * 2654435761u);
    ASSERT_NE(v, nullptr) << "key " << k;
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatTable, IterationOrderIsAPureFunctionOfInsertions) {
  auto fill = [] {
    util::FlatTable<int> t;
    for (std::uint32_t k = 0; k < 300; ++k) t.find_or_insert(k * 7919u) = 1;
    return t;
  };
  util::FlatTable<int> a = fill();
  util::FlatTable<int> b = fill();
  std::vector<std::uint32_t> ka, kb;
  a.for_each([&](std::uint32_t k, int&) { ka.push_back(k); });
  b.for_each([&](std::uint32_t k, int&) { kb.push_back(k); });
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.size(), 300u);
}

// --- core::DeviceState -------------------------------------------------------

TEST(DeviceState, DownlinkQueueIsAllocatedOnFirstUse) {
  // A record that never queues a downlink stays flat: queue_downlink is
  // the first caller of queue().
  util::FlatTable<core::DeviceState> table;
  core::DeviceState& dev = table.find_or_insert(0xA00);
  EXPECT_EQ(dev.queued_downlinks, nullptr);
  EXPECT_FALSE(dev.has_queued());
  dev.queue().push_back(Bytes{'g', 'o'});
  EXPECT_TRUE(dev.has_queued());
  dev.queue().pop_front();
  EXPECT_FALSE(dev.has_queued());  // allocated but drained
  EXPECT_EQ(table.size(), 1u);
}

// --- core::ForwardedBatch ----------------------------------------------------

core::ForwardedReading make_reading(std::uint32_t id, std::uint32_t seq,
                                    std::size_t len) {
  core::ForwardedReading r;
  r.device_id = id;
  r.sequence = seq;
  r.rssi_dbm = -60;
  r.data = Bytes(len, static_cast<std::uint8_t>(seq));
  return r;
}

TEST(ForwardedBatch, RoundTripsMultipleReadings) {
  core::ForwardedBatch batch;
  for (std::uint32_t i = 0; i < 5; ++i) {
    batch.readings.push_back(make_reading(0x100 + i, i, 10 + i));
  }
  const auto decoded = core::ForwardedBatch::decode(batch.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->readings, batch.readings);
}

TEST(ForwardedBatch, EmptyBatchRoundTrips) {
  core::ForwardedBatch batch;
  const Bytes wire = batch.encode();
  EXPECT_EQ(wire.size(), core::ForwardedBatch::kHeaderSize);
  const auto decoded = core::ForwardedBatch::decode(wire);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->readings.empty());
}

TEST(ForwardedBatch, IncrementalArenaEncodeMatchesEncode) {
  core::ForwardedBatch batch;
  for (std::uint32_t i = 0; i < 3; ++i) {
    batch.readings.push_back(make_reading(0x200 + i, 40 + i, 8));
  }
  Bytes arena{0xDE, 0xAD};  // stale contents must be cleared by begin()
  core::ForwardedBatch::begin(arena);
  for (const auto& r : batch.readings) core::ForwardedBatch::append(arena, r);
  core::ForwardedBatch::finish(arena, batch.readings.size());
  EXPECT_EQ(arena, batch.encode());
}

TEST(ForwardedBatch, BatchAndLegacyEncodingsRejectEachOther) {
  // A batch of one can never be mis-decoded as a bare ForwardedReading
  // (its trailing-length check fails), and vice versa.
  core::ForwardedBatch batch;
  batch.readings.push_back(make_reading(0x300, 9, 12));
  EXPECT_FALSE(core::ForwardedReading::decode(batch.encode()));
  Bytes bare;
  batch.readings[0].encode_into(bare);
  EXPECT_FALSE(core::ForwardedBatch::decode(bare));
}

TEST(ForwardedBatch, RejectsMalformedPayloads) {
  core::ForwardedBatch batch;
  batch.readings.push_back(make_reading(0x400, 1, 6));
  Bytes wire = batch.encode();

  Bytes wrong_version = wire;
  wrong_version[0] = 2;
  EXPECT_FALSE(core::ForwardedBatch::decode(wrong_version));

  Bytes wrong_flags = wire;
  wrong_flags[1] = 1;
  EXPECT_FALSE(core::ForwardedBatch::decode(wrong_flags));

  Bytes trailing = wire;
  trailing.push_back(0x00);
  EXPECT_FALSE(core::ForwardedBatch::decode(trailing));

  Bytes truncated{wire.begin(), wire.end() - 1};
  EXPECT_FALSE(core::ForwardedBatch::decode(truncated));

  Bytes count_lies = wire;  // count says 2, only 1 record present
  count_lies[2] = 2;
  EXPECT_FALSE(core::ForwardedBatch::decode(count_lies));
}

TEST(ForwardedBatch, LengthPrefixedRecordsAreWholeUnits) {
  // Every record in the stream is independently decodable from its
  // length prefix — a batch boundary can never split a record.
  core::ForwardedBatch batch;
  for (std::uint32_t i = 0; i < 4; ++i) {
    batch.readings.push_back(make_reading(0x500 + i, i, 3 * i));
  }
  const Bytes wire = batch.encode();
  std::size_t off = core::ForwardedBatch::kHeaderSize;
  for (const auto& expected : batch.readings) {
    const std::size_t len = wire[off] | (wire[off + 1] << 8);
    const auto record = core::ForwardedReading::decode(
        BytesView{wire.data() + off + 2, len});
    ASSERT_TRUE(record);
    EXPECT_EQ(*record, expected);
    off += 2 + len;
  }
  EXPECT_EQ(off, wire.size());
}

// --- rules::Engine -----------------------------------------------------------

rules::Reading reading_at(double t_sec, std::uint32_t device, double value) {
  rules::Reading r;
  r.device_id = device;
  r.value = value;
  r.at = TimePoint{seconds(0)} + Duration{static_cast<std::int64_t>(t_sec * 1e6)};
  return r;
}

TEST(RulesEngine, ConditionNodeFiresAndCounts) {
  rules::RuleSpec spec;
  spec.name = "hot";
  spec.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 30.0};
  rules::Engine engine{{spec}};

  std::vector<rules::Fire> fires;
  engine.set_fire_callback([&](const rules::Fire& f) { fires.push_back(f); });

  engine.on_reading(reading_at(1, 7, 25.0));  // below threshold
  engine.on_reading(reading_at(2, 7, 35.0));  // fires
  engine.on_reading(reading_at(3, 8, 31.0));  // other device fires too

  EXPECT_EQ(engine.fired_total(), 2u);
  EXPECT_EQ(engine.fired("hot"), 2u);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0].device_id, 7u);
  EXPECT_DOUBLE_EQ(fires[0].observed, 35.0);
  EXPECT_FALSE(fires[0].stale);

  const auto& nodes = engine.nodes("hot");
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0].kind, rules::NodeKind::Condition);
  EXPECT_EQ(nodes[0].evaluated, 3u);
  EXPECT_EQ(nodes[0].passed, 2u);
  EXPECT_THROW((void)engine.nodes("no-such-rule"), std::out_of_range);
  EXPECT_THROW((void)engine.fired("no-such-rule"), std::out_of_range);
}

TEST(RulesEngine, ReadingsWithoutValueFailValueConditions) {
  rules::RuleSpec spec;
  spec.name = "v";
  spec.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Ge, 0.0};
  rules::Engine engine{{spec}};
  rules::Reading r;
  r.device_id = 1;
  r.at = TimePoint{seconds(1)};
  r.value = std::nullopt;
  engine.on_reading(r);
  EXPECT_EQ(engine.fired_total(), 0u);
}

TEST(RulesEngine, HoldNodeRequiresSustainedCondition) {
  rules::RuleSpec spec;
  spec.name = "sustained";
  spec.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 10.0};
  spec.hold = seconds(5);
  rules::Engine engine{{spec}};

  engine.on_reading(reading_at(0, 1, 20.0));  // streak starts, 0s < 5s
  engine.on_reading(reading_at(3, 1, 20.0));  // 3s < 5s
  EXPECT_EQ(engine.fired_total(), 0u);
  engine.on_reading(reading_at(6, 1, 20.0));  // 6s >= 5s: fires
  EXPECT_EQ(engine.fired_total(), 1u);

  // A failing reading resets the streak.
  engine.on_reading(reading_at(7, 1, 5.0));
  engine.on_reading(reading_at(8, 1, 20.0));   // new streak starts at 8s
  engine.on_reading(reading_at(11, 1, 20.0));  // 3s < 5s
  EXPECT_EQ(engine.fired_total(), 1u);
  engine.on_reading(reading_at(13, 1, 20.0));  // 5s >= 5s: fires again
  EXPECT_EQ(engine.fired_total(), 2u);
}

TEST(RulesEngine, CooldownNodeSpacesFiresPerDevice) {
  rules::RuleSpec spec;
  spec.name = "alert";
  spec.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 0.0};
  spec.cooldown = seconds(10);
  rules::Engine engine{{spec}};

  engine.on_reading(reading_at(0, 1, 1.0));   // fires (first)
  engine.on_reading(reading_at(4, 1, 1.0));   // suppressed
  engine.on_reading(reading_at(9, 1, 1.0));   // suppressed
  engine.on_reading(reading_at(5, 2, 1.0));   // other device: its own cooldown
  engine.on_reading(reading_at(10, 1, 1.0));  // 10s >= 10s: fires
  EXPECT_EQ(engine.fired("alert"), 3u);

  const auto& nodes = engine.nodes("alert");
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[1].kind, rules::NodeKind::Cooldown);
  EXPECT_EQ(nodes[1].evaluated, 5u);  // every condition pass reached it
  EXPECT_EQ(nodes[1].passed, 3u);
}

TEST(RulesEngine, AggregateWindowCountsAndEvicts) {
  rules::RuleSpec spec;
  spec.name = "burst";
  spec.aggregate =
      rules::AggregateSpec{rules::AggOp::Count, seconds(10), rules::Cmp::Ge, 3.0};
  rules::Engine engine{{spec}};

  engine.on_reading(reading_at(0, 1, 1.0));
  engine.on_reading(reading_at(1, 1, 1.0));
  EXPECT_EQ(engine.fired_total(), 0u);
  engine.on_reading(reading_at(2, 1, 1.0));  // 3 in window: fires
  EXPECT_EQ(engine.fired_total(), 1u);
  // 30s later the window has drained; two readings are not enough.
  engine.on_reading(reading_at(32, 1, 1.0));
  engine.on_reading(reading_at(33, 1, 1.0));
  EXPECT_EQ(engine.fired_total(), 1u);
  engine.on_reading(reading_at(34, 1, 1.0));
  EXPECT_EQ(engine.fired_total(), 2u);
}

TEST(RulesEngine, AggregateMeanOverConditionPassingReadings) {
  // The aggregate only accumulates readings that passed the condition.
  rules::RuleSpec spec;
  spec.name = "hot-mean";
  spec.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 0.0};
  spec.aggregate =
      rules::AggregateSpec{rules::AggOp::Mean, seconds(60), rules::Cmp::Gt, 20.0};
  rules::Engine engine{{spec}};

  std::vector<rules::Fire> fires;
  engine.set_fire_callback([&](const rules::Fire& f) { fires.push_back(f); });

  engine.on_reading(reading_at(0, 1, -5.0));  // fails condition: not accumulated
  engine.on_reading(reading_at(1, 1, 10.0));  // mean 10: no fire
  engine.on_reading(reading_at(2, 1, 40.0));  // mean 25: fires
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_DOUBLE_EQ(fires[0].observed, 25.0);  // aggregate result, not the raw value
}

TEST(RulesEngine, EveryAggregateOverAgingWindowsAcrossTableGrowth) {
  // One always-firing rule per AggOp over a 2 s window, so each fire
  // carries the aggregate of its device's window. 1,100 devices join in
  // groups over the first rounds: each rule's table grows from 1,024 to
  // 2,048 and then to 4,096 slots while the windows it moves hold
  // entries. A round is a second. A device sends one reading a round at
  // a fixed offset, or a burst of five 50 ms apart, and skips some
  // rounds, so a window holds 1 to 11 entries, and an entry exactly 2 s
  // old stays in. Round 8 comes after a 5 s gap that ages every window
  // out.
  constexpr std::uint32_t kDevices = 1100;
  constexpr int kRounds = 10;
  const Duration window = seconds(2);
  const rules::AggOp ops[] = {rules::AggOp::Count, rules::AggOp::Sum, rules::AggOp::Mean,
                              rules::AggOp::Min, rules::AggOp::Max};
  std::vector<rules::RuleSpec> specs;
  for (const rules::AggOp op : ops) {
    rules::RuleSpec spec;
    spec.name = std::to_string(static_cast<int>(op));
    spec.aggregate = rules::AggregateSpec{op, window, rules::Cmp::Ge, -1e300};
    specs.push_back(spec);
  }
  rules::Engine engine{specs};
  std::vector<rules::Fire> fires;
  engine.set_fire_callback([&](const rules::Fire& f) { fires.push_back(f); });

  // Values a tenth apart do not add exactly, so the sums below pin the
  // oldest-first order as well as the window's contents.
  const auto value = [](std::uint32_t d, std::uint32_t k, std::uint32_t j) {
    return static_cast<double>((d * 31 + k * 17 + j * 5) % 23) * 0.1 - 1.0;
  };
  std::vector<std::vector<std::pair<std::int64_t, double>>> sent(kDevices);
  std::size_t longest = 0;
  for (std::uint32_t k = 0; k < kRounds; ++k) {
    const std::int64_t round_us = (k < 8 ? k : k + 4) * std::int64_t{1'000'000};
    for (std::uint32_t d = 0; d < kDevices; ++d) {
      if (d / 160 > k || (d + k) % 5 == 0) continue;
      const std::uint32_t burst = (d + k) % 4 < 2 && d % 3 == 0 ? 5 : 1;
      for (std::uint32_t j = 0; j < burst; ++j) {
        rules::Reading r;
        r.device_id = d * 2654435761u;  // scattered ids
        r.value = value(d, k, j);
        r.at = TimePoint{Duration{round_us + (d % 3) * 100'000 + j * 50'000}};
        sent[d].emplace_back(r.at.us(), *r.value);
        const std::size_t before = fires.size();
        engine.on_reading(r);
        ASSERT_EQ(fires.size(), before + std::size(ops)) << "device " << d << " round " << k;

        // The window as the reference sees it: every reading of d no
        // older than the window, oldest first.
        const std::int64_t horizon = r.at.us() - window.count();
        double count = 0.0, sum = 0.0;
        double lo = std::numeric_limits<double>::infinity(), hi = -lo;
        for (const auto& [t, v] : sent[d]) {
          if (t < horizon) continue;
          count += 1.0;
          sum += v;
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        longest = std::max(longest, static_cast<std::size_t>(count));
        const double expected[] = {count, sum, sum / count, lo, hi};
        for (std::size_t i = 0; i < std::size(ops); ++i) {
          const rules::Fire& f = fires[before + i];
          EXPECT_EQ(f.rule, specs[i].name);
          EXPECT_EQ(f.device_id, r.device_id);
          EXPECT_EQ(f.observed, expected[i])
              << "op " << specs[i].name << " device " << d << " round " << k << " reading " << j;
        }
      }
    }
  }
  EXPECT_EQ(engine.fired_total(), fires.size());
  EXPECT_EQ(longest, 11u);
}

TEST(RulesEngine, StaleWatchdogFiresOncePerSilence) {
  rules::RuleSpec spec;
  spec.name = "quiet";
  spec.stale_after = seconds(30);
  rules::Engine engine{{spec}};

  std::vector<rules::Fire> fires;
  engine.set_fire_callback([&](const rules::Fire& f) { fires.push_back(f); });

  engine.on_reading(reading_at(0, 9, 1.0));
  engine.poll(TimePoint{seconds(20)});  // not yet stale
  EXPECT_TRUE(fires.empty());
  engine.poll(TimePoint{seconds(31)});  // stale: fires
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_TRUE(fires[0].stale);
  EXPECT_EQ(fires[0].device_id, 9u);
  EXPECT_DOUBLE_EQ(fires[0].observed, 31.0);  // silence duration in seconds
  engine.poll(TimePoint{seconds(60)});  // same silence: no re-fire
  EXPECT_EQ(fires.size(), 1u);

  // A new reading re-arms the watchdog.
  engine.on_reading(reading_at(70, 9, 1.0));
  engine.poll(TimePoint{seconds(101)});
  EXPECT_EQ(fires.size(), 2u);
}

TEST(RulesEngine, DefaultValueExtractorDecodesLittleEndian) {
  rules::RuleSpec spec;
  spec.name = "le";
  spec.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Eq, 0x1234};
  rules::Engine engine{{spec}};

  core::Message msg;
  msg.device_id = 1;
  msg.data = Bytes{0x34, 0x12, 0xFF};  // u16le from the first two bytes
  engine.on_message(msg, -70.0, TimePoint{seconds(1)});
  EXPECT_EQ(engine.fired_total(), 1u);

  msg.data = Bytes{0x34};  // single byte
  rules::RuleSpec single;
  single.name = "b";
  single.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Eq, 0x34};
  rules::Engine engine2{{single}};
  engine2.on_message(msg, -70.0, TimePoint{seconds(1)});
  EXPECT_EQ(engine2.fired_total(), 1u);

  msg.data.clear();  // empty payload: no value, condition fails
  rules::Engine engine3{{single}};
  engine3.on_message(msg, -70.0, TimePoint{seconds(1)});
  EXPECT_EQ(engine3.fired_total(), 0u);
}

TEST(RulesEngine, PublishMetricsExposesPerNodeCounters) {
  rules::RuleSpec spec;
  spec.name = "hot";
  spec.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 30.0};
  spec.cooldown = seconds(1);
  rules::Engine engine{{spec}};
  telemetry::MetricsRegistry registry;
  engine.publish_metrics(registry, "rules");

  engine.on_reading(reading_at(1, 7, 35.0));
  engine.on_reading(reading_at(2, 7, 25.0));

  const telemetry::Snapshot snap = registry.snapshot(TimePoint{});
  const auto count = [&snap](std::string_view name) {
    const telemetry::MetricValue* v = snap.find(name);
    EXPECT_NE(v, nullptr) << name;
    return v != nullptr ? v->count : 0;
  };
  EXPECT_EQ(count("rules.fired"), 1u);
  EXPECT_EQ(count("rules.hot.fired"), 1u);
  EXPECT_EQ(count("rules.hot.condition.evaluated"), 2u);
  EXPECT_EQ(count("rules.hot.condition.passed"), 1u);
  EXPECT_EQ(count("rules.hot.cooldown.passed"), 1u);
}

// --- scenario wiring ---------------------------------------------------------

TEST(ScenarioRules, EngineSeesEveryGatewayDelivery) {
  rules::RuleSpec every;
  every.name = "any-reading";
  every.when = rules::ConditionSpec{rules::Field::Sequence, rules::Cmp::Ge, 0.0};

  auto scenario = sim::ScenarioBuilder{}
                      .devices(4)
                      .gateways(1)
                      .duty_cycle(seconds(30))
                      .seed(0xF1EE)
                      .medium_seed(0xF1EE)
                      .rules({every})
                      .build();
  scenario->run_until(TimePoint{minutes(5)});

  ASSERT_NE(scenario->rules(), nullptr);
  EXPECT_GT(scenario->messages(), 0u);
  EXPECT_EQ(scenario->rules()->fired_total(), scenario->messages());
  const telemetry::Snapshot snap = scenario->snapshot();
  ASSERT_NE(snap.find("rules.fired"), nullptr);
  EXPECT_EQ(snap.find("rules.fired")->count, scenario->rules()->fired_total());
}

TEST(ScenarioRules, StalePollCatchesSilencedFleet) {
  rules::RuleSpec quiet;
  quiet.name = "gone-quiet";
  quiet.stale_after = seconds(60);

  auto scenario = sim::ScenarioBuilder{}
                      .devices(2)
                      .gateways(1)
                      .duty_cycle(seconds(20))
                      .seed(0xF1EF)
                      .medium_seed(0xF1EF)
                      .rules({quiet})
                      .rules_poll_every(seconds(5))
                      .build();
  scenario->run_until(TimePoint{minutes(2)});
  EXPECT_EQ(scenario->rules()->fired("gone-quiet"), 0u);

  scenario->stop_all();
  scenario->run_for(minutes(2));  // fleet silent well past stale_after
  EXPECT_EQ(scenario->rules()->fired("gone-quiet"), 2u);  // once per device
}

TEST(ScenarioRules, ParallelModeRejectsRules) {
  rules::RuleSpec spec;
  spec.name = "r";
  spec.when = rules::ConditionSpec{};
  EXPECT_THROW(sim::ScenarioBuilder{}.devices(4).threads(2).rules({spec}).build(),
               std::invalid_argument);
}

TEST(ScenarioRules, BleModeRejectsRules) {
  // BleScanners deliver advertising PDUs, never Wi-LE messages, so an
  // engine on a BLE fleet would only ever run its staleness poll.
  rules::RuleSpec spec;
  spec.name = "r";
  spec.when = rules::ConditionSpec{};
  EXPECT_THROW(
      sim::ScenarioBuilder{}.devices(4).mode(TxMode::Ble).rules({spec}).build(),
      std::invalid_argument);
}

}  // namespace
}  // namespace wile
