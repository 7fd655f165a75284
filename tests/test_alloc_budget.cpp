// Allocation budget of a steady-state Wi-LE duty cycle.
//
// The paper's device inserts only its data into a beacon whose headers
// are precomputed (§5.4); the simulated sender keeps that property on
// the heap. After warm-up, a cycle may allocate its payload provider's
// Bytes plus one FrameBuffer per transmission, and nothing else: the
// beacon train, the CSMA queue slot and every continuation reuse
// storage from earlier cycles.
//
// A gateway in range keeps the same discipline: it decodes each beacon in
// place and allocates only the message it delivers.
//
// A fleet device's footprint is guarded too: the size of a Sender, the
// live heap a plain fleet device holds, what per-node metrics add, and
// what gateways and rules keep for it.
//
// This binary replaces the global operator new/delete with counting
// malloc wrappers, so it is its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "wile/receiver.hpp"
#include "wile/scenario.hpp"
#include "wile/sender.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
// Live blocks and requested bytes; over-aligned requests are not counted.
std::atomic<std::int64_t> g_live_blocks{0};
std::atomic<std::int64_t> g_live_bytes{0};

// Each block carries a 16-byte header holding its request size, which
// keeps the alignment malloc gives.
constexpr std::size_t kHeader = 16;

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (auto* p = static_cast<std::size_t*>(std::malloc(n + kHeader))) {
    *p = n;
    g_live_blocks.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
    return static_cast<char*>(static_cast<void*>(p)) + kHeader;
  }
  throw std::bad_alloc{};
}

void counted_free(void* q) noexcept {
  if (q == nullptr) return;
  void* p = static_cast<char*>(q) - kHeader;
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace wile::core {
namespace {

struct Tally {
  std::uint64_t allocations = 0;
  std::uint64_t cycles = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t delivered = 0;  // messages the gateway handed its callback
};

/// One sender on its channel, a 1 s period, a bounded power timeline and
/// a provider that returns a fresh Bytes each cycle. With `gateway`, a
/// Receiver 1 m away decodes every beacon and counts the messages it
/// delivers; without, no listener is in range. Warm up for `warm_up`,
/// then count over 200 cycles.
Tally steady_state(void (*configure)(SenderConfig&), std::size_t payload_bytes,
                   bool gateway = false, Duration warm_up = seconds(60)) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  SenderConfig cfg;
  cfg.period = seconds(1);
  cfg.timeline_max_segments = 16;
  configure(cfg);
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  std::uint64_t delivered = 0;
  std::optional<Receiver> receiver;
  if (gateway) {
    receiver.emplace(scheduler, medium, sim::Position{1, 0});
    receiver->set_message_callback([&delivered](const Message&, const RxMeta&) { ++delivered; });
  }
  sender.start_duty_cycle([payload_bytes] { return Bytes(payload_bytes, 0x5a); });

  scheduler.run_until(TimePoint{warm_up + msec(500)});
  const std::uint64_t cycles0 = sender.cycles_run();
  const std::uint64_t tx0 = medium.stats().transmissions;
  const std::uint64_t delivered0 = delivered;
  const std::uint64_t alloc0 = g_allocations.load(std::memory_order_relaxed);
  scheduler.run_until(TimePoint{warm_up + seconds(200) + msec(500)});
  Tally t;
  t.allocations = g_allocations.load(std::memory_order_relaxed) - alloc0;
  t.cycles = sender.cycles_run() - cycles0;
  t.transmissions = medium.stats().transmissions - tx0;
  t.delivered = delivered - delivered0;
  // The bounded history never reserves room beyond its bound.
  EXPECT_LE(sender.timeline().segments().capacity(), 16u);
  sender.stop_duty_cycle();
  return t;
}

TEST(AllocBudget, OneBeaconPerCycle) {
  const Tally t = steady_state([](SenderConfig&) {}, 16);
  EXPECT_EQ(t.cycles, 200u);
  EXPECT_EQ(t.transmissions, 200u);
  EXPECT_LE(t.allocations, t.cycles + t.transmissions);
}

TEST(AllocBudget, RepeatsReSendTheSameBeacon) {
  const Tally t = steady_state([](SenderConfig& c) { c.redundancy.repeats = 3; }, 16);
  EXPECT_EQ(t.cycles, 200u);
  EXPECT_EQ(t.transmissions, 600u);
  EXPECT_LE(t.allocations, t.cycles + t.transmissions);
}

TEST(AllocBudget, FragmentedMessage) {
  // 600 B needs three vendor elements, each in its own beacon.
  const Tally t = steady_state([](SenderConfig&) {}, 600);
  EXPECT_EQ(t.cycles, 200u);
  EXPECT_EQ(t.transmissions, 600u);
  EXPECT_LE(t.allocations, t.cycles + t.transmissions);
}

TEST(AllocBudget, RawInjectionWithoutCsma) {
  const Tally t = steady_state([](SenderConfig& c) { c.use_csma = false; }, 16);
  EXPECT_EQ(t.cycles, 200u);
  EXPECT_EQ(t.transmissions, 200u);
  EXPECT_LE(t.allocations, t.cycles + t.transmissions);
}

TEST(AllocBudget, GatewayInRange) {
  // Past the gateway's 64-slot FEC payload history, whose two arrays then
  // stop growing: each beacon is decoded in place, and the only
  // allocation on the receive side is the message delivered.
  const Tally t = steady_state([](SenderConfig&) {}, 16, /*gateway=*/true, seconds(100));
  EXPECT_EQ(t.cycles, 200u);
  EXPECT_EQ(t.transmissions, 200u);
  EXPECT_EQ(t.delivered, 200u);
  EXPECT_LE(t.allocations, t.cycles + t.transmissions + t.delivered);
}

TEST(AllocBudget, GatewayDecodesRecoveryBeacons) {
  // A recovery_k = 4 sender sends a Recovery beacon every second cycle.
  // The gateway allocates the message of each delivery and, per Recovery
  // beacon, the reassembled message and the decoded container's two
  // arrays. Finding that nothing in the group is missing allocates
  // nothing more. The sender's own allocations are those of the same
  // sender with no gateway in range.
  const auto fec = [](SenderConfig& c) { c.redundancy.recovery_k = 4; };
  const Tally alone = steady_state(fec, 16, /*gateway=*/false, seconds(100));
  const Tally t = steady_state(fec, 16, /*gateway=*/true, seconds(100));
  EXPECT_EQ(t.cycles, 200u);
  EXPECT_EQ(t.transmissions, 300u);
  EXPECT_EQ(t.delivered, 200u);
  ASSERT_EQ(alone.transmissions, t.transmissions);
  const std::uint64_t recovery_beacons = t.transmissions - t.cycles;
  EXPECT_LE(t.allocations - alone.allocations, t.delivered + 3 * recovery_beacons);
}

TEST(AllocBudget, PlainFleetDeviceFootprint) {
  // The Csma lives inside the Sender; the config, beacon prefix and codec
  // live in the fleet's one profile, and the callbacks a plain device
  // never receives in its cold block.
  EXPECT_LE(sizeof(Sender), 648u);

  // A fleet in the benchmark's serial shape (5 m grid, a gateway per
  // 2,500 devices, 60 s period, 64-segment power history, telemetry off,
  // a provider whose capture outgrows std::function's inline buffer),
  // 4,000 devices after 600 s. Live heap per device, fleet structures
  // included: a device asleep holds no frame, so what is left is the
  // Sender, its segment history, its CSMA ring, its provider and its
  // train's storage.
  constexpr int kDevices = 4000;
  const std::int64_t blocks0 = g_live_blocks.load(std::memory_order_relaxed);
  const std::int64_t bytes0 = g_live_bytes.load(std::memory_order_relaxed);
  auto scenario =
      sim::ScenarioBuilder{}
          .devices(kDevices)
          .grid_spacing_m(5.0)
          .gateway_every(2500)
          .duty_cycle(seconds(60))
          .timeline_max_segments(64)
          .telemetry(false)
          .payload_provider([](int i) -> Sender::PayloadProvider {
            return [i, seed = std::uint64_t{0x5eed}, cycle = std::uint32_t{0}]() mutable {
              const std::uint64_t fill = seed + static_cast<std::uint64_t>(i) + cycle++;
              return Bytes(16, static_cast<std::uint8_t>(fill));
            };
          })
          .build();
  scenario->run_until(TimePoint{seconds(600)});
  const double blocks =
      static_cast<double>(g_live_blocks.load(std::memory_order_relaxed) - blocks0) / kDevices;
  const double bytes =
      static_cast<double>(g_live_bytes.load(std::memory_order_relaxed) - bytes0) / kDevices;
  EXPECT_LE(blocks, 5.3);
  EXPECT_LE(bytes, 2550.0);
}

struct Footprint {
  double blocks = 0.0;  // live heap blocks per device
  double bytes = 0.0;   // live requested bytes per device
};

/// A fleet in the benchmark's telemetry_rules shape: a 5 m grid, a 5 s
/// period and a 64-segment power history.
struct FleetShape {
  int devices = 1000;
  int sim_seconds = 60;
  int gateway_every = 100;  // 0 = one gateway
  bool rules = true;        // the 3-rule chain, polled every second
  bool telemetry = true;    // a 10 s sampler
  bool per_node = true;     // per-node metrics, with telemetry
};

/// Build and run a fleet of `shape`, and return the live heap it holds
/// per device at the end.
Footprint telemetry_fleet_footprint(const FleetShape& shape) {
  std::vector<rules::RuleSpec> chain(3);
  chain[0].name = "hot-held";
  chain[0].when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 40000.0};
  chain[0].hold = seconds(10);
  chain[1].name = "burst";
  chain[1].aggregate = rules::AggregateSpec{rules::AggOp::Count, seconds(30), rules::Cmp::Ge, 8.0};
  chain[2].name = "weak-signal";
  chain[2].when = rules::ConditionSpec{rules::Field::RssiDbm, rules::Cmp::Lt, -85.0};
  chain[2].cooldown = seconds(60);

  const std::int64_t blocks0 = g_live_blocks.load(std::memory_order_relaxed);
  const std::int64_t bytes0 = g_live_bytes.load(std::memory_order_relaxed);
  sim::ScenarioBuilder builder;
  builder.devices(shape.devices)
      .grid_spacing_m(5.0)
      .duty_cycle(seconds(5))
      .timeline_max_segments(64)
      .telemetry(shape.telemetry)
      .per_node_metrics(shape.per_node);
  if (shape.gateway_every > 0) {
    builder.gateway_every(shape.gateway_every);
  } else {
    builder.gateways(1);
  }
  if (shape.rules) builder.rules(std::move(chain)).rules_poll_every(seconds(1));
  if (shape.telemetry) builder.sample_every(seconds(10));
  auto scenario = builder.build();
  scenario->run_until(TimePoint{seconds(shape.sim_seconds)});
  const auto per_device = [&shape](std::int64_t delta) {
    return static_cast<double>(delta) / shape.devices;
  };
  Footprint f;
  f.blocks = per_device(g_live_blocks.load(std::memory_order_relaxed) - blocks0);
  f.bytes = per_device(g_live_bytes.load(std::memory_order_relaxed) - bytes0);
  return f;
}

TEST(AllocBudget, PerNodeTelemetryFootprint) {
  // Per-node metrics are rows of their components' schemas: a device
  // costs a row in the registry's node table and its histograms'
  // buckets, not a named entry per metric.
  const Footprint with = telemetry_fleet_footprint({});
  const Footprint without = telemetry_fleet_footprint({.per_node = false});
  EXPECT_LE(with.blocks - without.blocks, 1.5);
  EXPECT_LE(with.bytes - without.bytes, 256.0);
}

TEST(AllocBudget, IngestStateFootprint) {
  // What the ingest side keeps for a device: the registry record and FEC
  // payload history of each gateway that hears it, and its state in each
  // rule. A gateway per 100 devices and the 3-rule chain, minus one
  // gateway and no rules, telemetry off. A payload history is two blocks
  // however many payloads it holds, and a rule's empty slots hold no
  // heap.
  const Footprint ingest = telemetry_fleet_footprint({.sim_seconds = 300, .telemetry = false});
  const Footprint bare = telemetry_fleet_footprint(
      {.sim_seconds = 300, .gateway_every = 0, .rules = false, .telemetry = false});
  EXPECT_LE(ingest.blocks - bare.blocks, 4.0);
  EXPECT_LE(ingest.bytes - bare.bytes, 1200.0);
}

}  // namespace
}  // namespace wile::core
