// Microbenchmarks (google-benchmark) for the hot paths of the library:
// the Wi-LE payload codec, the 802.11 frame codec, the crypto
// primitives, and the discrete-event simulator core.
//
// These are not paper experiments; they document the cost of the
// building blocks so downstream users can budget for them (e.g. a
// gateway decoding thousands of Wi-LE beacons per second).
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/aes_modes.hpp"
#include "crypto/pbkdf2.hpp"
#include "crypto/sha1.hpp"
#include "dot11/frame.hpp"
#include "phy/channel.hpp"
#include "sim/medium.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"
#include "wile/codec.hpp"
#include "wile/controller.hpp"
#include "wile/rules/engine.hpp"
#include "wile/sender.hpp"

using namespace wile;

namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

void BM_WileEncode(benchmark::State& state) {
  core::Codec codec;
  core::Message msg;
  msg.device_id = 7;
  msg.data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    msg.sequence++;
    benchmark::DoNotOptimize(codec.encode(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WileEncode)->Arg(16)->Arg(235)->Arg(1024);

void BM_WileDecode(benchmark::State& state) {
  core::Codec codec;
  core::Message msg;
  msg.device_id = 7;
  msg.data = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  const auto ies = codec.encode(msg);
  for (auto _ : state) {
    for (const auto& ie : ies) benchmark::DoNotOptimize(codec.decode(ie.data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WileDecode)->Arg(16)->Arg(235)->Arg(1024);

void BM_WileEncodeEncrypted(benchmark::State& state) {
  core::Codec codec{Bytes(16, 0x42)};
  core::Message msg;
  msg.device_id = 7;
  msg.data = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    msg.sequence++;
    benchmark::DoNotOptimize(codec.encode(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WileEncodeEncrypted)->Arg(16)->Arg(227);

void BM_WileDutyCycle(benchmark::State& state) {
  // One sender's steady-state cycle: wake, Codec::write_element into the
  // reused beacon train, CSMA, one transmission on the medium, sleep.
  // Nothing listens, so this is the sender's transmit path alone. The
  // argument is the payload size (16 B = one beacon, 600 B = three).
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{23}};
  core::SenderConfig cfg;
  cfg.period = seconds(1);
  cfg.timeline_max_segments = 16;
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{24}};
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));
  sender.start_duty_cycle([payload_bytes] { return Bytes(payload_bytes, 0x5a); });
  TimePoint t{msec(500)};
  for (int warm = 0; warm < 60; ++warm) {
    t = t + seconds(1);
    scheduler.run_until(t);
  }
  for (auto _ : state) {
    t = t + seconds(1);
    scheduler.run_until(t);
  }
  if (medium.stats().transmissions == 0) state.SkipWithError("sender transmitted nothing");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WileDutyCycle)->Arg(16)->Arg(600);

void BM_BeaconAssembleParse(benchmark::State& state) {
  dot11::Beacon beacon;
  beacon.ies.add(dot11::make_ssid_ie(""));
  beacon.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  beacon.ies.add(dot11::make_ds_param_ie(6));
  const Bytes body = beacon.encode();
  const MacAddress mac = MacAddress::from_seed(1);
  for (auto _ : state) {
    const Bytes mpdu =
        dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Beacon, MacAddress::broadcast(), mac,
                               mac, 1, body);
    benchmark::DoNotOptimize(dot11::parse_mpdu(mpdu));
  }
}
BENCHMARK(BM_BeaconAssembleParse);

void BM_Sha1(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesCtr(benchmark::State& state) {
  crypto::Aes128 aes{Bytes(16, 0x11)};
  std::array<std::uint8_t, 12> nonce{};
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_ctr(aes, nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(64)->Arg(1024);

void BM_Wpa2PskDerivation(benchmark::State& state) {
  // 4096 PBKDF2 iterations — the cost the ESP32 caches in NVS.
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::wpa2_psk("hotnets2019", "GoogleWifi"));
  }
}
BENCHMARK(BM_Wpa2PskDerivation)->Unit(benchmark::kMillisecond);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler scheduler;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      scheduler.schedule_in(usec(i), [&fired] { ++fired; });
    }
    scheduler.run_until_idle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerChurnCancel(benchmark::State& state) {
  // Cancel-heavy workload: every CSMA backoff and every guard timer in
  // the protocol stack schedules-then-cancels. Two of every three
  // events here are cancelled before they fire.
  for (auto _ : state) {
    sim::Scheduler scheduler;
    int fired = 0;
    std::vector<sim::EventId> ids;
    ids.reserve(3000);
    for (int i = 0; i < 3000; ++i) {
      ids.push_back(scheduler.schedule_in(usec(i), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 3000; ++i) {
      if (i % 3 != 0) scheduler.cancel(ids[static_cast<std::size_t>(i)]);
    }
    scheduler.run_until_idle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 3000);
}
BENCHMARK(BM_SchedulerChurnCancel);

void BM_SchedulerRunUntil(benchmark::State& state) {
  // Bounded-horizon stepping, the fleet-bench inner loop: a recurring
  // event reschedules itself while run_until repeatedly hits deadlines
  // with work left in the queue.
  for (auto _ : state) {
    sim::Scheduler scheduler;
    std::uint64_t ticks = 0;
    std::function<void()> tick = [&] {
      ++ticks;
      scheduler.schedule_in(usec(10), tick);
    };
    scheduler.schedule_in(usec(0), tick);
    for (int horizon = 1; horizon <= 100; ++horizon) {
      scheduler.run_until(TimePoint{usec(horizon * 100)});
    }
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerRunUntil);

class CountingClient final : public sim::MediumClient {
 public:
  void on_frame(const sim::RxFrame& frame) override {
    bytes += frame.mpdu.size();
    ++frames;
  }
  void on_corrupt_frame(const sim::RxFrame&, bool) override { ++corrupt; }
  [[nodiscard]] bool rx_enabled() const override { return true; }
  std::uint64_t frames = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t bytes = 0;
};

void BM_MediumBroadcast(benchmark::State& state) {
  // N listeners packed within audible range of each other: the delivery
  // fan-out cost per frame (spatial query + rx power + shared-buffer
  // handoff + PER draw per receiver). The second input picks who sends:
  // 0 = node 0 sends every frame, so only its N links are ever used;
  // 1 = every node transmits in turn, as in a dense hall, so the frames
  // span all ~N^2/2 links, the working set any per-link state would have
  // to hold.
  const int n_rx = static_cast<int>(state.range(0));
  const bool rotate = state.range(1) != 0;
  sim::Scheduler scheduler;
  phy::Channel channel{};
  sim::Medium medium{scheduler, channel, Rng{17}};

  std::vector<std::unique_ptr<CountingClient>> clients;
  std::vector<sim::NodeId> ids;
  clients.push_back(std::make_unique<CountingClient>());
  ids.push_back(medium.attach(clients.back().get(), {0, 0}));
  const int side = static_cast<int>(std::ceil(std::sqrt(n_rx)));
  for (int i = 0; i < n_rx; ++i) {
    clients.push_back(std::make_unique<CountingClient>());
    // 0.5 m spacing keeps even the 1000-listener square inside the ~25 m
    // carrier-sense range of every node in it.
    ids.push_back(medium.attach(clients.back().get(),
                                {1.0 + static_cast<double>(i % side) * 0.5,
                                 static_cast<double>(i / side) * 0.5}));
  }

  const Bytes payload(200, 0xBE);
  const auto send = [&](sim::NodeId from) {
    sim::TxRequest req;
    req.mpdu = payload;
    req.airtime = usec(100);
    req.rate = phy::WifiRate::Mcs7Sgi;
    medium.transmit(from, std::move(req));
    scheduler.run_until_idle();
  };
  // Untimed warm-up: every node sends once, so the timed frames see the
  // steady state of a hall that has been running for a while.
  for (const sim::NodeId id : ids) send(id);

  std::size_t sender = 0;
  for (auto _ : state) {
    send(ids[sender]);
    if (rotate) sender = (sender + 1) % ids.size();
  }
  state.SetItemsProcessed(state.iterations() * n_rx);
}
BENCHMARK(BM_MediumBroadcast)
    ->ArgNames({"listeners", "rotate"})
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({1000, 1});

void BM_MediumSparseFleet(benchmark::State& state) {
  // N nodes spread far apart, one transmission: the spatial grid should
  // make delivery cost independent of fleet size (the dense scan was
  // O(N) per transmission).
  const int n_nodes = static_cast<int>(state.range(0));
  sim::Scheduler scheduler;
  phy::Channel channel{};
  sim::Medium medium{scheduler, channel, Rng{18}};

  std::vector<std::unique_ptr<CountingClient>> nodes;
  const int side = static_cast<int>(std::ceil(std::sqrt(n_nodes)));
  sim::NodeId tx{};
  for (int i = 0; i < n_nodes; ++i) {
    nodes.push_back(std::make_unique<CountingClient>());
    // 100 m spacing: everyone is out of earshot of everyone.
    const sim::NodeId id = medium.attach(
        nodes.back().get(),
        {static_cast<double>(i % side) * 100.0, static_cast<double>(i / side) * 100.0});
    if (i == 0) tx = id;
  }

  const Bytes payload(32, 0xCD);
  for (auto _ : state) {
    sim::TxRequest req;
    req.mpdu = payload;
    req.airtime = usec(50);
    medium.transmit(tx, std::move(req));
    scheduler.run_until_idle();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumSparseFleet)->Arg(1000)->Arg(10000);

class DeafClient final : public sim::MediumClient {
 public:
  void on_frame(const sim::RxFrame&) override {}
  [[nodiscard]] bool rx_enabled() const override { return false; }
};

/// An armed WUR companion: listed and listening, but its OOK envelope
/// detector demodulates no 802.11 frame.
class CompanionClient final : public sim::MediumClient {
 public:
  void on_frame(const sim::RxFrame&) override {}
  [[nodiscard]] bool rx_enabled() const override { return true; }
  [[nodiscard]] bool demodulates(const std::optional<phy::WifiRate>& rate) const override {
    return !rate.has_value();
  }
};

void BM_MediumSleepingNeighbours(benchmark::State& state) {
  // One transmitter, one listening receiver and N neighbours, all in
  // earshot of the MCS7 frame: the Wi-LE fleet's shape, where almost
  // every radio in range cannot take the frame. The second input picks
  // the neighbours: 0 = deep-sleeping senders, which leave the listener
  // index; 1 = armed WUR companions (the hall_wur shape), which stay
  // listed and listening but cannot demodulate 802.11, and are filed as
  // rate-less when they list themselves, as a WUR companion does. Either
  // way no neighbour should cost an rx-power computation or a PER draw.
  const int n_neighbours = static_cast<int>(state.range(0));
  const bool companions = state.range(1) != 0;
  sim::Scheduler scheduler;
  phy::Channel channel{};
  sim::Medium medium{scheduler, channel, Rng{19}};

  CountingClient tx_client, rx_client;
  const sim::NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {1, 0});
  std::vector<std::unique_ptr<sim::MediumClient>> neighbours;
  const int side = static_cast<int>(std::ceil(std::sqrt(n_neighbours)));
  for (int i = 0; i < n_neighbours; ++i) {
    if (companions) {
      neighbours.push_back(std::make_unique<CompanionClient>());
    } else {
      neighbours.push_back(std::make_unique<DeafClient>());
    }
    const sim::NodeId id = medium.attach(
        neighbours.back().get(),
        {1.0 + static_cast<double>(i % side) * 0.5, static_cast<double>(i / side) * 0.5});
    medium.set_listening(id, companions);
  }

  const Bytes payload(200, 0xBE);
  for (auto _ : state) {
    sim::TxRequest req;
    req.mpdu = payload;
    req.airtime = usec(100);
    req.rate = phy::WifiRate::Mcs7Sgi;
    medium.transmit(tx, std::move(req));
    scheduler.run_until_idle();
    benchmark::DoNotOptimize(rx_client.frames);
  }
  if (rx_client.frames + rx_client.corrupt == 0) state.SkipWithError("receiver heard nothing");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumSleepingNeighbours)
    ->ArgNames({"neighbours", "companions"})
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({100, 1})
    ->Args({1000, 1});

void BM_ShardBoundary(benchmark::State& state) {
  // The cross-shard commit path of the parallel engine: route a
  // boundary transmission whose audible circle spans `span` stripes
  // into the ShardRouter's outboxes, then drain at every
  // destination in canonical merge order. This is the per-frame cost a
  // boundary node adds over an interior node.
  const int span = static_cast<int>(state.range(0));
  sim::ShardRouter router{8, 0.0, 80.0};
  sim::RemoteTx tx;
  tx.origin_node = sim::NodeId{1};
  tx.tx_power_dbm = 20.0;
  tx.mpdu = FrameBuffer{Bytes(200, 0xAB)};
  tx.airtime = usec(100);
  // Center the circle mid-domain; radius chosen so it overlaps `span`
  // stripes (stripe width 10 m).
  tx.origin = {40.0, 0.0};
  tx.audible_range_m = static_cast<double>(span) * 10.0 / 2.0 - 0.5;
  const std::size_t src = router.shard_of(tx.origin.x_m);

  std::vector<sim::BoundaryTx> drained;
  for (auto _ : state) {
    router.route(src, tx);
    for (std::size_t dst = 0; dst < 8; ++dst) {
      drained.clear();
      router.drain(dst, drained);
      benchmark::DoNotOptimize(drained.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * (span - 1));
}
BENCHMARK(BM_ShardBoundary)->Arg(2)->Arg(4)->Arg(8);

void BM_WindowBarrier(benchmark::State& state) {
  // Window-barrier round-trip for T workers: two arrive_and_wait calls
  // per conservative window (run-phase barrier + drain-phase barrier).
  // On a machine with fewer cores than T this measures the
  // yield-and-reschedule cost the engine pays per window — exactly the
  // overhead visible in scale_fleet's threads>hw_threads rows.
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::SpinBarrier barrier{static_cast<unsigned>(workers)};
    constexpr int kWindows = 64;
    std::uint64_t stalls = 0;
    std::vector<std::thread> extra;
    auto loop = [&barrier] {
      std::uint64_t s = 0;
      for (int w = 0; w < kWindows; ++w) {
        s += barrier.arrive_and_wait();  // run phase done
        s += barrier.arrive_and_wait();  // drain phase done
      }
      return s;
    };
    for (int t = 1; t < workers; ++t) extra.emplace_back([&] { loop(); });
    stalls = loop();
    for (auto& t : extra) t.join();
    benchmark::DoNotOptimize(stalls);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 2);
}
BENCHMARK(BM_WindowBarrier)->Arg(1)->Arg(2)->Arg(4);

void BM_IngestDispatch(benchmark::State& state) {
  // The controller's per-fragment hot path over an N-device fleet, for
  // a fragment that announces an RX window: one flat-table lookup of the
  // DeviceState record, then the downlink-queue check. Every 5th device
  // has a record with a queued downlink. This is the unit cost
  // bench/ingest_throughput section 2 measures end-to-end as
  // dispatch_pipeline_fps.
  const auto n_devices = static_cast<std::uint32_t>(state.range(0));
  util::FlatTable<core::DeviceState> table;
  for (std::uint32_t id = 0; id < n_devices; id += 5) {
    table.find_or_insert(id).queue().push_back(Bytes{0x01});
  }

  Rng rng{0x1276E57};
  std::vector<std::uint32_t> devices(1 << 16);
  for (auto& d : devices) d = static_cast<std::uint32_t>(rng.below(n_devices));

  std::size_t i = 0;
  std::uint64_t queued = 0;
  for (auto _ : state) {
    const std::uint32_t device = devices[i];
    if (++i == devices.size()) i = 0;
    const core::DeviceState* dev = table.find(device);
    queued += dev != nullptr && dev->has_queued() ? 1 : 0;
  }
  benchmark::DoNotOptimize(queued);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IngestDispatch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RulesEval(benchmark::State& state) {
  // One reading through the gateway rules engine's node chain: a value
  // condition feeding a hold node, plus a windowed aggregate — the two
  // stateful shapes. Readings cycle over N devices so per-device state
  // (streaks, windows) stays live.
  const auto n_devices = static_cast<std::uint32_t>(state.range(0));
  rules::RuleSpec hot;
  hot.name = "hot";
  hot.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 40000.0};
  hot.hold = seconds(10);
  rules::RuleSpec burst;
  burst.name = "burst";
  burst.when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Ge, 0.0};
  rules::AggregateSpec agg;
  agg.op = rules::AggOp::Count;
  agg.window = seconds(30);
  agg.cmp = rules::Cmp::Ge;
  agg.rhs = 8;
  burst.aggregate = agg;
  rules::Engine engine{{hot, burst}};

  Rng rng{0xA11CE};
  rules::Reading reading;
  std::uint64_t t_us = 0;
  for (auto _ : state) {
    reading.device_id = static_cast<std::uint32_t>(rng.below(n_devices));
    reading.at = TimePoint{usec(static_cast<std::int64_t>(t_us))};
    t_us += 100;
    reading.value = static_cast<double>(rng.below(65536));
    reading.rssi_dbm = -60;
    engine.on_reading(reading);
  }
  benchmark::DoNotOptimize(engine.fired_total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RulesEval)->Arg(100)->Arg(10000);

/// A stand-in node with 15 per-node counters, bound through one schema.
struct ExportNode {
  std::array<std::uint64_t, 15> slots{};
};

constexpr std::array<std::string_view, 15> kExportNames = {
    "metric_0", "metric_1", "metric_2",  "metric_3",  "metric_4",
    "metric_5", "metric_6", "metric_7",  "metric_8",  "metric_9",
    "metric_10", "metric_11", "metric_12", "metric_13", "metric_14"};

template <std::size_t... K>
constexpr std::array<telemetry::Row, sizeof...(K)> export_rows(std::index_sequence<K...>) {
  return {telemetry::counter<ExportNode>(kExportNames[K],
                                         [](const ExportNode& n) { return n.slots[K]; })...};
}

void BM_TelemetryExport(benchmark::State& state) {
  // The wile-telemetry-v1 JSON export of a registry: N nodes x 15
  // per-node counters (the telemetry_rules shape: 3,000 senders) plus a
  // few aggregates. The per-node section dominates.
  static constexpr auto kRows = export_rows(std::make_index_sequence<15>{});
  static constexpr telemetry::Schema kSchema{"sender", kRows};
  const auto n_nodes = static_cast<std::size_t>(state.range(0));
  std::vector<ExportNode> nodes(n_nodes);
  std::uint64_t next = 3;
  for (ExportNode& node : nodes) {
    for (std::uint64_t& slot : node.slots) slot = next++ * 7919;
  }
  telemetry::MetricsRegistry registry;
  registry.bind_counter_fn("medium.transmissions", [] { return std::uint64_t{0}; });
  registry.bind_counter_fn("medium.deliveries", [] { return std::uint64_t{7919}; });
  registry.bind_counter_fn("gateway.messages", [] { return std::uint64_t{2 * 7919}; });
  for (std::size_t i = 0; i < n_nodes; ++i) {
    registry.bind_node(static_cast<std::uint32_t>(i), kSchema, &nodes[i]);
  }
  telemetry::ExportMeta meta;
  meta.bench = "micro_perf";

  for (auto _ : state) {
    const std::string json = telemetry::to_json(registry, TimePoint{seconds(600)}, {}, meta);
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryExport)->Arg(300)->Arg(3000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
