// Massive-IoT contention study: Wi-LE beacons vs BLE advertising vs
// 802.11ba wake-up radio, sweeping the station count.
//
// §6 of the paper asks what happens when many devices share the air.
// This bench answers it for all three transmission modes on identical
// fleets (same grid, same duty-cycle period, one mains-powered
// listener), built through the ScenarioBuilder mode presets:
//
//   wile_beacon — every station wakes on a local timer and CSMA-injects
//                 one fake beacon per period (the paper's design);
//   ble         — every station runs an ADV_NONCONN_IND event per period
//                 (pure ALOHA, spec advDelay, 3 channels);
//   wur         — every station deep-sleeps behind a uW 802.11ba
//                 companion receiver; the AP polls the fleet round-robin
//                 once per period, so uplinks are centrally serialized.
//
// Each sample carries (device_id, seq, send-timestamp) in its payload;
// the listener-side callbacks dedupe on (id, seq) and integrate
// delivery ratio, device-side energy per delivered message, and mean
// delivery latency — the energy/latency/delivery frontier per mode.
//
// Every (mode, n) cell runs twice with the same seeds; counter digests
// must match (determinism oracle). A side probe measures the WUR
// companion's listen draw out of the power accounting (armed-idle fleet
// minus plain deep sleep) and gates it at uW class (< 1 mW). Results
// land in BENCH_ablate_wur.json for tools/check_bench_schema.py.
//
// Usage: ablate_wur [--quick] [--out PATH]
//   --quick   stations {250, 1000}, 60 simulated seconds (CI-sized);
//             default {250, 1000, 2000, 4000} and 120 s
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/fnv1a.hpp"
#include "wile/scenario.hpp"

using namespace wile;

namespace {

const Duration kPeriod = seconds(10);
constexpr double kSpacingM = 0.5;  // dense hall: thousands of stations in range

struct RunResult {
  const char* mode = "";
  int stations = 0;
  std::uint64_t expected = 0;   // samples produced on the devices
  std::uint64_t delivered = 0;  // unique (id, seq) pairs heard by the listener
  double delivery_ratio = 0.0;
  double energy_per_msg_uj = 0.0;  // fleet energy / delivered
  double avg_device_uw = 0.0;      // fleet energy / sim time / station
  double mean_latency_ms = 0.0;    // sample timestamp -> listener delivery
  std::uint64_t digest = 0;
};

/// 12-byte sample: device_id u16le | seq u16le | send-time us i64le.
Bytes encode_sample(std::uint16_t id, std::uint16_t seq, std::int64_t ts_us) {
  Bytes b(12);
  b[0] = static_cast<std::uint8_t>(id & 0xFF);
  b[1] = static_cast<std::uint8_t>(id >> 8);
  b[2] = static_cast<std::uint8_t>(seq & 0xFF);
  b[3] = static_cast<std::uint8_t>(seq >> 8);
  for (int i = 0; i < 8; ++i) {
    b[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>((static_cast<std::uint64_t>(ts_us) >> (8 * i)) & 0xFF);
  }
  return b;
}

struct Sample {
  std::uint16_t id = 0;
  std::uint16_t seq = 0;
  std::int64_t ts_us = 0;
};

bool decode_sample(const Bytes& b, Sample& out) {
  if (b.size() < 12) return false;
  out.id = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  out.seq = static_cast<std::uint16_t>(b[2] | (b[3] << 8));
  std::uint64_t raw = 0;
  for (int i = 7; i >= 0; --i) {
    raw = (raw << 8) | b[static_cast<std::size_t>(4 + i)];
  }
  out.ts_us = static_cast<std::int64_t>(raw);
  return true;
}

/// Listener-side tally shared by all three modes' delivery callbacks.
struct Tally {
  sim::Scenario* scenario = nullptr;  // time source; set right after build
  std::uint64_t produced = 0;
  std::uint64_t delivered = 0;
  std::int64_t latency_sum_us = 0;
  std::unordered_set<std::uint32_t> seen;  // id << 16 | seq

  void on_sample(const Bytes& payload, TimePoint received_at) {
    Sample s;
    if (!decode_sample(payload, s)) return;
    const std::uint32_t key =
        (static_cast<std::uint32_t>(s.id) << 16) | s.seq;
    if (!seen.insert(key).second) return;  // BLE repeats on 3 channels; dedupe
    ++delivered;
    latency_sum_us += received_at.since_epoch().count() - s.ts_us;
  }
};

RunResult run_once(TxMode mode, int stations, int sim_seconds) {
  auto tally = std::make_shared<Tally>();
  auto seqs = std::make_shared<std::vector<std::uint16_t>>(
      static_cast<std::size_t>(stations), 0);

  sim::ScenarioBuilder builder;
  builder.mode(mode)
      .devices(stations)
      .grid_spacing_m(kSpacingM)
      .duty_cycle(kPeriod)
      .timeline_max_segments(16)
      .telemetry(false)
      .gateways(1)
      .seed(0xA81BA000u + static_cast<std::uint64_t>(stations))
      .medium_seed(0x5EED0000u + static_cast<std::uint64_t>(stations))
      .payload_provider([tally, seqs](int i) -> core::Sender::PayloadProvider {
        return [tally, seqs, i] {
          ++tally->produced;
          const std::uint16_t seq = (*seqs)[static_cast<std::size_t>(i)]++;
          return encode_sample(static_cast<std::uint16_t>(i + 1), seq,
                               tally->scenario->now().since_epoch().count());
        };
      });
  if (mode == TxMode::WiLeBeacon || mode == TxMode::Wur) {
    builder.on_message([tally](const core::Message& msg, const core::RxMeta& meta) {
      tally->on_sample(msg.data, meta.received_at);
    });
  }
  if (mode == TxMode::Ble) {
    builder.ble(sim::BleFleetOptions{})
        .on_adv([tally](int, const ble::AdvertisingPdu& pdu, double) {
          tally->on_sample(pdu.adv_data, tally->scenario->now());
        });
  }
  if (mode == TxMode::Wur) {
    builder.wur(sim::WurFleetOptions{});  // round-robin sweep, one pass/period
  }

  auto scenario = builder.build();
  tally->scenario = scenario.get();

  scenario->run_until(TimePoint{seconds(sim_seconds)});
  scenario->stop_all();
  scenario->run_for(seconds(2));

  // Device-side energy over the whole run, exact under segment pruning.
  double fleet_uj = 0.0;
  const TimePoint end = scenario->now();
  for (const auto& s : scenario->devices()) {
    fleet_uj += in_microjoules(s->timeline().energy_between(TimePoint{}, end));
  }
  for (const auto& a : scenario->ble_devices()) {
    fleet_uj += in_microjoules(a->timeline().energy_between(TimePoint{}, end));
  }

  RunResult r;
  r.mode = to_string(mode);
  r.stations = stations;
  r.expected = tally->produced;
  r.delivered = tally->delivered;
  r.delivery_ratio = r.expected > 0 ? static_cast<double>(r.delivered) /
                                          static_cast<double>(r.expected)
                                    : 0.0;
  r.energy_per_msg_uj =
      r.delivered > 0 ? fleet_uj / static_cast<double>(r.delivered) : 0.0;
  r.avg_device_uw = fleet_uj / static_cast<double>(sim_seconds) /
                    static_cast<double>(stations);
  r.mean_latency_ms = r.delivered > 0
                          ? static_cast<double>(tally->latency_sum_us) /
                                static_cast<double>(r.delivered) / 1000.0
                          : 0.0;

  const sim::Medium::Stats ms = scenario->medium_stats();
  // FNV-1a over the counters that must be seed-determined.
  util::Fnv1a d{util::Fnv1a::kTruncatedBasis};
  d.add(r.expected);
  d.add(r.delivered);
  d.add(static_cast<std::uint64_t>(tally->latency_sum_us));
  d.add(ms.transmissions);
  d.add(ms.deliveries);
  d.add(ms.collision_losses);
  d.add(ms.channel_losses);
  d.add(scenario->events_run());
  d.add(static_cast<std::uint64_t>(fleet_uj * 1000.0));
  r.digest = d.value();
  return r;
}

/// The companion receiver's listen draw, measured out of the power
/// accounting rather than read off the config: an armed WUR device
/// idling before its first wake, minus the same device plain
/// deep-sleeping, leaves exactly the uW overlay.
double wur_listen_uw_probe() {
  const Duration window = seconds(5);
  auto idle_uw = [&](bool with_wur) {
    sim::ScenarioBuilder b;
    b.devices(1)
        .duty_cycle(seconds(10))
        .telemetry(false)
        .gateways(1)
        .auto_start(!with_wur ? false : true);
    if (with_wur) {
      sim::WurFleetOptions opts;
      opts.cadence = seconds(10);  // first wake at t=10s, after the window
      b.wur(opts);
    } else {
      b.auto_start(false);  // plain sender parked in deep sleep
    }
    auto scenario = b.build();
    scenario->run_until(TimePoint{window});
    const Joules e = scenario->devices().front()->timeline().energy_between(
        TimePoint{}, TimePoint{window});
    return in_microjoules(e) / to_seconds(window);  // uJ/s == uW
  };
  return idle_uw(true) - idle_uw(false);
}

void write_json(const std::vector<RunResult>& rows, int sim_seconds, bool quick,
                double wur_listen_uw, bool monotone, bool deterministic,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("ablate_wur: fopen");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ablate_wur\",\n  \"quick\": %s,\n"
               "  \"sim_seconds\": %d,\n  \"period_seconds\": %lld,\n"
               "  \"grid_spacing_m\": %.2f,\n  \"wur_listen_uw\": %.3f,\n"
               "  \"rows\": [\n",
               quick ? "true" : "false", sim_seconds,
               static_cast<long long>(kPeriod.count() / 1'000'000), kSpacingM,
               wur_listen_uw);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"stations\": %d,\n"
                 "     \"expected\": %llu, \"delivered\": %llu,\n"
                 "     \"delivery_ratio\": %.6f, \"energy_per_msg_uj\": %.3f,\n"
                 "     \"avg_device_uw\": %.3f, \"mean_latency_ms\": %.3f,\n"
                 "     \"digest\": \"%016llx\"}%s\n",
                 r.mode, r.stations, static_cast<unsigned long long>(r.expected),
                 static_cast<unsigned long long>(r.delivered), r.delivery_ratio,
                 r.energy_per_msg_uj, r.avg_device_uw, r.mean_latency_ms,
                 static_cast<unsigned long long>(r.digest),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"monotone_frontier\": %s,\n  \"determinism_ok\": %s\n}\n",
               monotone ? "true" : "false", deterministic ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_ablate_wur.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  const int sim_seconds = quick ? 60 : 120;
  std::vector<int> station_counts = quick ? std::vector<int>{250, 1000}
                                          : std::vector<int>{250, 1000, 2000, 4000};
  const TxMode modes[] = {TxMode::WiLeBeacon, TxMode::Ble, TxMode::Wur};

  std::printf("=== massive-IoT contention: Wi-LE vs BLE adv vs 802.11ba WUR ===\n");
  std::printf("    %.1fm grid pitch, %llds report period, one listener, %ds sim%s\n\n",
              kSpacingM, static_cast<long long>(kPeriod.count() / 1'000'000),
              sim_seconds, quick ? " [quick]" : "");

  const double wur_listen_uw = wur_listen_uw_probe();
  std::printf("  WUR companion listen draw (from power accounting): %.1f uW %s\n\n",
              wur_listen_uw, wur_listen_uw < 1000.0 ? "[uW-class OK]" : "[NOT uW-class]");

  std::printf("  %-12s | %-8s | %-9s | %-9s | %-7s | %-12s | %-9s\n", "mode",
              "stations", "expected", "delivered", "ratio", "uJ/message", "lat (ms)");
  std::printf("  -------------+----------+-----------+-----------+---------+--------------+----------\n");

  std::vector<RunResult> rows;
  bool deterministic = true;
  for (const TxMode mode : modes) {
    for (const int n : station_counts) {
      RunResult r = run_once(mode, n, sim_seconds);
      const RunResult replay = run_once(mode, n, sim_seconds);
      if (replay.digest != r.digest) deterministic = false;
      rows.push_back(r);
      std::printf("  %-12s | %8d | %9llu | %9llu | %6.1f%% | %12.1f | %9.2f\n",
                  r.mode, r.stations, static_cast<unsigned long long>(r.expected),
                  static_cast<unsigned long long>(r.delivered),
                  100.0 * r.delivery_ratio, r.energy_per_msg_uj, r.mean_latency_ms);
    }
    std::printf("  -------------+----------+-----------+-----------+---------+--------------+----------\n");
  }

  // The frontier: per mode, adding stations never *improves* delivery
  // (2% slack absorbs sampling noise on the ratio).
  bool monotone = true;
  for (const TxMode mode : modes) {
    double prev = 2.0;
    for (const RunResult& r : rows) {
      if (std::strcmp(r.mode, to_string(mode)) != 0) continue;
      if (r.delivery_ratio > prev + 0.02) monotone = false;
      prev = r.delivery_ratio;
    }
  }
  // Every cell must have actually produced and delivered something.
  bool live = true;
  for (const RunResult& r : rows) {
    if (r.expected == 0 || r.delivered == 0) live = false;
  }

  const bool listen_ok = wur_listen_uw > 0.0 && wur_listen_uw < 1000.0;
  write_json(rows, sim_seconds, quick, wur_listen_uw, monotone, deterministic,
             out_path);
  std::printf("\nwrote %s\n", out_path.c_str());
  std::printf("  frontier %s, determinism %s, WUR listen %s\n",
              monotone && live ? "OK" : "MISMATCH",
              deterministic ? "OK" : "BROKEN", listen_ok ? "uW-class" : "OVER BUDGET");
  return (monotone && live && deterministic && listen_ok) ? 0 : 1;
}
