// Farm deployment — the paper's no-infrastructure scenario (§1):
//   "in environments with no WiFi infrastructure such as farms Wi-LE
//    enables wireless communication directly between IoT devices and a
//    WiFi device such as a smartphone."
//
// Twelve soil/temperature sensors are scattered over a field with no
// access point anywhere. A worker's smartphone (any WiFi chip that can
// surface beacons) walks by and harvests readings. Sensors share the
// same nominal reporting period but free-run on cheap sleep clocks
// (tens of ppm apart), which — per §6 — keeps them from colliding
// persistently. Payloads are AEAD-encrypted with a per-farm key.
//
// Built with sim::ScenarioBuilder: the per-sensor knobs (ids, keys,
// clock skew, placement) are hooks on one fluent setup instead of a
// hand-rolled construction loop.
//
// Run:  ./farm_sensors
#include <cstdio>
#include <memory>

#include "wile/scenario.hpp"

using namespace wile;

namespace {

constexpr int kSensors = 12;

/// Sensor payload: moisture (u8 %), temperature (s16 centi-C), battery
/// (u8 decivolt).
Bytes sample_soil(Rng& rng, int sensor_index) {
  const auto moisture = static_cast<std::uint8_t>(30 + rng.below(40));
  const auto temp = static_cast<std::int16_t>(1500 + 25 * sensor_index + rng.range(-80, 80));
  const auto battery = static_cast<std::uint8_t>(29 + rng.below(5));
  ByteWriter w(4);
  w.u8(moisture);
  w.u16le(static_cast<std::uint16_t>(temp));
  w.u8(battery);
  return w.take();
}

}  // namespace

int main() {
  const Bytes farm_key(16, 0xF0);

  // Open farmland: free-space-like propagation.
  phy::ChannelConfig channel_cfg;
  channel_cfg.path_loss_exponent = 2.4;

  std::uint64_t readings = 0;
  // One seeder drives the per-sensor clock skew, radio RNG and sensor
  // physics, drawn in the same per-device order the legacy hand-wired
  // loop used (configure -> device rng -> payload rng).
  Rng seeder{7};

  auto scenario =
      sim::ScenarioBuilder{}
          .devices(kSensors)
          .duty_cycle(seconds(30))
          .wake_jitter(msec(20))
          .timeline_max_segments(0)
          .stagger_starts(false)
          .channel(channel_cfg)
          .medium_seed(2024)
          .configure_sender([&seeder, &farm_key](core::SenderConfig& cfg, int i) {
            cfg.device_id = 100 + i;
            cfg.key = farm_key;
            cfg.clock_ppm_error = static_cast<double>(seeder.range(-50, 50));
            cfg.use_csma = false;  // cheapest firmware: raw injection, jitter only
          })
          .device_rng([&seeder](int) { return seeder.fork(); })
          // Up to ~8 m from the phone, on a rough 4x3 grid.
          .place_device([](int i) {
            return sim::Position{-6.0 + 4.0 * (i % 4), -4.0 + 4.0 * (i / 4)};
          })
          .payload_provider([&seeder](int i) -> core::Sender::PayloadProvider {
            return [rng = seeder.fork(), i]() mutable { return sample_soil(rng, i); };
          })
          // The smartphone in the middle of the field.
          .place_gateway([](int) { return sim::Position{0, 0}; })
          .configure_gateway([&farm_key](core::ReceiverConfig& cfg, int) {
            cfg.key = farm_key;
          })
          .on_message([&readings](const core::Message& msg, const core::RxMeta& meta) {
            if (msg.data.size() != 4) return;
            ByteReader r{msg.data};
            const int moisture = r.u8();
            const double temp_c = static_cast<std::int16_t>(r.u16le()) / 100.0;
            const double battery_v = r.u8() / 10.0;
            ++readings;
            if (readings <= 15 || readings % 50 == 0) {
              std::printf("t=%7.1fs sensor %2u seq=%-3u moisture=%2d%% temp=%5.2fC "
                          "batt=%.1fV rssi=%.0f dBm\n",
                          to_seconds(meta.received_at.since_epoch()), msg.device_id,
                          msg.sequence, moisture, temp_c, battery_v, meta.rssi_dbm);
            }
          })
          .build();

  std::printf("farm: %d encrypted Wi-LE sensors, 30 s period, no AP anywhere\n\n",
              kSensors);
  scenario->run_until(TimePoint{minutes(10)});
  scenario->stop_all();

  const core::Receiver& phone = *scenario->gateways().front();
  std::printf("\n--- after 10 minutes ---\n");
  std::printf("%-8s %9s %8s %8s %10s\n", "sensor", "messages", "lost", "loss%", "rssi dBm");
  std::uint64_t total = 0, lost = 0;
  for (const auto& [id, dev] : phone.devices()) {
    const double loss_pct =
        100.0 * static_cast<double>(dev.estimated_losses) /
        static_cast<double>(dev.messages + dev.estimated_losses);
    std::printf("%-8u %9llu %8llu %7.1f%% %10.0f\n", id,
                static_cast<unsigned long long>(dev.messages),
                static_cast<unsigned long long>(dev.estimated_losses), loss_pct,
                dev.last_rssi_dbm);
    total += dev.messages;
    lost += dev.estimated_losses;
  }
  std::printf("\ntotal: %llu readings, %llu lost (%.1f%%), %llu decode failures, "
              "%llu collisions seen\n",
              static_cast<unsigned long long>(total), static_cast<unsigned long long>(lost),
              100.0 * static_cast<double>(lost) / static_cast<double>(total + lost),
              static_cast<unsigned long long>(phone.stats().crc_failures +
                                              phone.stats().decrypt_failures),
              static_cast<unsigned long long>(phone.stats().collisions_observed));
  return phone.devices().size() == kSensors ? 0 : 1;
}
