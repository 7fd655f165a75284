// Reliability strategies at the range edge.
//
// Wi-LE beacons carry no link-layer ACK. At the edge of range an
// application has three choices, all implemented by this library:
//   (1) accept the loss (the paper's position: telemetry is periodic),
//   (2) blind repetition (k copies per cycle),
//   (3) reliable mode: controller Acks over the §6 two-way channel and
//       sender retransmission on the *next* cycle.
// This bench measures delivery and TX energy per *delivered* message for
// each, at a distance where single-shot delivery is ~80 %. Reliable mode
// spends energy only when needed (retries), while repetition pays on
// every cycle — the classic open-loop/closed-loop trade.
//
// Also prints the BLE slave-latency knob (the BLE-side analogue of
// WiFi-PS beacon skipping) for the idle-energy column of the comparison.
#include <cstdio>
#include <optional>
#include <set>

#include "ble/link.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

using namespace wile;

namespace {

constexpr double kEdgeDistanceM = 11.0;
constexpr int kRounds = 300;
const Duration kPeriod = msec(400);

struct Strategy {
  const char* name;
  double delivery_pct = 0.0;
  double uj_per_delivered = 0.0;
};

Strategy run_repeats(int repeats) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{41}};
  core::SenderConfig cfg;
  cfg.period = kPeriod;
  cfg.redundancy.repeats = repeats;
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{42}};
  core::Receiver monitor{scheduler, medium, {kEdgeDistanceM, 0}};

  Joules tx_energy{};
  std::uint64_t cycles = 0;
  sender.start_duty_cycle(
      [&cycles] {
        ++cycles;
        return Bytes(16, 1);
      },
      [&tx_energy](const core::SendReport& r) { tx_energy += r.tx_only_energy; });
  scheduler.run_until(TimePoint{kPeriod * (kRounds + 1)});
  sender.stop_duty_cycle();
  scheduler.run_until(scheduler.now() + seconds(1));

  Strategy out;
  out.name = repeats == 1 ? "single shot" : (repeats == 2 ? "2 copies" : "3 copies");
  out.delivery_pct =
      100.0 * static_cast<double>(monitor.stats().messages) / static_cast<double>(cycles);
  out.uj_per_delivered = monitor.stats().messages > 0
                             ? in_microjoules(tx_energy) /
                                   static_cast<double>(monitor.stats().messages)
                             : 0.0;
  return out;
}

Strategy run_reliable() {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{41}};
  core::SenderConfig cfg;
  cfg.period = kPeriod;
  cfg.rx_window = core::RxWindow{msec(2), msec(15)};
  cfg.reliable = true;
  cfg.reliable_max_attempts = 5;
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{42}};
  core::ControllerConfig ctl_cfg;
  ctl_cfg.auto_ack = true;
  core::Controller controller{scheduler, medium, {kEdgeDistanceM, 0}, ctl_cfg, Rng{43}};

  std::set<std::uint32_t> delivered;
  controller.set_message_callback(
      [&](const core::Message& m, const core::RxMeta&) { delivered.insert(m.sequence); });

  Joules tx_energy{};
  std::uint64_t fresh = 0;
  sender.start_duty_cycle(
      [&fresh] {
        ++fresh;
        return Bytes(16, 1);
      },
      [&tx_energy](const core::SendReport& r) { tx_energy += r.tx_only_energy; });
  scheduler.run_until(TimePoint{kPeriod * (kRounds + 1)});
  sender.stop_duty_cycle();
  scheduler.run_until(scheduler.now() + seconds(1));

  Strategy out;
  out.name = "reliable (acks)";
  // Delivery counted over *distinct* messages the sensor produced.
  out.delivery_pct =
      100.0 * static_cast<double>(delivered.size()) / static_cast<double>(fresh);
  out.uj_per_delivered = delivered.empty()
                             ? 0.0
                             : in_microjoules(tx_energy) /
                                   static_cast<double>(delivered.size());
  return out;
}

double ble_idle_ua(int slave_latency) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{44}};
  ble::BleLinkConfig cfg;
  cfg.connection_interval = seconds(1);
  cfg.slave_latency = slave_latency;
  ble::BleMaster master{scheduler, medium, {0, 0}, cfg};
  ble::BleSlave slave{scheduler, medium, {2, 0}, cfg};
  master.start();
  slave.start();
  scheduler.run_until(TimePoint{minutes(2)});
  const Watts avg =
      slave.timeline().average_power(TimePoint{seconds(2)}, scheduler.now());
  return in_microamps(avg / cfg.power.supply);
}

}  // namespace

int main() {
  std::printf("=== reliability strategies at the range edge (%.0f m, %d rounds) ===\n\n",
              kEdgeDistanceM, kRounds);
  std::printf("  %-16s | %-10s | %-24s\n", "strategy", "delivery",
              "TX energy per delivered");
  std::printf("  -----------------+------------+--------------------------\n");

  const Strategy strategies[] = {run_repeats(1), run_repeats(2), run_repeats(3),
                                 run_reliable()};
  for (const Strategy& s : strategies) {
    std::printf("  %-16s | %9.1f%% | %18.0f uJ\n", s.name, s.delivery_pct,
                s.uj_per_delivered);
  }

  const Strategy& blind3 = strategies[2];
  const Strategy& reliable = strategies[3];
  std::printf("\n  closed-loop retransmission reaches %.1f%% delivery at %.0f uJ per "
              "delivered message vs %.0f uJ for 3 blind copies — feedback beats "
              "redundancy when losses are bursty-free.\n",
              reliable.delivery_pct, reliable.uj_per_delivered, blind3.uj_per_delivered);

  std::printf("\n-- BLE slave-latency knob (idle current on an empty 1 s connection) --\n");
  std::printf("  %-14s | %-12s\n", "slave_latency", "idle uA");
  for (int latency : {0, 3, 9}) {
    std::printf("  %-14d | %10.2f\n", latency, ble_idle_ua(latency));
  }
  std::printf("  (the BLE analogue of WiFi-PS beacon skipping — see E10; deep sleep "
              "between attended events stays 1.1 uA, the knob trims the per-event "
              "wakes.)\n");

  const bool ok = reliable.delivery_pct > 99.0 &&
                  reliable.uj_per_delivered < blind3.uj_per_delivered &&
                  ble_idle_ua(9) < ble_idle_ua(0);
  std::printf("\n  shape %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
