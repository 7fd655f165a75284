// Smart-home two-way communication — the §6 extension in action.
//
// A battery thermostat reports temperature over Wi-LE once a minute and
// announces a 20 ms receive window after each beacon. A mains-powered
// hub (a WiFi card doing monitor-mode receive + raw injection) watches
// the beacons; when the user changes the setpoint, the hub queues a
// Downlink message that rides the thermostat's next window — so the
// thermostat's radio is only ever on for ~22 ms per minute instead of
// listening continuously.
//
// ScenarioBuilder owns the environment and the thermostat; the hub — a
// Controller, outside the builder's device fleet — is constructed on
// the scenario's scheduler/medium and publishes its counters into the
// same telemetry registry.
//
// Run:  ./smart_home_twoway
#include <cstdio>
#include <memory>
#include <optional>

#include "wile/controller.hpp"
#include "wile/scenario.hpp"

using namespace wile;

namespace {

constexpr std::uint32_t kThermostatId = 0x7E40;

Bytes encode_report(double temp_c, double setpoint_c) {
  ByteWriter w(4);
  w.u16le(static_cast<std::uint16_t>(temp_c * 100));
  w.u16le(static_cast<std::uint16_t>(setpoint_c * 100));
  return w.take();
}

std::optional<double> decode_setpoint(BytesView data) {
  if (data.size() != 2) return std::nullopt;
  ByteReader r{data};
  return r.u16le() / 100.0;
}

}  // namespace

int main() {
  // --- the thermostat (battery powered, deep sleeps between beacons) ---
  auto scenario =
      sim::ScenarioBuilder{}
          .devices(1)
          .gateways(0)  // the hub replaces the default monitor
          .duty_cycle(minutes(1))
          .wake_jitter(Duration{0})
          .timeline_max_segments(0)
          .medium_seed(99)
          .device_rng([](int) { return Rng{1}; })
          .configure_sender([](core::SenderConfig& cfg, int) {
            cfg.device_id = kThermostatId;
            cfg.rx_window = core::RxWindow{msec(2), msec(20)};
          })
          .auto_start(false)  // started below, once the callbacks exist
          .build();
  sim::Scheduler& scheduler = scenario->scheduler();
  core::Sender& thermostat = *scenario->devices().front();

  double room_temp = 19.0;
  double setpoint = 20.0;
  thermostat.set_downlink_callback([&](const core::Message& msg) {
    if (auto sp = decode_setpoint(msg.data)) {
      std::printf("t=%6.1fs  [thermostat] received new setpoint %.1f C (was %.1f C)\n",
                  to_seconds(scheduler.now().since_epoch()), *sp, setpoint);
      setpoint = *sp;
    }
  });

  Joules total_energy{};
  thermostat.start_duty_cycle(
      [&] {
        // Toy thermal model: the room drifts toward the setpoint.
        room_temp += 0.2 * (setpoint - room_temp);
        return encode_report(room_temp, setpoint);
      },
      [&](const core::SendReport& r) { total_energy += r.cycle_energy; });

  // --- the hub (mains powered) ---
  core::ControllerConfig hub_cfg;
  core::Controller hub{scheduler, scenario->medium(), {4, 2}, hub_cfg, Rng{2}};
  hub.set_message_callback([&](const core::Message& msg, const core::RxMeta&) {
    if (msg.device_id != kThermostatId || msg.data.size() != 4) return;
    ByteReader r{msg.data};
    const double temp = r.u16le() / 100.0;
    const double sp = r.u16le() / 100.0;
    std::printf("t=%6.1fs  [hub] report: room %.2f C, setpoint %.1f C\n",
                to_seconds(scheduler.now().since_epoch()), temp, sp);
  });
  hub.publish_metrics(scenario->metrics(), hub.node_id());

  // The user bumps the setpoint twice during the simulation.
  scheduler.schedule_at(TimePoint{seconds(150)}, [&] {
    std::printf("t=%6.1fs  [user] sets 22.5 C on the app\n",
                to_seconds(scheduler.now().since_epoch()));
    ByteWriter w(2);
    w.u16le(2250);
    hub.queue_downlink(kThermostatId, w.take());
  });
  scheduler.schedule_at(TimePoint{seconds(400)}, [&] {
    std::printf("t=%6.1fs  [user] sets 18.0 C on the app\n",
                to_seconds(scheduler.now().since_epoch()));
    ByteWriter w(2);
    w.u16le(1800);
    hub.queue_downlink(kThermostatId, w.take());
  });

  scenario->run_until(TimePoint{minutes(10)});
  scenario->stop_all();

  std::printf("\n--- after 10 minutes ---\n");
  std::printf("thermostat cycles: %llu, downlinks delivered: %llu/%llu, windows seen by "
              "hub: %llu\n",
              static_cast<unsigned long long>(thermostat.cycles_run()),
              static_cast<unsigned long long>(hub.stats().downlinks_sent),
              static_cast<unsigned long long>(hub.stats().downlinks_queued),
              static_cast<unsigned long long>(hub.stats().windows_seen));
  std::printf("thermostat radio energy over 10 min: %.1f mJ (avg %.1f uW) — an always-on "
              "receiver would have burnt %.0f mJ\n",
              in_millijoules(total_energy),
              in_microwatts(total_energy / minutes(10)),
              in_millijoules((volts(3.3) * milliamps(110.0)) * minutes(10)));

  const bool ok = hub.stats().downlinks_sent == 2 && setpoint == 18.0;
  return ok ? 0 : 1;
}
