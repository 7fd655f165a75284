#include "wile/paper_rig.hpp"

#include <utility>

namespace wile::rig {

namespace {
// Neither energy nor airtime depends on the payload's byte values.
constexpr std::uint8_t kPayloadByte = 0x42;
}  // namespace

WifiCell::WifiCell(sta::StationConfig station_config)
    : ap{scheduler, medium, {0, 0}, ap::AccessPointConfig{}, Rng{10}},
      station{(ap.start(), scheduler), medium, {3, 0}, std::move(station_config), Rng{20}} {}

WileMeasurement measure_wile() {
  WileDevice device;
  std::optional<core::SendReport> report;
  device.sender.send_now(Bytes(16, kPayloadByte),
                         [&](const core::SendReport& r) { report = r; });
  device.scheduler.run_until_idle();
  const core::SendReport& r = report.value();
  const power::Esp32PowerProfile& power = device.sender.config().power;
  const Watts idle = power.supply * power.deep_sleep;
  return {{r.tx_only_energy, r.tx_airtime, idle, power.supply},
          {r.cycle_energy, r.active_time, idle, power.supply}};
}

BleMeasurement measure_ble(std::size_t payload) {
  BlePair pair;
  std::optional<ble::BleEventReport> report;
  pair.slave.set_event_callback([&](const ble::BleEventReport& r) {
    if (r.data_sent && !report) report = r;
  });
  pair.slave.queue_payload(Bytes(payload, kPayloadByte));
  pair.master.start();
  pair.slave.start();
  pair.scheduler.run_until(TimePoint{seconds(3)});

  BleMeasurement m;
  if (!report) return m;
  const power::Cc2541PowerProfile& power = pair.config.power;
  m.event = {report->energy, report->active_time, power.supply * power.sleep, power.supply};
  m.delivered = !pair.master.received_payloads().empty();
  return m;
}

Measurement measure_wifi_dc() {
  WifiCell cell;
  std::optional<sta::CycleReport> report;
  cell.station.run_duty_cycle_transmission(Bytes(16, kPayloadByte),
                                           [&](const sta::CycleReport& r) { report = r; });
  cell.scheduler.run_until(TimePoint{seconds(10)});
  const power::Esp32PowerProfile& power = cell.station.config().power;
  return {report.value().energy, report->active_time, power.supply * power.deep_sleep,
          power.supply};
}

std::optional<Measurement> measure_wifi_ps() {
  WifiCell cell;
  bool ready = false;
  cell.station.connect_and_enter_power_save([&](bool ok) { ready = ok; });
  cell.scheduler.run_until(TimePoint{seconds(10)});
  if (!ready) return std::nullopt;

  // Idle draw: a full minute of PS idling, beacon wakes included.
  const TimePoint idle_from = cell.scheduler.now();
  cell.scheduler.run_until(idle_from + minutes(1));
  const Watts idle = cell.station.timeline().average_power(idle_from, cell.scheduler.now());

  std::optional<sta::CycleReport> report;
  cell.station.power_save_send(Bytes(16, kPayloadByte),
                               [&](const sta::CycleReport& r) { report = r; });
  cell.scheduler.run_until(cell.scheduler.now() + seconds(5));
  return Measurement{report.value().energy, report->active_time, idle,
                     cell.station.config().power.supply};
}

}  // namespace wile::rig
