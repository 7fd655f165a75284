// The paper's single-device bench rig: the three setups of §5 and the
// four measurements of Table 1.
//
// ScenarioBuilder assembles fleets; this assembles the one-device
// benches that Table 1, Fig. 3, Fig. 4 and their ablations measure:
//
//   * WileDevice — one Wi-LE sender;
//   * BlePair    — a BLE connection, the slave being the measured device;
//   * WifiCell   — an access point and the ESP32 station measured
//                  against it.
//
// Each setup sits on its own scheduler and a default channel with
// medium seed 1, so every measurement is seeded and repeatable. The
// measure_* functions run Table 1's cycle on a fresh setup and return
// the inputs Eq. (1) reads (power::duty_cycle_average_power).
#pragma once

#include <cstddef>
#include <optional>

#include "ap/access_point.hpp"
#include "ble/link.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "sta/station.hpp"
#include "util/units.hpp"
#include "wile/sender.hpp"

namespace wile::rig {

/// One event core: a scheduler and a medium on the default channel,
/// medium seed 1. Non-movable: the nodes built on it hold references.
struct Bench {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
};

/// The Wi-LE device: a default Sender at the origin, device seed 2.
struct WileDevice : Bench {
  core::Sender sender{scheduler, medium, {0, 0}, core::SenderConfig{}, Rng{2}};
};

/// The BLE pair: a mains-powered master at the origin and the measured
/// slave 2 m away, both on the default link config.
struct BlePair : Bench {
  ble::BleLinkConfig config{};
  ble::BleMaster master{scheduler, medium, {0, 0}, config};
  ble::BleSlave slave{scheduler, medium, {2, 0}, config};
};

/// The WiFi cell: an access point at the origin (seed 10), already
/// beaconing when the station 3 m away (seed 20) is built.
struct WifiCell : Bench {
  explicit WifiCell(sta::StationConfig station_config = {});

  ap::AccessPoint ap;
  sta::Station station;
};

/// One technology's message as Eq. (1) reads it: the energy it costs,
/// the time that energy is drawn over, and the draw between messages.
struct Measurement {
  Joules energy{};
  Duration active{};
  Watts idle{};
  Volts supply{};  // idle / supply is Table 1's idle current
};

/// Wi-LE: one 16 B send_now, run until idle. Both accountings come from
/// the same SendReport.
struct WileMeasurement {
  Measurement tx_only;     // Table 1's (§5.4): the beacon's airtime only
  Measurement full_cycle;  // wake to sleep
};
[[nodiscard]] WileMeasurement measure_wile();

/// BLE: the first connection event that carries a `payload`-byte
/// message, within 3 s.
struct BleMeasurement {
  Measurement event;       // zero when no event carried data
  bool delivered = false;  // such an event ran and the master received the payload
};
[[nodiscard]] BleMeasurement measure_ble(std::size_t payload = 20);

/// WiFi-DC: one full connect-and-send cycle from deep sleep, within 10 s.
[[nodiscard]] Measurement measure_wifi_dc();

/// WiFi-PS: associate within 10 s, average the idle draw over a minute
/// of power-save idling, then one power_save_send within 5 s. Empty when
/// the association fails.
[[nodiscard]] std::optional<Measurement> measure_wifi_ps();

}  // namespace wile::rig
