// Power comparison — "can WiFi replace Bluetooth?" for YOUR workload.
//
// A small planning tool built on the library's four radio scenarios: give
// it a transmission interval (seconds) and an optional battery size
// (mAh), and it prints projected average power and battery life for
// Wi-LE, BLE, WiFi-DC and WiFi-PS, using energies measured from the
// simulated protocol exchanges (the Table-1 rig, wile/paper_rig.hpp).
//
// Run:  ./power_comparison [interval_seconds] [battery_mah]
//       ./power_comparison 600 225        # 10-minute sensor, CR2032
#include <cstdio>
#include <cstdlib>

#include "power/timeline.hpp"
#include "wile/paper_rig.hpp"

using namespace wile;

namespace {

struct Tech {
  const char* name;
  rig::Measurement m;
};

}  // namespace

int main(int argc, char** argv) {
  const long interval_s = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 60;
  const double battery_mah = argc > 2 ? std::strtod(argv[2], nullptr) : 225.0;  // CR2032
  if (interval_s <= 0) {
    std::fprintf(stderr, "usage: %s [interval_seconds>0] [battery_mah]\n", argv[0]);
    return 2;
  }

  std::printf("workload: one message every %ld s, %.0f mAh battery\n\n", interval_s,
              battery_mah);
  std::printf("measuring each technology (simulated protocol exchanges)...\n\n");

  const Tech techs[] = {{"Wi-LE", rig::measure_wile().tx_only},
                        {"BLE", rig::measure_ble().event},
                        {"WiFi-PS", rig::measure_wifi_ps().value()},
                        {"WiFi-DC", rig::measure_wifi_dc()}};

  std::printf("%-8s | %12s | %12s | %12s | %14s\n", "tech", "E/message", "idle draw",
              "avg power", "battery life");
  std::printf("---------+--------------+--------------+--------------+---------------\n");
  for (const auto& [name, m] : techs) {
    const Watts avg =
        power::duty_cycle_average_power(m.energy, m.active, m.idle, seconds(interval_s));
    const double avg_current_ma = in_milliamps(avg / m.supply);
    const double life_hours = battery_mah / avg_current_ma;
    char life[40];
    if (life_hours > 24.0 * 365.0) {
      std::snprintf(life, sizeof(life), "%.1f years", life_hours / (24.0 * 365.0));
    } else if (life_hours > 48.0) {
      std::snprintf(life, sizeof(life), "%.0f days", life_hours / 24.0);
    } else {
      std::snprintf(life, sizeof(life), "%.1f hours", life_hours);
    }
    std::printf("%-8s | %9.1f uJ | %9.2f uA | %9.2f uW | %14s\n", name,
                in_microjoules(m.energy), in_microamps(m.idle / m.supply),
                in_microwatts(avg), life);
  }

  std::printf("\n(Wi-LE uses the paper's TX-only accounting; battery life assumes the "
              "battery's full charge is usable and self-discharge is ignored.)\n");
  return 0;
}
