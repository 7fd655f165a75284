// Experiment E4 — Figure 4 of the paper: average power consumption vs
// transmission interval (0-5 minutes, log-scale y) for WiFi-PS, WiFi-DC,
// Wi-LE and BLE.
//
// As in the paper, each scenario's (Ptx·Ttx, Pidle) pair is measured
// once from the simulated device (the paper rig, wile/paper_rig.hpp)
// and then Eq. (1) produces the curve:
//   Pavg = (Ptx·Ttx + Pidle·(INT - Ttx)) / INT
// For Wi-LE the paper's Table-1 accounting (TX time only) is used; the
// full-cycle alternative is printed alongside as a dashed series so the
// ASIC argument of §5.4 is visible in the data.
#include <array>
#include <cstdio>

#include "power/timeline.hpp"
#include "wile/paper_rig.hpp"

using namespace wile;

namespace {

struct Scenario {
  const char* name;
  rig::Measurement m;
};

}  // namespace

int main() {
  std::printf("=== E4: Figure 4 — average power vs transmission interval ===\n\n");

  const rig::WileMeasurement wile = rig::measure_wile();
  const Scenario scenarios[] = {{"WiFi-PS", rig::measure_wifi_ps().value()},
                                {"WiFi-DC", rig::measure_wifi_dc()},
                                {"Wi-LE", wile.tx_only},
                                {"BLE", rig::measure_ble().event},
                                {"Wi-LE (full cycle)", wile.full_cycle}};

  std::printf("  measured inputs to Eq. (1):\n");
  for (const auto& s : scenarios) {
    std::printf("    %-18s E_active=%11.1f uJ  Ttx=%8.1f ms  Pidle=%10.3f uW\n", s.name,
                in_microjoules(s.m.energy), to_seconds(s.m.active) * 1e3,
                in_microwatts(s.m.idle));
  }

  // The five series of the figure at one interval, in mW.
  const auto series_mw = [&](Duration interval) {
    std::array<double, 5> mw{};
    for (std::size_t i = 0; i < mw.size(); ++i) {
      const rig::Measurement& m = scenarios[i].m;
      mw[i] = in_milliwatts(
          power::duty_cycle_average_power(m.energy, m.active, m.idle, interval));
    }
    return mw;
  };

  std::printf("\n  interval_s,WiFi-PS_mW,WiFi-DC_mW,WiLE_mW,BLE_mW,WiLE-full-cycle_mW\n");
  for (int sec = 5; sec <= 300; sec += 5) {
    const auto mw = series_mw(seconds(sec));
    std::printf("  %d,%.6g,%.6g,%.6g,%.6g,%.6g\n", sec, mw[0], mw[1], mw[2], mw[3], mw[4]);
  }

  // Paper shape claims:
  //  (a) PS beats DC at short intervals, loses at long intervals;
  //  (b) Wi-LE is close to BLE;
  //  (c) Wi-LE/BLE sit ~3 orders of magnitude below the WiFi curves.
  double crossover_s = -1.0;
  for (int sec = 1; sec <= 600; ++sec) {
    const auto mw = series_mw(seconds(sec));
    if (mw[0] > mw[1]) {
      crossover_s = sec;
      break;
    }
  }
  const auto at_10s = series_mw(seconds(10));
  const auto at_1min = series_mw(minutes(1));
  const double ratio_10s = at_10s[1] / at_10s[2];
  const double ratio_1min = at_1min[1] / at_1min[2];
  const double wile_vs_ble = at_1min[2] / at_1min[3];

  std::printf("\n  PS/DC crossover: %.0f s (paper's Table-1 numbers put it at ~15 s; the "
              "prose says \"about a minute\" — see EXPERIMENTS.md)\n",
              crossover_s);
  std::printf("  WiFi-DC / Wi-LE: %.0fx at 10 s, %.0fx at 1 min (paper: \"generally about "
              "3 orders of magnitude\"; its own Table-1 numbers give 412x at 1 min)\n",
              ratio_10s, ratio_1min);
  std::printf("  Wi-LE / BLE at 1 min: %.2fx (paper: close; its Table-1 numbers give "
              "2.15x at 1 min)\n",
              wile_vs_ble);

  const bool shape_ok = crossover_s > 5 && crossover_s < 120 && ratio_10s > 1000.0 &&
                        ratio_1min > 300.0 && wile_vs_ble < 3.0;
  std::printf("\n  shape %s\n", shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
