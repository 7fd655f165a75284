// Conformance suite: every *quantitative claim* in the paper, pinned as
// a ctest assertion so regressions in the protocol stacks or power
// models are caught immediately. The benches print these side by side;
// this file makes them gates.
#include <gtest/gtest.h>

#include "phy/energy.hpp"
#include "wile/paper_rig.hpp"

namespace wile {
namespace {

// --- Table 1 ----------------------------------------------------------------

double measure_wile_uj() { return in_microjoules(rig::measure_wile().tx_only.energy); }

TEST(PaperClaims, Table1WiLeEnergy84uJ) {
  EXPECT_NEAR(measure_wile_uj(), 84.0, 84.0 * 0.05);
}

TEST(PaperClaims, Table1BleEnergy71uJ) {
  EXPECT_NEAR(in_microjoules(rig::measure_ble().event.energy), 71.0, 71.0 * 0.05);
}

TEST(PaperClaims, Table1WifiEnergies) {
  EXPECT_NEAR(in_millijoules(rig::measure_wifi_dc().energy), 238.2, 238.2 * 0.05);
  const auto ps = rig::measure_wifi_ps();
  ASSERT_TRUE(ps.has_value());
  EXPECT_NEAR(in_millijoules(ps->energy), 19.8, 19.8 * 0.07);
  // Table 1's 4500 uA emerges from light sleep plus the beacon windows.
  EXPECT_NEAR(in_microamps(ps->idle / ps->supply), 4500.0, 4500.0 * 0.07);
}

TEST(PaperClaims, Section1EnergyPerBitRatios) {
  // "Bluetooth ... 275-300 nJ/bit while with WiFi it is 10-100".
  const double ble = in_nanojoules(phy::ble_effective_energy_per_bit());
  EXPECT_GE(ble, 260.0);
  EXPECT_LE(ble, 310.0);
  const double wifi_hi = in_nanojoules(phy::wifi_energy_per_bit(phy::WifiRate::G6));
  const double wifi_lo = in_nanojoules(phy::wifi_energy_per_bit(phy::WifiRate::Mcs7Sgi));
  EXPECT_NEAR(wifi_hi, 100.0, 5.0);
  EXPECT_LT(wifi_lo, 12.0);
  // "nearly three times as much energy" at the comparable (low-rate) end.
  EXPECT_NEAR(ble / wifi_hi, 3.0, 0.5);
}

TEST(PaperClaims, AbstractWiLeRivalsBle) {
  // "power consumption similar to that of Bluetooth Low Energy":
  // energy/message within 1.5x at equal payloads + idle currents within
  // ~2.3x (2.5 vs 1.1 uA).
  const double wile = measure_wile_uj();
  const double ble = in_microjoules(rig::measure_ble().event.energy);
  EXPECT_LT(wile / ble, 1.5);
  EXPECT_GT(wile / ble, 0.7);
}

TEST(PaperClaims, Section52WiLeAwakeFractionOfWifi) {
  // Fig. 3: the Wi-LE cycle is several times shorter than the WiFi one
  // ("significantly reduces the total time and energy").
  const Duration wile_active = rig::measure_wile().full_cycle.active;

  // WiFi-DC active time from the paper's Fig. 3a is ~1.4 s; ours is
  // calibrated to it (asserted in the integration suite). Compare:
  EXPECT_LT(to_seconds(wile_active), 0.4);
  EXPECT_GT(1.4 / to_seconds(wile_active), 4.0);
}

TEST(PaperClaims, BestAlternativeWifiApproachIs19_8mJ) {
  // §1: "Wi-LE achieves energy efficiency of 84 uJ per message while the
  // best alternative WiFi approach achieves 19.8 mJ per message" — i.e.
  // a ~236x gap.
  const auto ps = rig::measure_wifi_ps();
  ASSERT_TRUE(ps.has_value());
  const double gap = in_microjoules(ps->energy) / measure_wile_uj();
  EXPECT_GT(gap, 180.0);
  EXPECT_LT(gap, 300.0);
}

}  // namespace
}  // namespace wile
