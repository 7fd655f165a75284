// Tests for the library extensions beyond the paper's prototype:
// 5 GHz band support, beacon repetition and the battery-lifetime model.
#include <gtest/gtest.h>

#include "phy/airtime.hpp"
#include "phy/channel.hpp"
#include "power/battery.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile {
namespace {

// ---------------------------------------------------------------------------
// 5 GHz band
// ---------------------------------------------------------------------------

TEST(Band5GHz, NoSignalExtensionShortensFrames) {
  const auto t24 = phy::frame_airtime(100, phy::WifiRate::Mcs7Sgi, phy::Band::G2_4);
  const auto t5 = phy::frame_airtime(100, phy::WifiRate::Mcs7Sgi, phy::Band::G5);
  EXPECT_EQ(t24.count() - t5.count(), 6);
}

TEST(Band5GHz, DsssRejected) {
  EXPECT_THROW(phy::frame_airtime(100, phy::WifiRate::B1, phy::Band::G5),
               std::invalid_argument);
  EXPECT_NO_THROW(phy::frame_airtime(100, phy::WifiRate::G6, phy::Band::G5));
}

TEST(Band5GHz, HigherPathLossShortensRange) {
  const phy::Channel ch24{phy::ChannelConfig::for_band(phy::Band::G2_4)};
  const phy::Channel ch5{phy::ChannelConfig::for_band(phy::Band::G5)};
  const double r24 = ch24.max_range_m(0.0, phy::WifiRate::Mcs7Sgi, 150);
  const double r5 = ch5.max_range_m(0.0, phy::WifiRate::Mcs7Sgi, 150);
  EXPECT_LT(r5, r24);
  EXPECT_GT(r5, 0.3 * r24);  // ~6.4 dB over exponent 3 => ~0.6x range
}

TEST(Band5GHz, WiLeWorksEndToEndAt5GHz) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{phy::ChannelConfig::for_band(phy::Band::G5)},
                     Rng{1}};
  core::SenderConfig cfg;
  cfg.band = phy::Band::G5;
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  core::Receiver monitor{scheduler, medium, {2, 0}};

  std::optional<core::SendReport> report;
  sender.send_now(Bytes(16, 0x42), [&](const core::SendReport& r) { report = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(report && report->success);
  EXPECT_EQ(monitor.stats().messages, 1u);
  // 6 us less airtime than the 2.4 GHz transmission of the same frame.
  const double uj = in_microjoules(report->tx_only_energy);
  EXPECT_GT(uj, 70.0);
  EXPECT_LT(uj, 84.0);
}

// ---------------------------------------------------------------------------
// Beacon repetition
// ---------------------------------------------------------------------------

TEST(Repeats, DuplicatesAreDeduplicated) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  core::SenderConfig cfg;
  cfg.redundancy.repeats = 3;
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  core::Receiver monitor{scheduler, medium, {2, 0}};

  std::optional<core::SendReport> report;
  sender.send_now(Bytes{1, 2}, [&](const core::SendReport& r) { report = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->beacons_sent, 3);
  EXPECT_EQ(monitor.stats().messages, 1u);     // delivered once
  EXPECT_EQ(monitor.stats().duplicates, 2u);   // two copies dropped
  // Energy scales with the repeats.
  EXPECT_GT(in_microjoules(report->tx_only_energy), 3 * 75.0);
}

TEST(Repeats, ImproveDeliveryOnLossyLink) {
  auto run = [](int repeats) {
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{5}};
    core::SenderConfig cfg;
    cfg.redundancy.repeats = repeats;
    cfg.period = seconds(1);
    core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{6}};
    core::Receiver monitor{scheduler, medium, {10.8, 0}};  // lossy edge
    sender.start_duty_cycle([] { return Bytes{7}; });
    scheduler.run_until(TimePoint{seconds(200)});
    sender.stop_duty_cycle();
    return monitor.stats().messages;
  };
  const auto once = run(1);
  const auto thrice = run(3);
  EXPECT_GT(thrice, once + 10);
}

TEST(Repeats, FragmentedMessagesRepeatTheWholeTrain) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  core::SenderConfig cfg;
  cfg.redundancy.repeats = 2;
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  core::Receiver monitor{scheduler, medium, {2, 0}};

  std::optional<core::SendReport> report;
  sender.send_now(Bytes(500, 0x33), [&](const core::SendReport& r) { report = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->beacons_sent, 6);  // 3 fragments x 2
  EXPECT_EQ(monitor.stats().messages, 1u);
}

// ---------------------------------------------------------------------------
// Battery model
// ---------------------------------------------------------------------------

TEST(Battery, UsableEnergyArithmetic) {
  const auto cell = power::BatteryModel::cr2032();
  // 225 mAh * 3 V * 0.85 = 2065.5 J.
  EXPECT_NEAR(cell.usable_energy().value, 2065.5, 0.1);
}

TEST(Battery, PaperClaimButtonCellOverAYearForBle) {
  // §5.4: "This is why BLE modules can run on a small button battery for
  // over a year." BLE at a 1-minute reporting interval:
  const Watts ble_avg = power::duty_cycle_average_power(
      microjoules(71.1), msec(3), volts(3.0) * microamps(1.1), minutes(1));
  const auto cell = power::BatteryModel::cr2032();
  EXPECT_GT(cell.lifetime_years(ble_avg), 1.0);
  // Wi-LE on the same cell also clears a year.
  const Watts wile_avg = power::duty_cycle_average_power(
      microjoules(84.0), usec(140), volts(3.3) * microamps(2.5), minutes(1));
  EXPECT_GT(cell.lifetime_years(wile_avg), 1.0);
  // WiFi-PS does not come close.
  const Watts ps_avg = power::duty_cycle_average_power(
      millijoules(19.9), msec(150), volts(3.3) * milliamps(4.5), minutes(1));
  EXPECT_LT(cell.lifetime_years(ps_avg), 0.1);
}

TEST(Battery, SelfDischargeBoundsIdleLifetime) {
  const auto cell = power::BatteryModel::cr2032();
  // Even at zero load, self-discharge caps life near
  // usable_fraction/self_discharge_per_year = 85 years.
  EXPECT_NEAR(cell.lifetime_years(Watts{0.0}), 85.0, 1.0);
}

TEST(Battery, BiggerCellLastsLonger) {
  const Watts load = microwatts(10.0);
  EXPECT_GT(power::BatteryModel::aa_pair().lifetime_years(load),
            power::BatteryModel::cr2032().lifetime_years(load));
}

}  // namespace
}  // namespace wile
