// Failure injection for the WiFi client: absent APs, wrong credentials,
// lossy channels, SSID mismatches, and API misuse. The paper's energy
// story assumes the happy path; a production firmware must fail cleanly
// (and go back to sleep!) on all of these.
#include <gtest/gtest.h>

#include <utility>

#include "ap/access_point.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "sta/station.hpp"
#include "wile/paper_rig.hpp"

namespace wile::sta {
namespace {

TEST(StationFailure, NoApGivesUpAndSleeps) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  StationConfig cfg;
  Station sta{scheduler, medium, {0, 0}, cfg, Rng{2}};

  std::optional<CycleReport> report;
  sta.run_duty_cycle_transmission(Bytes{1}, [&](const CycleReport& r) { report = r; });
  scheduler.run_until(TimePoint{seconds(30)});

  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->success);
  // Probe retries happened (retry limit + 1 transmissions of the probe).
  EXPECT_GE(sta.stats().mac_frames_sent, 4u);
  // Crucially the firmware went back to deep sleep: current is 2.5 uA.
  EXPECT_NEAR(in_microamps(sta.timeline().current_at(scheduler.now())), 2.5, 1e-6);
}

TEST(StationFailure, WrongSsidNeverAssociates) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  ap::AccessPointConfig ap_cfg;
  ap::AccessPoint ap{scheduler, medium, {0, 0}, ap_cfg, Rng{3}};
  ap.start();

  StationConfig cfg;
  cfg.ssid = "NotThisNetwork";
  Station sta{scheduler, medium, {2, 0}, cfg, Rng{4}};
  std::optional<CycleReport> report;
  sta.run_duty_cycle_transmission(Bytes{1}, [&](const CycleReport& r) { report = r; });
  scheduler.run_until(TimePoint{seconds(30)});

  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->success);
  EXPECT_EQ(ap.stats().probe_responses, 0u);
  EXPECT_EQ(ap.stats().assoc_responses, 0u);
}

TEST(StationFailure, WrongPassphraseFailsHandshake) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  ap::AccessPointConfig ap_cfg;  // passphrase "hotnets2019"
  ap::AccessPoint ap{scheduler, medium, {0, 0}, ap_cfg, Rng{5}};
  ap.start();

  StationConfig cfg;
  cfg.passphrase = "wrong-password";
  Station sta{scheduler, medium, {2, 0}, cfg, Rng{6}};
  std::optional<CycleReport> report;
  sta.run_duty_cycle_transmission(Bytes{1}, [&](const CycleReport& r) { report = r; });
  scheduler.run_until(TimePoint{seconds(30)});

  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->success);
  // Association itself succeeded (open auth), but the authenticator must
  // have rejected M2's MIC, so the handshake never completed.
  EXPECT_EQ(ap.stats().assoc_responses, 1u);
  EXPECT_EQ(ap.stats().handshakes_completed, 0u);
  EXPECT_FALSE(ap.client_ready(cfg.mac));
}

TEST(StationFailure, LossyChannelRetriesAndStillSucceeds) {
  // At 12 m the STA's MCS7-SGI data frames sit near their PER cliff:
  // retransmissions must kick in, yet the cycle completes.
  const auto run_cycle = [](double distance_m) {
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{17}};
    ap::AccessPointConfig ap_cfg;
    ap::AccessPoint ap{scheduler, medium, {0, 0}, ap_cfg, Rng{8}};
    ap.set_uplink_handler([](const MacAddress&, const net::Ipv4Header&,
                             const net::UdpDatagram&) {});
    ap.start();

    StationConfig cfg;
    cfg.data_rate = phy::WifiRate::Mcs7Sgi;
    Station sta{scheduler, medium, {distance_m, 0}, cfg, Rng{9}};
    std::optional<CycleReport> report;
    sta.run_duty_cycle_transmission(Bytes{1}, [&](const CycleReport& r) { report = r; });
    scheduler.run_until(TimePoint{seconds(30)});
    return std::pair{report, sta.stats().mac_frames_sent};
  };
  const auto [clean, clean_frames] = run_cycle(3.0);
  const auto [lossy, lossy_frames] = run_cycle(12.0);

  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->success);
  ASSERT_TRUE(lossy.has_value());
  EXPECT_TRUE(lossy->success);
  // Losses at 12 m force retries over the clean 3 m run's count.
  EXPECT_GT(lossy_frames, clean_frames);
}

TEST(StationFailure, ApiMisuseThrows) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  StationConfig cfg;
  Station sta{scheduler, medium, {0, 0}, cfg, Rng{2}};

  // PS send without being associated.
  EXPECT_THROW(sta.power_save_send(Bytes{1}, {}), std::logic_error);

  // Starting a second cycle while one is in flight.
  sta.run_duty_cycle_transmission(Bytes{1}, {});
  EXPECT_THROW(sta.run_duty_cycle_transmission(Bytes{2}, {}), std::logic_error);
  EXPECT_THROW(sta.connect_and_enter_power_save({}), std::logic_error);
}

TEST(StationFailure, FailedCycleEnergyStillAccounted) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  StationConfig cfg;
  Station sta{scheduler, medium, {0, 0}, cfg, Rng{2}};

  std::optional<CycleReport> report;
  sta.run_duty_cycle_transmission(Bytes{1}, [&](const CycleReport& r) { report = r; });
  scheduler.run_until(TimePoint{seconds(30)});

  ASSERT_TRUE(report.has_value());
  // Even a failed attempt burnt init + probe-retry energy; a deployment
  // planning on WiFi-DC must budget for AP outages.
  EXPECT_GT(in_millijoules(report->energy), 50.0);
  EXPECT_GT(to_seconds(report->active_time), 0.5);
}

TEST(StationFailure, UnacknowledgedPsSendReportsTheFailedCycle) {
  rig::WifiCell cell;
  bool ready = false;
  cell.station.connect_and_enter_power_save([&](bool ok) { ready = ok; });
  cell.scheduler.run_until(TimePoint{seconds(10)});
  ASSERT_TRUE(ready);

  // The AP goes down, so the PS data frame exhausts its MAC retries.
  cell.ap.stop();
  std::optional<CycleReport> report;
  cell.station.power_save_send(Bytes(16, 0x42), [&](const CycleReport& r) { report = r; });
  cell.scheduler.run_until(cell.scheduler.now() + seconds(5));

  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->success);
  EXPECT_GT(report->active_time, Duration{0});
  EXPECT_EQ(report->active_time, report->sleep_time - report->wake_time);
  EXPECT_EQ(report->energy.value,
            cell.station.timeline().energy_between(report->wake_time, report->sleep_time).value);
  EXPECT_EQ(cell.station.stats().link_losses, 1u);
  EXPECT_TRUE(cell.station.deep_sleeping());
}

TEST(StationFailure, SucceedsAfterApComesBack) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  StationConfig cfg;
  Station sta{scheduler, medium, {2, 0}, cfg, Rng{2}};

  // First attempt: no AP.
  std::optional<CycleReport> first;
  sta.run_duty_cycle_transmission(Bytes{1}, [&](const CycleReport& r) { first = r; });
  scheduler.run_until(TimePoint{seconds(30)});
  ASSERT_TRUE(first && !first->success);

  // AP appears; second attempt succeeds.
  ap::AccessPointConfig ap_cfg;
  ap::AccessPoint ap{scheduler, medium, {0, 0}, ap_cfg, Rng{3}};
  ap.set_uplink_handler([](const MacAddress&, const net::Ipv4Header&,
                           const net::UdpDatagram&) {});
  ap.start();
  std::optional<CycleReport> second;
  sta.run_duty_cycle_transmission(Bytes{2}, [&](const CycleReport& r) { second = r; });
  scheduler.run_until(scheduler.now() + seconds(30));
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->success);
}

}  // namespace
}  // namespace wile::sta
