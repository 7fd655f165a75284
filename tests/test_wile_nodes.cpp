// Unit-level behaviour tests for the Wi-LE nodes (Sender / Receiver /
// Controller) beyond the end-to-end integration suite: lifecycle,
// scheduling, configuration knobs, and edge cases.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/scenario.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

class WileNodes : public ::testing::Test {
 protected:
  sim::Scheduler scheduler_;
  sim::Medium medium_{scheduler_, phy::Channel{}, Rng{1}};
};

// ---------------------------------------------------------------------------
// Sender lifecycle
// ---------------------------------------------------------------------------

TEST_F(WileNodes, StopDutyCycleStopsPromptly) {
  SenderConfig cfg;
  cfg.period = seconds(1);
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {2, 0}};

  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler_.run_until(TimePoint{seconds(3) + msec(500)});
  sender.stop_duty_cycle();
  const auto at_stop = monitor.stats().messages;
  scheduler_.run_until(TimePoint{seconds(10)});
  EXPECT_EQ(monitor.stats().messages, at_stop);
  EXPECT_EQ(sender.cycles_run(), at_stop);
}

TEST_F(WileNodes, SendNowWhileBusyThrows) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  sender.send_now(Bytes{1}, {});
  EXPECT_THROW(sender.send_now(Bytes{2}, {}), std::logic_error);
  scheduler_.run_until_idle();
  // After the cycle completes, sending works again.
  EXPECT_NO_THROW(sender.send_now(Bytes{3}, {}));
  scheduler_.run_until_idle();
}

TEST_F(WileNodes, NullProviderRejected) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  EXPECT_THROW(sender.start_duty_cycle(nullptr), std::invalid_argument);
}

TEST_F(WileNodes, SequenceNumbersIncrementPerCycle) {
  SenderConfig cfg;
  cfg.period = seconds(1);
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {2, 0}};
  std::vector<std::uint32_t> seqs;
  monitor.set_message_callback(
      [&](const Message& m, const RxMeta&) { seqs.push_back(m.sequence); });

  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler_.run_until(TimePoint{seconds(5) + msec(500)});
  sender.stop_duty_cycle();
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST_F(WileNodes, ClockPpmErrorSkewsThePeriod) {
  // +40 ppm on a 1 s period = +40 us per cycle; over 100 cycles the
  // fast and slow devices drift ~8 ms apart — measurable, tiny, and
  // exactly what §6 relies on.
  auto last_arrival = [&](double ppm) {
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{3}};
    SenderConfig cfg;
    cfg.period = seconds(1);
    cfg.clock_ppm_error = ppm;
    Sender sender{scheduler, medium, {0, 0}, cfg, Rng{4}};
    Receiver monitor{scheduler, medium, {2, 0}};
    TimePoint last{};
    monitor.set_message_callback(
        [&](const Message&, const RxMeta& meta) { last = meta.received_at; });
    sender.start_duty_cycle([] { return Bytes{1}; });
    scheduler.run_until(TimePoint{seconds(101)});
    sender.stop_duty_cycle();
    return last;
  };
  const TimePoint fast = last_arrival(-40.0);
  const TimePoint slow = last_arrival(+40.0);
  const double drift_us = static_cast<double>((slow - fast).count());
  EXPECT_NEAR(drift_us, 8000.0, 200.0);  // 100 cycles x 80 us differential
}

TEST_F(WileNodes, PowerDrawAccessorsMatchProfile) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  EXPECT_NEAR(sender.tx_power_draw().value, 0.6, 0.01);
  EXPECT_NEAR(in_microwatts(sender.idle_power_draw()), 8.25, 0.01);
}

TEST_F(WileNodes, DerivedMacIsStablePerDevice) {
  SenderConfig a;
  a.device_id = 5;
  SenderConfig b;
  b.device_id = 5;
  SenderConfig c;
  c.device_id = 6;
  Sender sa{scheduler_, medium_, {0, 0}, a, Rng{1}};
  Sender sb{scheduler_, medium_, {0, 1}, b, Rng{2}};
  Sender sc{scheduler_, medium_, {0, 2}, c, Rng{3}};
  EXPECT_EQ(sa.mac(), sb.mac());
  EXPECT_NE(sa.mac(), sc.mac());
  EXPECT_TRUE(sa.mac().is_local());
}

TEST_F(WileNodes, CycleEnergyNeedsNoHistory) {
  // Three repeats make 10 power segments a cycle, more than half a
  // 16-segment bound, so the wake is folded away before the cycle ends.
  // The report's energy is a running sum from the wake and matches an
  // unbounded twin's bit for bit.
  const auto cycle_energies = [](std::size_t bound) {
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
    SenderConfig cfg;
    cfg.period = seconds(1);
    cfg.redundancy.repeats = 3;
    cfg.timeline_max_segments = bound;
    Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
    std::vector<double> energies;
    sender.start_duty_cycle([] { return Bytes(16, 0x5a); },
                            [&](const SendReport& r) { energies.push_back(r.cycle_energy.value); });
    scheduler.run_until(TimePoint{seconds(60)});
    return energies;
  };
  const std::vector<double> bounded = cycle_energies(16);
  const std::vector<double> unbounded = cycle_energies(0);
  ASSERT_EQ(bounded.size(), 59u);
  ASSERT_EQ(unbounded.size(), bounded.size());
  for (std::size_t i = 0; i < bounded.size(); ++i) {
    EXPECT_GT(bounded[i], 0.0);
    EXPECT_EQ(bounded[i], unbounded[i]) << "cycle " << i;
  }
}

// ---------------------------------------------------------------------------
// Shared profiles: a fleet's devices share everything but their identity
// ---------------------------------------------------------------------------

bool one_profile(sim::Scenario& scenario) {
  const auto& devices = scenario.devices();
  for (const auto& d : devices) {
    if (&d->profile() != &devices.front()->profile()) return false;
  }
  return true;
}

TEST(SenderProfile, FitsEveryFieldButIdentity) {
  const SenderProfile profile{SenderConfig{}};
  SenderConfig identity;
  identity.device_id = 77;
  identity.mac = MacAddress::from_seed(3);
  identity.clock_ppm_error = 20.0;
  EXPECT_TRUE(profile.fits(identity));

  using Change = void (*)(SenderConfig&);
  const std::vector<std::pair<const char*, Change>> changes = {
      {"rate", [](SenderConfig& c) { c.rate = phy::WifiRate::B1; }},
      {"band", [](SenderConfig& c) { c.band = phy::Band::G5; }},
      {"tx_power_dbm", [](SenderConfig& c) { c.tx_power_dbm = 3.0; }},
      {"key", [](SenderConfig& c) { c.key = Bytes(16, 0x42); }},
      {"period", [](SenderConfig& c) { c.period = seconds(30); }},
      {"wake_jitter", [](SenderConfig& c) { c.wake_jitter = msec(5); }},
      {"use_csma", [](SenderConfig& c) { c.use_csma = false; }},
      {"beacon_interval_tu", [](SenderConfig& c) { c.beacon_interval_tu = 200; }},
      {"spoofed_ssid", [](SenderConfig& c) { c.spoofed_ssid = "cafe"; }},
      {"ssid_stuffing", [](SenderConfig& c) { c.ssid_stuffing = true; }},
      {"rx_window", [](SenderConfig& c) { c.rx_window = RxWindow{msec(2), msec(20)}; }},
      {"reliable", [](SenderConfig& c) { c.reliable = true; }},
      {"reliable_max_attempts", [](SenderConfig& c) { c.reliable_max_attempts = 5; }},
      {"initial_sequence", [](SenderConfig& c) { c.initial_sequence = 9; }},
      {"redundancy", [](SenderConfig& c) { c.redundancy.recovery_k = 4; }},
      {"harvesting", [](SenderConfig& c) { c.harvesting = HarvestingConfig{}; }},
      {"wur", [](SenderConfig& c) { c.wur = WurCompanionConfig{}; }},
      {"power", [](SenderConfig& c) { c.power.radio_tx = milliamps(150.0); }},
      {"timeline_max_segments", [](SenderConfig& c) { c.timeline_max_segments = 64; }},
  };
  for (const auto& [field, change] : changes) {
    SenderConfig other = identity;
    change(other);
    EXPECT_FALSE(profile.fits(other)) << field;
  }
}

TEST(SenderProfile, FleetWithoutHookSharesOneProfile) {
  auto scenario = sim::ScenarioBuilder{}.devices(1000).auto_start(false).build();
  ASSERT_EQ(scenario->devices().size(), 1000u);
  EXPECT_TRUE(one_profile(*scenario));
}

TEST(SenderProfile, IdentityHookKeepsOneProfileAndEveryIdentity) {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(1000)
                      .auto_start(false)
                      .configure_sender([](SenderConfig& cfg, int i) {
                        cfg.device_id = 5000 + static_cast<std::uint32_t>(i);
                        cfg.clock_ppm_error = static_cast<double>(i % 81 - 40);
                      })
                      .build();
  EXPECT_TRUE(one_profile(*scenario));
  std::set<MacAddress> macs;
  for (int i = 0; i < 1000; ++i) {
    const Sender& d = *scenario->devices()[static_cast<std::size_t>(i)];
    EXPECT_EQ(d.device_id(), 5000u + static_cast<std::uint32_t>(i));
    EXPECT_EQ(d.mac(), MacAddress::from_seed(0xB13C000ULL + 5000 + static_cast<std::uint64_t>(i)));
    EXPECT_EQ(d.clock_ppm_error(), static_cast<double>(i % 81 - 40));
    macs.insert(d.mac());
  }
  EXPECT_EQ(macs.size(), 1000u);
  // The shared config carries nobody's identity.
  const SenderConfig& shared = scenario->devices().front()->config();
  EXPECT_EQ(shared.device_id, 0u);
  EXPECT_TRUE(shared.mac.is_zero());
  EXPECT_EQ(shared.clock_ppm_error, 0.0);
}

TEST(SenderProfile, WurIdsAreEachDevicesOwn) {
  auto scenario = sim::ScenarioBuilder{}.devices(300).wur(sim::WurFleetOptions{}).build();
  EXPECT_TRUE(one_profile(*scenario));
  for (std::size_t i = 0; i < 300; ++i) {
    const Sender& d = *scenario->devices()[i];
    EXPECT_EQ(d.device_id(), i + 1);
    EXPECT_EQ(d.wur_id(), i + 1);
  }
}

TEST(SenderProfile, DifferingConfigsGetTheirOwnProfiles) {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(20)
                      .duty_cycle(seconds(10))
                      .configure_sender([](SenderConfig& cfg, int i) {
                        if (i % 2 == 1) cfg.redundancy.repeats = 2;
                      })
                      .build();
  EXPECT_FALSE(one_profile(*scenario));
  scenario->run_for(seconds(35));
  scenario->stop_all();
  scenario->run_for(seconds(1));  // cycles in flight finish
  for (std::size_t i = 0; i < 20; ++i) {
    const Sender& d = *scenario->devices()[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(d.config().redundancy.repeats, i % 2 == 1 ? 2 : 1);
    ASSERT_GT(d.cycles_run(), 0u);
    EXPECT_EQ(d.beacons_sent(), d.cycles_run() * (i % 2 == 1 ? 2 : 1));
  }
}

TEST(SenderProfile, MismatchedCandidateIsNotUsed) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  // A device offered a profile that does not fit its config runs on one
  // of its own; a fitting one, or none, behaves as before.
  SenderConfig fleet;
  fleet.period = seconds(10);
  const auto shared = std::make_shared<const SenderProfile>(fleet);

  SenderConfig repeats = fleet;
  repeats.device_id = 9;
  repeats.redundancy.repeats = 2;
  Sender odd{scheduler, medium, {0, 0}, shared, repeats, Rng{2}};
  EXPECT_NE(&odd.profile(), shared.get());
  EXPECT_TRUE(odd.profile().fits(repeats));
  EXPECT_EQ(odd.config().redundancy.repeats, 2);

  SenderConfig identity = fleet;
  identity.device_id = 10;
  Sender same{scheduler, medium, {1, 0}, shared, identity, Rng{3}};
  EXPECT_EQ(&same.profile(), shared.get());
  Sender own{scheduler, medium, {2, 0}, nullptr, identity, Rng{4}};
  EXPECT_TRUE(own.profile().fits(identity));

  // The device transmits what its own config says: two copies.
  odd.send_now(Bytes{1, 2, 3}, {});
  scheduler.run_until_idle();
  EXPECT_EQ(odd.beacons_sent(), 2u);
}

TEST(SenderProfile, ClockDriftStaysWithItsDevice) {
  // Wake times, from each report: the report's instant less its active time.
  const auto wake_times = [](bool drift_device0) {
    auto scenario =
        sim::ScenarioBuilder{}.devices(2).duty_cycle(seconds(2)).auto_start(false).build();
    std::vector<std::vector<std::int64_t>> wakes(2);
    sim::Scheduler& clock = scenario->scheduler();
    for (std::size_t i = 0; i < 2; ++i) {
      scenario->devices()[i]->start_duty_cycle(
          [] { return Bytes(16, 0xA5); },
          [&wakes, &clock, i](const SendReport& r) {
            wakes[i].push_back((clock.now() - r.active_time).us());
          });
    }
    if (drift_device0) scenario->devices()[0]->apply_clock_drift_ppm(150000.0);
    scenario->run_for(seconds(20));
    return wakes;
  };
  const auto steady = wake_times(false);
  const auto drifted = wake_times(true);
  ASSERT_GE(steady[1].size(), 8u);
  EXPECT_EQ(drifted[1], steady[1]);
  EXPECT_NE(drifted[0], steady[0]);
}

// ---------------------------------------------------------------------------
// Receiver details
// ---------------------------------------------------------------------------

TEST_F(WileNodes, RssiFallsWithDistance) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver near{scheduler_, medium_, {1, 0}};
  Receiver far{scheduler_, medium_, {6, 0}};

  sender.send_now(Bytes{1}, {});
  scheduler_.run_until_idle();

  ASSERT_EQ(near.devices().size(), 1u);
  ASSERT_EQ(far.devices().size(), 1u);
  EXPECT_GT(near.devices().begin()->second.last_rssi_dbm,
            far.devices().begin()->second.last_rssi_dbm);
}

TEST_F(WileNodes, NonBeaconFramesIgnored) {
  Receiver monitor{scheduler_, medium_, {1, 0}};
  // Inject a raw data frame: the receiver must not count it as a beacon.
  struct Injector : sim::MediumClient {
    void on_frame(const sim::RxFrame&) override {}
    [[nodiscard]] bool rx_enabled() const override { return false; }
  } injector;
  const auto id = medium_.attach(&injector, {0, 0});
  sim::TxRequest req;
  req.mpdu = dot11::build_data_to_ds(MacAddress::from_seed(1), MacAddress::from_seed(2),
                                     MacAddress::from_seed(1), 1, Bytes{1, 2}, false);
  req.airtime = usec(100);
  req.rate = phy::WifiRate::G6;
  medium_.transmit(id, std::move(req));
  scheduler_.run_until_idle();

  EXPECT_EQ(monitor.stats().beacons_seen, 0u);
  EXPECT_EQ(monitor.stats().messages, 0u);
}

TEST_F(WileNodes, ForeignVendorBeaconCountsAsBeaconOnly) {
  Receiver monitor{scheduler_, medium_, {1, 0}};
  struct Injector : sim::MediumClient {
    void on_frame(const sim::RxFrame&) override {}
    [[nodiscard]] bool rx_enabled() const override { return false; }
  } injector;
  const auto id = medium_.attach(&injector, {0, 0});

  dot11::Beacon beacon;
  beacon.ies.add(dot11::make_ssid_ie("SomeNet"));
  // OUI 00:50:f2 (not Wi-LE's), vendor subtype 1, payload 1 2 3.
  beacon.ies.add({dot11::IeId::VendorSpecific, {0x00, 0x50, 0xf2, 1, 1, 2, 3}});
  sim::TxRequest req;
  req.mpdu = dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Beacon, MacAddress::broadcast(),
                                    MacAddress::from_seed(9), MacAddress::from_seed(9), 1,
                                    beacon.encode());
  req.airtime = usec(200);
  req.rate = phy::WifiRate::G6;
  medium_.transmit(id, std::move(req));
  scheduler_.run_until_idle();

  EXPECT_EQ(monitor.stats().beacons_seen, 1u);
  EXPECT_EQ(monitor.stats().wile_beacons, 0u);
  EXPECT_EQ(monitor.stats().messages, 0u);
}

// ---------------------------------------------------------------------------
// Controller details
// ---------------------------------------------------------------------------

TEST_F(WileNodes, ControllerIdleWithoutQueuedDownlinks) {
  SenderConfig cfg;
  cfg.device_id = 9;
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  ControllerConfig ctl_cfg;
  Controller controller{scheduler_, medium_, {2, 0}, ctl_cfg, Rng{3}};

  std::optional<SendReport> report;
  sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(controller.stats().windows_seen, 1u);
  EXPECT_EQ(controller.stats().downlinks_sent, 0u);
  EXPECT_EQ(report->downlinks_received, 0u);
}

TEST_F(WileNodes, ControllerDrainsQueueAcrossWindows) {
  SenderConfig cfg;
  cfg.device_id = 9;
  cfg.period = seconds(2);
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  ControllerConfig ctl_cfg;
  Controller controller{scheduler_, medium_, {2, 0}, ctl_cfg, Rng{3}};

  controller.queue_downlink(9, Bytes{'a'});
  controller.queue_downlink(9, Bytes{'b'});
  controller.queue_downlink(9, Bytes{'c'});

  std::vector<Bytes> got;
  sender.set_downlink_callback([&](const Message& m) { got.push_back(m.data); });
  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler_.run_until(TimePoint{seconds(10)});
  sender.stop_duty_cycle();

  // One downlink rides each window, in order.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Bytes{'a'}));
  EXPECT_EQ(got[1], (Bytes{'b'}));
  EXPECT_EQ(got[2], (Bytes{'c'}));
  EXPECT_EQ(controller.stats().downlinks_sent, 3u);
}

TEST_F(WileNodes, DownlinkForOtherDeviceIgnored) {
  SenderConfig cfg;
  cfg.device_id = 9;
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  ControllerConfig ctl_cfg;
  Controller controller{scheduler_, medium_, {2, 0}, ctl_cfg, Rng{3}};
  controller.queue_downlink(10, Bytes{'x'});  // not our device

  std::optional<SendReport> report;
  sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->downlinks_received, 0u);
  EXPECT_EQ(controller.stats().downlinks_sent, 0u);  // no window from device 10
}

// ---------------------------------------------------------------------------
// On-air bytes: every MPDU a sender puts on the air, pinned by hash. A
// promiscuous monitor 1 m away decodes everything for 120 s; the hash
// covers each frame's arrival time and bytes (timestamps and sequence
// control included), so any change to how a beacon train is built,
// repeated or paced shows.
// ---------------------------------------------------------------------------

struct MpduHasher : sim::MediumClient {
  explicit MpduHasher(const sim::Scheduler& s) : clock(s) {}
  const sim::Scheduler& clock;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  std::uint64_t frames = 0;
  void mix(std::uint64_t v) {
    hash ^= v;
    hash *= 0x100000001b3ULL;
  }
  void on_frame(const sim::RxFrame& frame) override {
    ++frames;
    mix(static_cast<std::uint64_t>(clock.now().us()));
    for (const std::uint8_t b : frame.mpdu.view()) mix(b);
    mix(frame.mpdu.size());
  }
  [[nodiscard]] bool rx_enabled() const override { return true; }
};

struct OnAirPin {
  const char* name;
  std::size_t payload_bytes;
  void (*configure)(SenderConfig&);
  std::uint64_t hash;
  std::uint64_t frames;
  std::uint64_t beacons;
};

TEST(SenderOnAir, EveryMpduMatchesItsPin) {
  const OnAirPin pins[] = {
      {"plain 16 B", 16, [](SenderConfig&) {}, 0x2b64df329941529fULL, 119, 119},
      {"600 B fragmented", 600, [](SenderConfig&) {}, 0x8ba8da94b936dc12ULL, 357, 357},
      {"recovery_k 4", 16, [](SenderConfig& c) { c.redundancy.recovery_k = 4; },
       0x97351cd82d6e9855ULL, 177, 177},
      {"rx_window", 16,
       [](SenderConfig& c) { c.rx_window = RxWindow{msec(2), msec(10)}; },
       0x15a12a105915c05cULL, 119, 119},
      {"encrypted", 40, [](SenderConfig& c) { c.key = Bytes(16, 0x42); },
       0xc0ab77edc62549e5ULL, 119, 119},
      {"repeats 3", 16, [](SenderConfig& c) { c.redundancy.repeats = 3; },
       0x1e5c84b16b670e32ULL, 357, 357},
      {"ssid_stuffing", 16, [](SenderConfig& c) { c.ssid_stuffing = true; },
       0x2507555f67775274ULL, 119, 119},
  };
  for (const OnAirPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{11}};
    SenderConfig cfg;
    cfg.device_id = 77;
    cfg.period = seconds(1);
    cfg.wake_jitter = msec(50);
    pin.configure(cfg);
    Sender sender{scheduler, medium, {0, 0}, cfg, Rng{12}};
    MpduHasher monitor{scheduler};
    medium.attach(&monitor, {1, 0});
    std::uint32_t cycle = 0;
    sender.start_duty_cycle([&] {
      Bytes data(pin.payload_bytes);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(cycle * 31 + i * 7);
      }
      ++cycle;
      return data;
    });
    scheduler.run_until(TimePoint{seconds(120)});
    sender.stop_duty_cycle();
    EXPECT_EQ(monitor.hash, pin.hash);
    EXPECT_EQ(monitor.frames, pin.frames);
    EXPECT_EQ(sender.beacons_sent(), pin.beacons);
  }
}

}  // namespace
}  // namespace wile::core
