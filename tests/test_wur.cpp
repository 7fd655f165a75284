// 802.11ba wake-up radio (DESIGN.md §15): the third transmission mode.
//
// Pins the WUR contracts:
//  * WurPhy timing — the 48-bit wake-up frame occupies exactly 920 us at
//    the low rate and 280 us at the high rate, decomposed per 802.11ba;
//  * the wake-frame codec round-trips, matches golden wire bytes (FCS
//    included), masks addresses to 12 bits, and rejects every
//    corruption class (length, frame control, reserved flag bits,
//    12-bit address overflow, FCS);
//  * wake behaviour end-to-end through a real Scheduler + Medium: a
//    unicast wake runs exactly one cycle, reliability repeats dedupe on
//    the sequence counter, wrong-ID and group-addressed frames are
//    ignored, a disarmed companion stays asleep, and each radio is
//    handed only the frames it can demodulate;
//  * companion-receiver energy settlement across brown-outs — the uW
//    listen overlay rides every parked segment, dies with the board
//    during the dark window (it must not keep integrating), and is
//    restored on recharge; energy integration stays exact across the
//    brown-out boundary and the companion wakes again after recovery;
//  * the start rule: a wake decoded just before a brown-out, whose
//    latency ends on the dark board, runs no cycle;
//  * ScenarioBuilder mode presets (the unified transmission-mode API):
//    an explicit .mode(TxMode::WiLeBeacon) is bit-identical to the
//    historical default path, .mode(TxMode::Ble) is bit-identical to
//    hand-wiring the BLE fleet, a .wur() fleet wakes every device on
//    every unicast sweep (also when the fleet size is a multiple of
//    256), a zero wake cadence is rejected, and a duty cycle that cannot
//    advance time (zero period, or jitter >= period) is rejected by
//    build() and Sender::start_duty_cycle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ap/wur_scheduler.hpp"
#include "ble/advertiser.hpp"
#include "phy/wur_phy.hpp"
#include "sim/fault.hpp"
#include "wile/receiver.hpp"
#include "wile/scenario.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

// --- WurPhy timing ----------------------------------------------------------

TEST(WurPhy, FrameAirtimeMatchesStandardTimings) {
  using phy::WurPhy;
  using phy::WurRate;

  EXPECT_EQ(WurPhy::bit_time(WurRate::kLow), usec(16));
  EXPECT_EQ(WurPhy::bit_time(WurRate::kHigh), usec(4));
  EXPECT_EQ(WurPhy::sync_time(WurRate::kLow), usec(128));
  EXPECT_EQ(WurPhy::sync_time(WurRate::kHigh), usec(64));

  // 20 (legacy preamble) + 4 (BPSK-Mark) + sync + 48 bits of OOK body.
  EXPECT_EQ(WurPhy::frame_airtime(WurRate::kLow), usec(20 + 4 + 128 + 48 * 16));
  EXPECT_EQ(WurPhy::frame_airtime(WurRate::kLow), usec(920));
  EXPECT_EQ(WurPhy::frame_airtime(WurRate::kHigh), usec(20 + 4 + 64 + 48 * 4));
  EXPECT_EQ(WurPhy::frame_airtime(WurRate::kHigh), usec(280));

  // The generic PPDU airtime underlying it.
  EXPECT_EQ(WurPhy::ppdu_airtime(0, WurRate::kHigh), usec(88));
  EXPECT_EQ(WurPhy::ppdu_airtime(8, WurRate::kLow), usec(280));
}

// --- wake-frame codec -------------------------------------------------------

TEST(WurCodec, RoundTripsUnicastAndGroupFrames) {
  const phy::WakeUpFrame unicast{/*group_addressed=*/false, /*address=*/0x123,
                                 /*seq=*/7};
  const Bytes body = phy::encode_wakeup_frame(unicast);
  ASSERT_EQ(body.size(), phy::WurPhy::kFrameBytes);
  const auto decoded = phy::decode_wakeup_frame(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, unicast);

  const phy::WakeUpFrame group{/*group_addressed=*/true, /*address=*/0xABC,
                               /*seq=*/255};
  const auto decoded_group = phy::decode_wakeup_frame(phy::encode_wakeup_frame(group));
  ASSERT_TRUE(decoded_group.has_value());
  EXPECT_EQ(*decoded_group, group);
}

TEST(WurCodec, WireBytesMatchGoldenVectors) {
  // Pins the on-air bytes, FCS included: a round trip alone would pass
  // with any CRC table, because encode and decode share it. The FCS is
  // CRC-8/ATM (poly 0x07, init 0) over the first five bytes.
  EXPECT_EQ(phy::encode_wakeup_frame({false, 0x123, 7}),
            (Bytes{0xBA, 0x00, 0x23, 0x01, 0x07, 0xE2}));
  EXPECT_EQ(phy::encode_wakeup_frame({true, 0xABC, 255}),
            (Bytes{0xBA, 0x01, 0xBC, 0x0A, 0xFF, 0x6B}));
  const auto decoded =
      phy::decode_wakeup_frame(Bytes{0xBA, 0x01, 0xBC, 0x0A, 0xFF, 0x6B});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, (phy::WakeUpFrame{true, 0xABC, 255}));
}

TEST(WurCodec, MasksAddressesToTwelveBits) {
  const auto decoded = phy::decode_wakeup_frame(
      phy::encode_wakeup_frame({false, /*address=*/0xFFFF, /*seq=*/1}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->address, phy::WurPhy::kMaxId);
}

TEST(WurCodec, RejectsEveryCorruptionClass) {
  const Bytes good = phy::encode_wakeup_frame({false, 0x123, 7});
  ASSERT_TRUE(phy::decode_wakeup_frame(good).has_value());

  // Wrong length: truncated and padded bodies are not WUR frames.
  EXPECT_FALSE(phy::decode_wakeup_frame(BytesView{good.data(), good.size() - 1}));
  Bytes padded = good;
  padded.push_back(0x00);
  EXPECT_FALSE(phy::decode_wakeup_frame(padded).has_value());

  // Wrong frame control: Wi-LE beacons / 802.11 MPDUs never alias.
  Bytes bad_fc = good;
  bad_fc[0] = 0x80;  // a beacon's first byte
  EXPECT_FALSE(phy::decode_wakeup_frame(bad_fc).has_value());

  // Reserved flag bits set.
  Bytes bad_flags = good;
  bad_flags[1] |= 0x02;
  EXPECT_FALSE(phy::decode_wakeup_frame(bad_flags).has_value());

  // Address overflows 12 bits on the wire.
  Bytes bad_addr = good;
  bad_addr[3] |= 0x10;
  EXPECT_FALSE(phy::decode_wakeup_frame(bad_addr).has_value());

  // FCS: a single flipped payload bit is caught.
  Bytes bad_crc = good;
  bad_crc[4] ^= 0x01;
  EXPECT_FALSE(phy::decode_wakeup_frame(bad_crc).has_value());
}

// --- wake behaviour through the medium --------------------------------------

struct WurRig {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD37E12}};
  std::unique_ptr<Sender> sender;
  std::unique_ptr<ap::WurScheduler> ap;
  Receiver monitor{scheduler, medium, {2, 0}};
  std::uint64_t deliveries = 0;

  explicit WurRig(WurCompanionConfig wur, ap::WurSchedulerConfig ap_cfg = {}) {
    SenderConfig cfg;
    cfg.device_id = 0x42;
    cfg.wur = wur;
    sender = std::make_unique<Sender>(scheduler, medium, sim::Position{0, 0}, cfg,
                                      Rng{0xBEEF});
    ap = std::make_unique<ap::WurScheduler>(scheduler, medium, sim::Position{0, 1},
                                            Rng{0x11BA}, ap_cfg);
    monitor.set_message_callback(
        [this](const Message&, const RxMeta&) { ++deliveries; });
    sender->arm_wur([] { return Bytes{0x17, 0xC0}; });
  }
};

TEST(WurWake, UnicastWakeRunsExactlyOneCycle) {
  WurRig rig{WurCompanionConfig{}};
  // Unset WUR ID derives from the device ID, masked to 12 bits.
  EXPECT_EQ(rig.sender->wur_id(), 0x42);

  rig.ap->wake(rig.sender->wur_id());
  rig.scheduler.run_until_idle();

  EXPECT_EQ(rig.ap->wakes_sent(), 1u);
  EXPECT_EQ(rig.sender->wur_wakes(), 1u);
  EXPECT_EQ(rig.sender->cycles_run(), 1u);
  EXPECT_EQ(rig.sender->wur_frames_ignored(), 0u);
  EXPECT_EQ(rig.deliveries, 1u);
  // Each radio is handed only what it can demodulate: the wake frame at
  // the companion and the beacon at the monitor. Neither the monitor
  // (OOK wake frame) nor the deep-sleeping companion (OFDM beacon) sees
  // the other's frame.
  EXPECT_EQ(rig.medium.stats().deliveries, 2u);
  // The AP's airtime ledger counted one high-rate wake frame.
  EXPECT_EQ(rig.ap->tx_airtime_total(),
            phy::WurPhy::frame_airtime(phy::WurRate::kHigh));
}

TEST(WurWake, ReliabilityRepeatsDedupeOnSequence) {
  // Two back-to-back copies of the same wake frame; stretch the decode
  // latency so the repeat still finds the main radio in deep sleep.
  WurCompanionConfig wur;
  wur.receiver.wake_latency = msec(5);
  ap::WurSchedulerConfig ap_cfg;
  ap_cfg.repeats = 2;
  WurRig rig{wur, ap_cfg};

  rig.ap->wake(rig.sender->wur_id());
  rig.scheduler.run_until_idle();

  EXPECT_EQ(rig.ap->wakes_sent(), 2u);  // two frames on the air...
  EXPECT_EQ(rig.sender->wur_wakes(), 1u);
  EXPECT_EQ(rig.sender->cycles_run(), 1u);
  EXPECT_EQ(rig.sender->wur_frames_ignored(), 1u);  // ...second one deduped
  EXPECT_EQ(rig.deliveries, 1u);
}

TEST(WurWake, WrongIdAndGroupFramesAreIgnored) {
  WurRig rig{WurCompanionConfig{}};

  rig.ap->wake(rig.sender->wur_id() + 1);  // someone else's companion
  rig.scheduler.run_until_idle();
  // A group-addressed frame carrying this device's own ID: the companion
  // answers unicast wakes only.
  const phy::WakeUpFrame group{/*group_addressed=*/true, rig.sender->wur_id(), /*seq=*/0};
  sim::TxRequest req;
  req.mpdu = FrameBuffer{phy::encode_wakeup_frame(group)};
  req.airtime = phy::WurPhy::frame_airtime(phy::WurRate::kHigh);
  req.tx_power_dbm = 20.0;
  rig.medium.transmit(rig.ap->node_id(), std::move(req));
  rig.scheduler.run_until_idle();

  EXPECT_EQ(rig.sender->wur_wakes(), 0u);
  EXPECT_EQ(rig.sender->cycles_run(), 0u);
  EXPECT_EQ(rig.sender->wur_frames_ignored(), 2u);
  EXPECT_EQ(rig.deliveries, 0u);
}

TEST(WurWake, DisarmedCompanionStaysAsleep) {
  WurRig rig{WurCompanionConfig{}};
  rig.sender->disarm_wur();

  rig.ap->wake(rig.sender->wur_id());
  rig.scheduler.run_until_idle();

  EXPECT_EQ(rig.sender->wur_wakes(), 0u);
  EXPECT_EQ(rig.sender->cycles_run(), 0u);
  EXPECT_EQ(rig.sender->wur_frames_ignored(), 1u);
}

// --- companion energy settlement across brown-outs --------------------------

Amps current_at(const power::PowerTimeline& timeline, TimePoint t) {
  Amps current{0.0};
  for (const power::Segment& seg : timeline.segments()) {
    if (seg.start > t) break;
    current = seg.current;
  }
  return current;
}

TEST(WurPower, ListenOverlayDiesInBrownOutAndReturnsOnRecharge) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD37E12}};

  SenderConfig cfg;
  cfg.device_id = 0x77;
  cfg.wur = WurCompanionConfig{};
  HarvestingConfig h;
  h.harvester.harvest_power = Watts{10e-3};
  cfg.harvesting = h;
  Sender sender{scheduler, medium, sim::Position{0, 0}, cfg, Rng{0xBEEF}};
  sender.arm_wur([] { return Bytes{0x17}; });

  const Amps listen = cfg.wur->receiver.listen;
  const Amps parked = cfg.power.deep_sleep + listen;

  // Armed and parked: the uW listen draw rides on top of deep sleep.
  scheduler.run_until(TimePoint{seconds(2)});
  EXPECT_EQ(current_at(sender.timeline(), TimePoint{seconds(1)}).value, parked.value);
  ASSERT_FALSE(sender.timeline().segments().empty());
  EXPECT_EQ(sender.timeline().segments().back().phase, power::PhaseId::WurListen);

  // Brown out the idle board at t = 2 s: dark means *zero* draw — the
  // companion receiver must not keep integrating its overlay.
  sim::FaultInjector faults{scheduler, medium, Rng{0xFA11}};
  faults.attach_energy_target(sender.energy_governor());
  faults.brown_out(TimePoint{seconds(2)}, *sender.energy_governor());
  scheduler.run_until(TimePoint{msec(2100)});
  EXPECT_EQ(sender.brown_outs(), 1u);
  EXPECT_TRUE(sender.recovering());
  EXPECT_EQ(current_at(sender.timeline(), TimePoint{msec(2050)}).value, 0.0);

  // Recharge restores the overlay and the WurListen phase.
  scheduler.run_until(TimePoint{seconds(30)});
  EXPECT_FALSE(sender.recovering());
  EXPECT_EQ(sender.timeline().segments().back().phase, power::PhaseId::WurListen);
  EXPECT_EQ(sender.timeline().segments().back().current.value, parked.value);

  // Energy settlement is exact across the brown-out boundary: splitting
  // the integral at the dark window loses nothing.
  const TimePoint end{seconds(30)};
  const Joules whole = sender.timeline().energy_between(TimePoint{}, end);
  const Joules split =
      sender.timeline().energy_between(TimePoint{}, TimePoint{msec(2050)}) +
      sender.timeline().energy_between(TimePoint{msec(2050)}, end);
  EXPECT_EQ(whole.value, split.value);
  // And the dark stretch right after the cutoff integrates to zero.
  EXPECT_EQ(sender.timeline()
                .energy_between(TimePoint{msec(2001)}, TimePoint{msec(2050)})
                .value,
            0.0);

  // The companion is functional again after recovery.
  ap::WurScheduler ap{scheduler, medium, sim::Position{0, 1}, Rng{0x11BA}};
  ap.wake(sender.wur_id());
  scheduler.run_until(TimePoint{seconds(35)});
  EXPECT_EQ(sender.wur_wakes(), 1u);
  EXPECT_EQ(sender.cycles_run(), 1u);
}

TEST(WurPower, WakeThatReachesADarkBoardRunsNoCycle) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD37E12}};

  SenderConfig cfg;
  cfg.device_id = 0x77;
  cfg.wur = WurCompanionConfig{};
  HarvestingConfig h;
  h.harvester.harvest_power = Watts{10e-3};
  cfg.harvesting = h;
  Sender sender{scheduler, medium, sim::Position{0, 0}, cfg, Rng{0xBEEF}};
  sender.arm_wur([] { return Bytes{0x17}; });
  Receiver monitor{scheduler, medium, {2, 0}};
  std::uint64_t deliveries = 0;
  monitor.set_message_callback([&](const Message&, const RxMeta&) { ++deliveries; });
  ap::WurScheduler ap{scheduler, medium, sim::Position{0, 1}, Rng{0x11BA}};

  // The companion decodes the wake, and the board browns out at that
  // instant: the wake latency (200 us) that follows ends on a dark board.
  scheduler.run_until(TimePoint{seconds(1)});
  ap.wake(sender.wur_id());
  while (sender.wur_wakes() == 0 && scheduler.now() < TimePoint{seconds(2)}) {
    scheduler.run_until(scheduler.now() + usec(1));
  }
  ASSERT_EQ(sender.wur_wakes(), 1u);
  const TimePoint dark = scheduler.now();
  sender.energy_governor()->fault_brown_out();
  scheduler.run_until(dark + seconds(60));

  // No 300 ms init on an empty capacitor, so no second brown-out and no
  // checkpoint to resume: the wake is dropped, the board only recharges.
  EXPECT_EQ(sender.cycles_run(), 0u);
  EXPECT_EQ(sender.brown_outs(), 1u);
  EXPECT_EQ(sender.cycles_resumed(), 0u);
  EXPECT_EQ(current_at(sender.timeline(), dark + usec(250)).value, 0.0);
  EXPECT_EQ(deliveries, 0u);
}

// --- ScenarioBuilder mode presets -------------------------------------------

struct FleetDigest {
  std::uint64_t events = 0;
  sim::Medium::Stats medium{};
  std::uint64_t messages = 0;

  friend bool operator==(const FleetDigest& a, const FleetDigest& b) {
    return a.events == b.events && a.messages == b.messages &&
           a.medium.transmissions == b.medium.transmissions &&
           a.medium.deliveries == b.medium.deliveries &&
           a.medium.collision_losses == b.medium.collision_losses &&
           a.medium.channel_losses == b.medium.channel_losses;
  }
};

FleetDigest run_wile_fleet(bool explicit_mode) {
  sim::ScenarioBuilder b;
  if (explicit_mode) b.mode(TxMode::WiLeBeacon);
  auto scenario =
      b.devices(6).duty_cycle(seconds(2)).telemetry(false).build();
  scenario->run_until(TimePoint{seconds(10)});
  return {scenario->scheduler().events_run(), scenario->medium().stats(),
          scenario->messages()};
}

TEST(TxModePreset, ExplicitWiLeBeaconIsBitIdenticalToDefaultPath) {
  const FleetDigest implicit = run_wile_fleet(false);
  const FleetDigest explicit_mode = run_wile_fleet(true);
  EXPECT_TRUE(implicit == explicit_mode);
  EXPECT_GT(implicit.messages, 0u);
}

/// The BLE fleet the mode preset assembles, by hand, in the exact
/// historical order (the BLE branches of Scenario's device and gateway
/// loops): advertisers with master.fork() + staggered starts, then the
/// scanner on the diagonal.
FleetDigest run_hand_wired_ble(int n, int sim_seconds) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xF1EE7}};

  constexpr double kSpacingM = 5.0;  // the builder's default grid
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double extent = side * kSpacingM;
  constexpr std::uint64_t kPeriodUs = 2'000'000;

  Rng master{0xF1EE7C0DE};
  std::vector<std::unique_ptr<ble::BleAdvertiser>> advertisers;
  for (int i = 0; i < n; ++i) {
    ble::BleAdvertiserConfig cfg;
    cfg.address =
        MacAddress::from_seed(0xB1E0'0000u + static_cast<std::uint64_t>(i) + 1);
    cfg.adv_interval = seconds(2);
    cfg.adv_delay_max = msec(10);  // the preset's default advDelay
    const sim::Position pos{(i % side) * kSpacingM, (i / side) * kSpacingM};
    advertisers.push_back(std::make_unique<ble::BleAdvertiser>(
        scheduler, medium, pos, cfg, master.fork()));
    ble::BleAdvertiser* a = advertisers.back().get();
    const auto start_us = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(i) * kPeriodUs) / static_cast<std::uint64_t>(n));
    scheduler.schedule_at(TimePoint{usec(start_us)},
                          [a] { a->start([] { return Bytes(16, 0xA5); }); });
  }

  std::uint64_t pdus = 0;
  ble::BleScanner scanner{scheduler, medium,
                          sim::Position{0.5 * extent, 0.5 * extent}};
  scanner.set_callback([&pdus](const ble::AdvertisingPdu&, double) { ++pdus; });

  scheduler.run_until(TimePoint{seconds(sim_seconds)});
  return {scheduler.events_run(), medium.stats(), pdus};
}

TEST(TxModePreset, BleModeIsBitIdenticalToHandWiring) {
  constexpr int kN = 6;
  constexpr int kSimSeconds = 10;
  const FleetDigest legacy = run_hand_wired_ble(kN, kSimSeconds);

  auto scenario = sim::ScenarioBuilder{}
                      .mode(TxMode::Ble)
                      .devices(kN)
                      .duty_cycle(seconds(2))
                      .telemetry(false)
                      .build();
  EXPECT_EQ(scenario->tx_mode(), TxMode::Ble);
  EXPECT_EQ(scenario->ble_devices().size(), static_cast<std::size_t>(kN));
  scenario->run_until(TimePoint{seconds(kSimSeconds)});

  EXPECT_EQ(scenario->scheduler().events_run(), legacy.events);
  EXPECT_EQ(scenario->medium().stats().transmissions, legacy.medium.transmissions);
  EXPECT_EQ(scenario->medium().stats().deliveries, legacy.medium.deliveries);
  EXPECT_EQ(scenario->medium().stats().collision_losses,
            legacy.medium.collision_losses);
  EXPECT_EQ(scenario->medium().stats().channel_losses, legacy.medium.channel_losses);
  EXPECT_EQ(scenario->messages(), legacy.messages);
  EXPECT_GT(scenario->messages(), 0u);  // guard against silent fleets
}

TEST(TxModePreset, BleFleetRunsTheFaultHook) {
  // The fault schedule is part of the shared wiring, not of the Wi-LE
  // node types: a BLE fleet's hook must reach the injector too.
  auto scenario = sim::ScenarioBuilder{}
                      .mode(TxMode::Ble)
                      .devices(6)
                      .duty_cycle(seconds(2))
                      .configure_faults([](sim::FaultInjector& faults) {
                        faults.per_floor(TimePoint{seconds(2)}, seconds(4), 0.9);
                      })
                      .build();
  EXPECT_EQ(scenario->faults().stats().windows_scheduled, 1u);
  scenario->run_until(TimePoint{seconds(10)});
  EXPECT_EQ(scenario->faults().stats().windows_ended, 1u);
  EXPECT_GT(scenario->medium().stats().channel_losses, 0u);
}

TEST(TxModePreset, WurFleetRejectsAZeroCadence) {
  // A zero duty cycle leaves the wake cadence at zero: the round robin
  // refuses it rather than waking every microsecond.
  EXPECT_THROW(sim::ScenarioBuilder()
                   .devices(4)
                   .gateways(1)
                   .duty_cycle(Duration{0})
                   .wur(sim::WurFleetOptions{})
                   .build(),
               std::invalid_argument);
}

TEST(TxModePreset, WiLeFleetRejectsADutyCycleThatCannotAdvance) {
  // A zero period re-arms every wake timer at the same instant forever;
  // a jitter as long as the period can schedule a wake in the past.
  // build() refuses both instead of hanging or throwing mid-run.
  EXPECT_THROW(sim::ScenarioBuilder{}
                   .devices(4)
                   .duty_cycle(Duration{0})
                   .wake_jitter(Duration{0})
                   .build(),
               std::invalid_argument);
  EXPECT_THROW(
      sim::ScenarioBuilder{}.devices(4).duty_cycle(seconds(1)).wake_jitter(seconds(2)).build(),
      std::invalid_argument);
  EXPECT_THROW(
      sim::ScenarioBuilder{}.devices(4).duty_cycle(seconds(1)).wake_jitter(seconds(1)).build(),
      std::invalid_argument);
  // The longest jitter that still advances time is accepted.
  EXPECT_NO_THROW(sim::ScenarioBuilder{}
                      .devices(4)
                      .duty_cycle(seconds(1))
                      .wake_jitter(seconds(1) - usec(1))
                      .build());
}

TEST(TxModePreset, BleFleetRejectsAZeroDutyCycle) {
  // Zero-interval advertising events would overlap on one radio.
  EXPECT_THROW(
      sim::ScenarioBuilder{}.mode(TxMode::Ble).devices(4).duty_cycle(Duration{0}).build(),
      std::invalid_argument);
}

TEST(SenderDutyCycle, RejectsAPeriodThatCannotAdvance) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD07}};
  const auto provider = [] { return Bytes{0x01}; };

  SenderConfig zero;
  zero.period = Duration{0};
  Sender stuck{scheduler, medium, sim::Position{0, 0}, zero, Rng{1}};
  SenderConfig jittery;
  jittery.period = seconds(1);
  jittery.wake_jitter = seconds(2);
  Sender backwards{scheduler, medium, sim::Position{1, 0}, jittery, Rng{2}};

  const std::size_t pending = scheduler.pending_events();
  EXPECT_THROW(stuck.start_duty_cycle(provider), std::invalid_argument);
  EXPECT_THROW(backwards.start_duty_cycle(provider), std::invalid_argument);
  EXPECT_EQ(scheduler.pending_events(), pending);  // no wake timer armed

  SenderConfig ok;
  ok.period = seconds(1);
  ok.wake_jitter = seconds(1) - usec(1);
  Sender fine{scheduler, medium, sim::Position{2, 0}, ok, Rng{3}};
  EXPECT_NO_THROW(fine.start_duty_cycle(provider));
}

TEST(TxModePreset, WurFleetWakesEveryDeviceEverySweep) {
  // 256 devices on a 0.5 m grid, one sweep per 10 s: the AP wakes every
  // device twelve times in 120 s, and every wake runs a cycle. A fleet
  // whose size is a multiple of 256 is the hard case: each WUR ID needs
  // its own 8-bit wake counter, or device j draws the same sequence
  // number on every sweep and its companion drops the wake as a repeat.
  constexpr int kDevices = 256;
  sim::WurFleetOptions wur;
  wur.cadence = seconds(10);
  auto scenario = sim::ScenarioBuilder{}
                      .devices(kDevices)
                      .grid_spacing_m(0.5)
                      .duty_cycle(seconds(10))
                      .wur(wur)
                      .telemetry(false)
                      .gateways(1)
                      .build();
  EXPECT_EQ(scenario->tx_mode(), TxMode::Wur);
  ASSERT_NE(scenario->wur_ap(), nullptr);
  scenario->run_until(TimePoint{seconds(120)});

  EXPECT_EQ(scenario->wur_ap()->wakes_sent(), 12u * kDevices);
  std::vector<std::uint64_t> cycles;
  for (const auto& s : scenario->devices()) cycles.push_back(s->cycles_run());
  EXPECT_EQ(cycles, std::vector<std::uint64_t>(kDevices, 12));
  EXPECT_GT(scenario->messages(), 0u);
}

}  // namespace
}  // namespace wile::core
