// Forward erasure correction on the ack-less uplink: group parity
// inside fragmented messages, cross-cycle XOR recovery beacons, the
// ChannelReport downlink, and the loss-adaptive redundancy state
// machine. Everything here is deterministic for the pinned seeds.
#include <gtest/gtest.h>

#include <set>

#include "sim/fault.hpp"
#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

// ---------------------------------------------------------------------------
// Codec level: parity element encode/decode and XOR reconstruction.
// ---------------------------------------------------------------------------

Message fragmented_message(const Codec& codec, std::size_t fragments) {
  // Size the payload so it needs exactly `fragments` parity-mode
  // fragments (parity costs one data byte per fragment).
  const std::size_t per_frag = codec.max_fragment_data(true, false) - 1;
  Message msg;
  msg.device_id = 42;
  msg.sequence = 7;
  msg.data.resize(per_frag * (fragments - 1) + per_frag / 2);
  for (std::size_t i = 0; i < msg.data.size(); ++i) {
    msg.data[i] = static_cast<std::uint8_t>(i * 31 + 5);
  }
  return msg;
}

std::vector<Fragment> decode_elements(const Codec& codec,
                                      const std::vector<dot11::InfoElement>& ies) {
  std::vector<Fragment> out;
  for (const auto& ie : ies) {
    auto f = codec.decode(ie);
    EXPECT_TRUE(f.has_value());
    if (f) out.push_back(*f);
  }
  return out;
}

TEST(FecCodec, ParityAppendsOneElementAndFlagsIt) {
  Codec codec;
  const Message msg = fragmented_message(codec, 3);
  const auto plain = codec.encode(msg, /*parity=*/false);
  const auto with_parity = codec.encode(msg, /*parity=*/true);
  EXPECT_EQ(plain.size(), 3u);
  EXPECT_EQ(with_parity.size(), 4u);

  const auto frags = decode_elements(codec, with_parity);
  ASSERT_EQ(frags.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(frags[i].parity);
    EXPECT_EQ(frags[i].frag_index, i);
    EXPECT_EQ(frags[i].frag_count, 3);
  }
  EXPECT_TRUE(frags[3].parity);
  EXPECT_EQ(frags[3].frag_index, 3);  // parity slot: index == count
  EXPECT_EQ(frags[3].frag_count, 3);
}

TEST(FecCodec, UnfragmentedMessageGetsNoParity) {
  Codec codec;
  Message msg;
  msg.device_id = 1;
  msg.data = Bytes(10, 0xaa);
  EXPECT_EQ(codec.encode(msg, /*parity=*/true).size(), 1u);
}

TEST(FecCodec, AnySingleLostFragmentIsRecoveredFromParity) {
  Codec codec;
  const Message msg = fragmented_message(codec, 3);
  const auto frags = decode_elements(codec, codec.encode(msg, /*parity=*/true));
  ASSERT_EQ(frags.size(), 4u);

  for (std::size_t lost = 0; lost < 3; ++lost) {
    Reassembler reassembler;
    std::optional<Message> completed;
    for (std::size_t i = 0; i < frags.size(); ++i) {
      if (i == lost) continue;
      auto m = reassembler.add(frags[i]);
      if (m) completed = m;
    }
    ASSERT_TRUE(completed.has_value()) << "lost fragment " << lost;
    EXPECT_EQ(completed->data, msg.data);
    EXPECT_EQ(completed->sequence, msg.sequence);
    EXPECT_EQ(reassembler.parity_recoveries(), 1u);
  }
}

TEST(FecCodec, ParityFirstOrderingStillRecovers) {
  // The parity element may arrive before the data fragments (reordered
  // across repeats); reconstruction happens when the group becomes
  // one-short-plus-parity, whichever element lands last.
  Codec codec;
  const Message msg = fragmented_message(codec, 3);
  const auto frags = decode_elements(codec, codec.encode(msg, /*parity=*/true));

  Reassembler reassembler;
  EXPECT_FALSE(reassembler.add(frags[3]).has_value());  // parity first
  EXPECT_FALSE(reassembler.add(frags[0]).has_value());
  auto completed = reassembler.add(frags[2]);  // frag 1 never arrives
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->data, msg.data);
  EXPECT_EQ(reassembler.parity_recoveries(), 1u);
}

TEST(FecCodec, LostParityElementCostsNothing) {
  Codec codec;
  const Message msg = fragmented_message(codec, 3);
  const auto frags = decode_elements(codec, codec.encode(msg, /*parity=*/true));

  Reassembler reassembler;
  std::optional<Message> completed;
  for (std::size_t i = 0; i < 3; ++i) completed = reassembler.add(frags[i]);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->data, msg.data);
  EXPECT_EQ(reassembler.parity_recoveries(), 0u);
}

TEST(FecCodec, EncryptedParityRecovers) {
  // Parity is computed over plaintext and each element is sealed
  // independently, so XOR reconstruction works on decrypted fragments.
  Codec codec{Bytes(16, 0x5a)};
  const Message msg = fragmented_message(codec, 3);
  const auto frags = decode_elements(codec, codec.encode(msg, /*parity=*/true));
  ASSERT_EQ(frags.size(), 4u);

  Reassembler reassembler;
  std::optional<Message> completed;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    if (i == 1) continue;  // lose a middle fragment
    auto m = reassembler.add(frags[i]);
    if (m) completed = m;
  }
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->data, msg.data);
  EXPECT_EQ(reassembler.parity_recoveries(), 1u);
}

// ---------------------------------------------------------------------------
// Recovery / ChannelReport payload containers.
// ---------------------------------------------------------------------------

RecoveryPayload sample_recovery(std::size_t k, std::uint32_t base) {
  RecoveryPayload p;
  p.base_sequence = base;
  std::size_t max_len = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto len = static_cast<std::uint16_t>(3 + i);
    p.entries.push_back({MessageType::Telemetry, len});
    max_len = std::max<std::size_t>(max_len, len);
  }
  p.xor_block.resize(max_len);
  for (std::size_t i = 0; i < max_len; ++i) {
    p.xor_block[i] = static_cast<std::uint8_t>(0xc0 + i);
  }
  return p;
}

TEST(FecPayloads, RecoveryRoundTripsAtGroupBounds) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, kMaxRecoveryGroup}) {
    const RecoveryPayload payload = sample_recovery(k, 0x12345678);
    const auto decoded = decode_recovery_payload(encode_recovery_payload(payload));
    ASSERT_TRUE(decoded.has_value()) << "k=" << k;
    EXPECT_EQ(*decoded, payload);
  }
  // Wrap-adjacent base sequence survives the trip untouched.
  const RecoveryPayload wrap = sample_recovery(4, 0xfffffffe);
  EXPECT_EQ(decode_recovery_payload(encode_recovery_payload(wrap)), wrap);
}

TEST(FecPayloads, RecoveryEncodeRejectsBadGroups) {
  RecoveryPayload empty;
  EXPECT_THROW((void)encode_recovery_payload(empty), std::invalid_argument);

  RecoveryPayload oversized = sample_recovery(kMaxRecoveryGroup, 0);
  oversized.entries.push_back({MessageType::Telemetry, 1});
  EXPECT_THROW((void)encode_recovery_payload(oversized), std::invalid_argument);

  RecoveryPayload short_block = sample_recovery(4, 0);
  short_block.xor_block.pop_back();
  EXPECT_THROW((void)encode_recovery_payload(short_block), std::invalid_argument);
}

TEST(FecPayloads, RecoveryDecodeRejectsMalformedInput) {
  const Bytes valid = encode_recovery_payload(sample_recovery(4, 100));
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(decode_recovery_payload(BytesView{valid.data(), len}).has_value());
  }
  Bytes trailing = valid;
  trailing.push_back(0);
  EXPECT_FALSE(decode_recovery_payload(trailing).has_value());
  Bytes zero_k = valid;
  zero_k[4] = 0;
  EXPECT_FALSE(decode_recovery_payload(zero_k).has_value());
  Bytes huge_k = valid;
  huge_k[4] = static_cast<std::uint8_t>(kMaxRecoveryGroup + 1);
  EXPECT_FALSE(decode_recovery_payload(huge_k).has_value());
}

TEST(FecPayloads, ChannelReportRoundTripsAndValidates) {
  const ChannelReport report{0xdeadbeef, 437, 16};
  EXPECT_EQ(decode_channel_report(encode_channel_report(report)), report);

  const Bytes valid = encode_channel_report(report);
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(decode_channel_report(BytesView{valid.data(), len}).has_value());
  }
  EXPECT_FALSE(
      decode_channel_report(encode_channel_report({1, 1001, 16})).has_value());
  EXPECT_FALSE(decode_channel_report(encode_channel_report({1, 0, 0})).has_value());
}

// ---------------------------------------------------------------------------
// Reassembler memory bound.
// ---------------------------------------------------------------------------

TEST(FecReassembler, PartialTableEvictsOldestFirst) {
  Codec codec;
  Reassembler reassembler{2};

  auto first_fragment_of = [&](std::uint32_t device) {
    Message msg = fragmented_message(codec, 2);
    msg.device_id = device;
    auto f = codec.decode(codec.encode(msg).front());
    EXPECT_TRUE(f && f->frag_count == 2);
    return *f;
  };

  EXPECT_FALSE(reassembler.add(first_fragment_of(1)).has_value());
  EXPECT_FALSE(reassembler.add(first_fragment_of(2)).has_value());
  EXPECT_EQ(reassembler.partials(), 2u);
  EXPECT_EQ(reassembler.partials_evicted(), 0u);

  // Third in-progress device: device 1 (stalest) is evicted.
  EXPECT_FALSE(reassembler.add(first_fragment_of(3)).has_value());
  EXPECT_EQ(reassembler.partials(), 2u);
  EXPECT_EQ(reassembler.partials_evicted(), 1u);

  // Devices 2 and 3 still complete normally.
  for (const std::uint32_t device : {2u, 3u}) {
    Message msg = fragmented_message(codec, 2);
    msg.device_id = device;
    const auto ies = codec.encode(msg);
    auto f = codec.decode(ies.back());
    ASSERT_TRUE(f.has_value());
    auto completed = reassembler.add(*f);
    ASSERT_TRUE(completed.has_value()) << "device " << device;
    EXPECT_EQ(completed->data, msg.data);
  }
  EXPECT_EQ(reassembler.partials(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: sequence wraparound, cross-cycle recovery, adaptation.
// ---------------------------------------------------------------------------

SenderConfig fec_sender_config(std::uint32_t device_id) {
  SenderConfig cfg;
  cfg.device_id = device_id;
  cfg.period = seconds(1);
  return cfg;
}

TEST(FecEndToEnd, SequenceWraparoundCountsNoPhantomLosses) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  auto cfg = fec_sender_config(1);
  cfg.initial_sequence = 0xfffffffe;  // wraps on the third cycle
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler, medium, {2, 0}};

  std::vector<std::uint32_t> seqs;
  monitor.set_message_callback(
      [&](const Message& m, const RxMeta&) { seqs.push_back(m.sequence); });

  sender.start_duty_cycle([] { return Bytes{0x01}; });
  scheduler.run_until(TimePoint{seconds(6) + msec(500)});
  sender.stop_duty_cycle();

  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0xfffffffe, 0xffffffff, 0, 1, 2, 3}));
  ASSERT_EQ(monitor.devices().size(), 1u);
  const DeviceInfo& dev = monitor.devices().begin()->second;
  EXPECT_EQ(dev.messages, 6u);
  EXPECT_EQ(dev.estimated_losses, 0u);  // the wrap is not a 4-billion gap
  EXPECT_EQ(dev.last_sequence, 3u);
  EXPECT_EQ(monitor.stats().duplicates, 0u);
}

TEST(FecEndToEnd, RecoveryBeaconRestoresMessageLostInDeafCycle) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{3}};
  auto cfg = fec_sender_config(1);
  cfg.redundancy.recovery_k = 4;  // default stride 2: overlapping groups
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{4}};
  Receiver monitor{scheduler, medium, {2, 0}};

  std::set<std::uint32_t> delivered;
  monitor.set_message_callback(
      [&](const Message& m, const RxMeta&) { delivered.insert(m.sequence); });

  // Deafen the monitor for exactly the cycle that transmits sequence 3 —
  // which also carries the recovery beacon covering 0..3, so both are
  // lost and only the next overlapping beacon (2..5) can bring 3 back.
  sender.start_duty_cycle([] { return Bytes{0x10, 0x20, 0x30}; },
                          [&](const SendReport& r) {
                            if (r.sequence == 2) {
                              medium.set_rx_blocked(monitor.node_id(), true);
                            } else if (r.sequence == 3) {
                              medium.set_rx_blocked(monitor.node_id(), false);
                            }
                          });
  scheduler.run_until(TimePoint{seconds(10) + msec(500)});
  sender.stop_duty_cycle();

  EXPECT_GE(sender.recovery_beacons_sent(), 3u);
  for (std::uint32_t s = 0; s < 10; ++s) EXPECT_TRUE(delivered.count(s)) << "seq " << s;
  EXPECT_EQ(monitor.stats().recovered, 1u);
  ASSERT_EQ(monitor.devices().size(), 1u);
  // The gap charged when sequence 4 arrived is walked back on recovery.
  EXPECT_EQ(monitor.devices().begin()->second.estimated_losses, 0u);
}

TEST(FecEndToEnd, RecoveryWorksAcrossSequenceWrap) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{5}};
  auto cfg = fec_sender_config(1);
  cfg.initial_sequence = 0xfffffffd;  // the lost message is sequence 0
  cfg.redundancy.recovery_k = 4;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{6}};
  Receiver monitor{scheduler, medium, {2, 0}};

  std::set<std::uint32_t> delivered;
  monitor.set_message_callback(
      [&](const Message& m, const RxMeta&) { delivered.insert(m.sequence); });

  sender.start_duty_cycle([] { return Bytes{0x44, 0x55}; },
                          [&](const SendReport& r) {
                            if (r.sequence == 0xffffffff) {
                              medium.set_rx_blocked(monitor.node_id(), true);
                            } else if (r.sequence == 0) {
                              medium.set_rx_blocked(monitor.node_id(), false);
                            }
                          });
  scheduler.run_until(TimePoint{seconds(8) + msec(500)});
  sender.stop_duty_cycle();

  // Sequence 0 was lost in the deaf cycle; the beacon covering
  // 0xffffffff..2 spans the wrap and still reconstructs it.
  EXPECT_TRUE(delivered.count(0u));
  EXPECT_EQ(monitor.stats().recovered, 1u);
  EXPECT_EQ(monitor.devices().begin()->second.estimated_losses, 0u);
}

AdaptationConfig two_tier_adaptation() {
  AdaptationConfig a;
  a.tiers.push_back({/*repeats=*/1, /*fec_parity=*/false, /*recovery_k=*/0, 0});
  a.tiers.push_back({/*repeats=*/2, /*fec_parity=*/true, /*recovery_k=*/4, 0});
  a.raise_loss_pct = 15.0;  // 2+ losses in an 8-report window
  a.clear_loss_pct = 2.0;   // a fully clean window
  a.raise_after = 1;
  a.clear_after = 2;
  return a;
}

TEST(FecAdaptation, RaisesUnderLossWindowAndClearsAfterWithoutOscillating) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{7}};
  sim::FaultInjector faults{scheduler, medium, Rng{8}};

  auto cfg = fec_sender_config(1);
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  cfg.adaptation = two_tier_adaptation();
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{9}};

  ControllerConfig ctrl_cfg;
  ctrl_cfg.channel_reports = true;
  ctrl_cfg.report_window = 8;
  Controller controller{scheduler, medium, {2, 0}, ctrl_cfg, Rng{10}};

  // 40% blanket loss for 6 of 30 cycles.
  const TimePoint window_start{seconds(5) + msec(500)};
  faults.per_floor(window_start, seconds(6), 0.40);

  std::uint64_t first_lossy_report_cycle = 0, first_raised_cycle = 0, cycle = 0;
  std::uint64_t prev_reports = 0;
  sender.start_duty_cycle([] { return Bytes{0x77}; },
                          [&](const SendReport& r) {
                            ++cycle;
                            const bool got_report = sender.reports_received() > prev_reports;
                            prev_reports = sender.reports_received();
                            if (first_lossy_report_cycle == 0 && got_report &&
                                scheduler.now() >= window_start) {
                              first_lossy_report_cycle = cycle;
                            }
                            if (first_raised_cycle == 0 && r.tier > 0) {
                              first_raised_cycle = cycle;
                            }
                          });
  scheduler.run_until(TimePoint{seconds(30) + msec(500)});
  sender.stop_duty_cycle();

  EXPECT_GT(sender.reports_received(), 0u);
  EXPECT_GT(controller.stats().reports_sent, 0u);

  // The bound from the acceptance criteria: the tier rises within five
  // cycles of the first ChannelReport received under the loss window
  // (reports themselves ride the lossy channel, so the clock starts at
  // the first one that gets through).
  ASSERT_GT(first_lossy_report_cycle, 0u);
  ASSERT_GT(first_raised_cycle, 0u);
  EXPECT_LE(first_raised_cycle, first_lossy_report_cycle + 5);

  // Exactly one raise and one clear: the hysteresis dead zone between
  // 2% and 15% absorbs the estimate's decay without flapping.
  EXPECT_EQ(sender.tier_raises(), 1u);
  EXPECT_EQ(sender.tier_clears(), 1u);
  EXPECT_EQ(sender.current_tier(), 0u);
  EXPECT_FALSE(sender.fallback_active());
}

TEST(FecAdaptation, FallsBackToOpenLoopScheduleWithoutController) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{11}};
  auto cfg = fec_sender_config(1);
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  auto adaptation = two_tier_adaptation();
  adaptation.fallback_after_cycles = 3;
  adaptation.fallback_tier = 1;
  cfg.adaptation = adaptation;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{12}};
  Receiver monitor{scheduler, medium, {2, 0}};  // passive: never reports

  sender.start_duty_cycle([] { return Bytes{0x88}; });
  scheduler.run_until(TimePoint{seconds(10) + msec(500)});
  sender.stop_duty_cycle();

  // No ChannelReport ever arrived: after three silent cycles the sender
  // runs the scheduled open-loop redundancy (tier 1: repeats + recovery).
  EXPECT_TRUE(sender.fallback_active());
  EXPECT_EQ(sender.current_tier(), 1u);
  EXPECT_EQ(sender.reports_received(), 0u);
  EXPECT_GE(sender.recovery_beacons_sent(), 1u);
  EXPECT_EQ(sender.tier_raises(), 0u);  // fallback is not a raise
  EXPECT_GT(monitor.stats().duplicates, 0u);  // tier-1 repeats are visible
}

}  // namespace
}  // namespace wile::core
