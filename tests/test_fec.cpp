// Forward erasure correction on the ack-less uplink: cross-cycle XOR
// recovery beacons, their payload container, and the reassembler's
// memory bound. Everything here is deterministic for the pinned seeds.
#include <gtest/gtest.h>

#include <set>

#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

Message fragmented_message(const Codec& codec, std::size_t fragments) {
  // Size the payload so it needs exactly `fragments` fragments.
  const std::size_t per_frag = codec.max_fragment_data(true, false);
  Message msg;
  msg.device_id = 42;
  msg.sequence = 7;
  msg.data.resize(per_frag * (fragments - 1) + per_frag / 2);
  for (std::size_t i = 0; i < msg.data.size(); ++i) {
    msg.data[i] = static_cast<std::uint8_t>(i * 31 + 5);
  }
  return msg;
}

// ---------------------------------------------------------------------------
// Recovery payload container.
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

// ---------------------------------------------------------------------------
// Reassembler memory bound.
// ---------------------------------------------------------------------------

TEST(FecReassembler, PartialTableEvictsOldestFirst) {
  Codec codec;
  Reassembler reassembler{2};

  auto first_fragment_of = [&](std::uint32_t device) {
    Message msg = fragmented_message(codec, 2);
    msg.device_id = device;
    auto f = codec.decode(codec.encode(msg).front().data);
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
    auto f = codec.decode(ies.back().data);
    ASSERT_TRUE(f.has_value());
    auto completed = reassembler.add(*f);
    ASSERT_TRUE(completed.has_value()) << "device " << device;
    EXPECT_EQ(completed->data, msg.data);
  }
  EXPECT_EQ(reassembler.partials(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: sequence wraparound, cross-cycle recovery.
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

}  // namespace
}  // namespace wile::core
