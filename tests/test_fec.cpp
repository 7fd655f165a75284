// Forward erasure correction on the ack-less uplink: cross-cycle XOR
// recovery beacons, their payload container, and the reassembler's
// memory bound. Everything here is deterministic for the pinned seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

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
// Payload history: the XOR inputs both ends keep.
// ---------------------------------------------------------------------------

Message payload_message(std::uint32_t sequence, std::size_t length) {
  Message m;
  m.sequence = sequence;
  m.type = sequence % 2 == 0 ? MessageType::Telemetry : MessageType::Event;
  m.data.resize(length);
  for (std::size_t i = 0; i < length; ++i) {
    m.data[i] = static_cast<std::uint8_t>(sequence * 37 + i * 11 + 1);
  }
  return m;
}

/// Every entry of `history`, oldest first, equals the message of the
/// same position in `expected`.
template <std::size_t N>
void expect_history(const PayloadHistory<N>& history, const std::vector<Message>& expected) {
  ASSERT_EQ(history.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto entry = history[i];
    EXPECT_EQ(entry.sequence, expected[i].sequence) << "entry " << i;
    EXPECT_EQ(entry.type, expected[i].type) << "entry " << i;
    EXPECT_EQ(Bytes(entry.data.begin(), entry.data.end()), expected[i].data) << "entry " << i;
  }
}

TEST(FecPayloadHistory, RingWrapsAtNAndDropsTheOldest) {
  PayloadHistory<4> history;
  std::vector<Message> sent;
  for (std::uint32_t seq = 10; seq < 20; ++seq) {
    sent.push_back(payload_message(seq, 6));
    history.push(sent.back());
    const std::size_t held = std::min<std::size_t>(sent.size(), 4);
    expect_history(history, std::vector<Message>(sent.end() - static_cast<std::ptrdiff_t>(held),
                                                 sent.end()));
  }
  EXPECT_FALSE(history.find(15).has_value());  // dropped
  ASSERT_TRUE(history.find(16).has_value());
}

TEST(FecPayloadHistory, LongerPayloadKeepsEveryEarlierPayloadByteExact) {
  // Lengths rise, fall back and rise past the stride again, while the
  // ring is still growing and after it wraps; an empty payload is held
  // too.
  PayloadHistory<8> history;
  std::vector<Message> sent;
  const std::size_t lengths[] = {3, 1, 0, 12, 5, 40, 2, 41, 7, 90, 4, 16};
  std::uint32_t seq = 100;
  for (const std::size_t length : lengths) {
    sent.push_back(payload_message(seq++, length));
    history.push(sent.back());
    const std::size_t held = std::min<std::size_t>(sent.size(), 8);
    expect_history(history, std::vector<Message>(sent.end() - static_cast<std::ptrdiff_t>(held),
                                                 sent.end()));
  }
}

TEST(FecPayloadHistory, FindReturnsTheOldestEntryCarryingASequence) {
  PayloadHistory<4> history;
  const Message first = payload_message(5, 3);
  Message again = payload_message(5, 9);  // a second payload under sequence 5
  again.data[0] ^= 0xff;
  history.push(first);
  history.push(payload_message(6, 4));
  history.push(again);
  auto found = history.find(5);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(Bytes(found->data.begin(), found->data.end()), first.data);
  EXPECT_FALSE(history.find(7).has_value());

  // Once the first falls out of the ring, the later one is the oldest.
  history.push(payload_message(8, 2));
  history.push(payload_message(9, 2));
  found = history.find(5);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(Bytes(found->data.begin(), found->data.end()), again.data);
}

TEST(FecPayloadHistory, RefusesPayloadsItsLengthFieldCannotHold) {
  PayloadHistory<4> history;
  EXPECT_THROW(history.push(payload_message(1, PayloadHistory<4>::kMaxPayload + 1)),
               std::length_error);
  EXPECT_EQ(history.size(), 0u);
  history.push(payload_message(2, PayloadHistory<4>::kMaxPayload));
  EXPECT_EQ(history[0].data.size(), PayloadHistory<4>::kMaxPayload);
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

TEST(FecEndToEnd, RecoveryRebuildsAPayloadOfChangingLengthByteExact) {
  // The payload length changes from cycle to cycle, so both ends' payload
  // histories re-stride mid-run. Sequence 3, longer than everything
  // before it, is lost in a deaf cycle; the beacon covering 2..5 pads
  // every entry to 30 B and rebuilds it.
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{3}};
  auto cfg = fec_sender_config(1);
  cfg.redundancy.recovery_k = 4;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{4}};
  Receiver monitor{scheduler, medium, {2, 0}};

  const std::size_t lengths[] = {3, 3, 3, 24, 9, 30, 1, 17, 5, 12};
  const auto payload = [&lengths](std::uint32_t seq) {
    Bytes b(lengths[seq % std::size(lengths)]);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(seq * 29 + i * 7);
    return b;
  };
  std::map<std::uint32_t, Bytes> delivered;
  monitor.set_message_callback(
      [&](const Message& m, const RxMeta&) { delivered.emplace(m.sequence, m.data); });

  std::uint32_t cycle = 0;
  sender.start_duty_cycle([&] { return payload(cycle++); },
                          [&](const SendReport& r) {
                            if (r.sequence == 2) {
                              medium.set_rx_blocked(monitor.node_id(), true);
                            } else if (r.sequence == 3) {
                              medium.set_rx_blocked(monitor.node_id(), false);
                            }
                          });
  scheduler.run_until(TimePoint{seconds(10) + msec(500)});
  sender.stop_duty_cycle();

  EXPECT_EQ(monitor.stats().recovered, 1u);
  for (std::uint32_t s = 0; s < 10; ++s) {
    ASSERT_TRUE(delivered.count(s)) << "seq " << s;
    EXPECT_EQ(delivered[s], payload(s)) << "seq " << s;
  }
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
