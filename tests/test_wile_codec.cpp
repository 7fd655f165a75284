// Unit + property tests for the Wi-LE payload container (src/wile/codec)
// and fragment reassembly.
#include <gtest/gtest.h>

#include "crypto/crc.hpp"
#include "util/rng.hpp"
#include "wile/codec.hpp"

namespace wile::core {
namespace {

Message make_message(std::size_t data_size, Rng& rng, std::uint32_t device = 7,
                     std::uint32_t seq = 1) {
  Message m;
  m.device_id = device;
  m.sequence = seq;
  m.type = MessageType::Telemetry;
  m.data.resize(data_size);
  for (auto& b : m.data) b = static_cast<std::uint8_t>(rng.below(256));
  return m;
}

Message must_decode(const Codec& codec, const std::vector<dot11::InfoElement>& ies) {
  Reassembler reassembler;
  for (const auto& ie : ies) {
    auto fragment = codec.decode(ie.data);
    EXPECT_TRUE(fragment.has_value());
    if (auto msg = reassembler.add(*fragment)) return *msg;
  }
  ADD_FAILURE() << "message never completed";
  return {};
}

// ---------------------------------------------------------------------------
// Round trips, plaintext and encrypted, across the size range.
// ---------------------------------------------------------------------------

class CodecRoundTrip : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(CodecRoundTrip, EncodeDecodeIdentity) {
  const auto [size, encrypted] = GetParam();
  const Bytes key(16, 0x42);
  const Codec codec = encrypted ? Codec{key} : Codec{};

  Rng rng{size * 2 + encrypted};
  const Message msg = make_message(size, rng);
  const auto ies = codec.encode(msg);
  ASSERT_FALSE(ies.empty());

  // Every element must fit the vendor IE limit.
  for (const auto& ie : ies) {
    EXPECT_EQ(ie.id, dot11::IeId::VendorSpecific);
    EXPECT_LE(ie.data.size(), dot11::IeList::kMaxIeData);
  }

  const Message back = must_decode(codec, ies);
  EXPECT_EQ(back.device_id, msg.device_id);
  EXPECT_EQ(back.sequence, msg.sequence);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.data, msg.data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndKeys, CodecRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 16, 100, 231, 232, 240, 463, 500, 1000,
                                         2000),
                       ::testing::Bool()));

TEST(Codec, SingleElementForSmallPayload) {
  Codec codec;
  Rng rng{1};
  const auto ies = codec.encode(make_message(codec.max_fragment_data(false, false), rng));
  EXPECT_EQ(ies.size(), 1u);
}

TEST(Codec, FragmentsLargePayload) {
  Codec codec;
  Rng rng{2};
  const std::size_t single = codec.max_fragment_data(false, false);
  const auto ies = codec.encode(make_message(single + 1, rng));
  EXPECT_EQ(ies.size(), 2u);
}

TEST(Codec, WriteElementIsEncodeOnTheWire) {
  // write_element appends element i exactly as encode() returns it, id
  // and length first; an index past the message is refused.
  Rng rng{3};
  for (const std::size_t size : {0, 16, 600}) {
    SCOPED_TRACE(testing::Message() << size << " B");
    const Codec codec;
    const Message msg = make_message(size, rng);
    const auto ies = codec.encode(msg);
    ASSERT_EQ(codec.element_count(msg), ies.size());
    ByteWriter w;
    for (std::size_t i = 0; i < ies.size(); ++i) {
      w.clear();
      codec.write_element(w, msg, i);
      Bytes want{static_cast<std::uint8_t>(dot11::IeId::VendorSpecific),
                 static_cast<std::uint8_t>(ies[i].data.size())};
      want.insert(want.end(), ies[i].data.begin(), ies[i].data.end());
      EXPECT_EQ(Bytes(w.view().begin(), w.view().end()), want);
    }
    EXPECT_THROW(codec.write_element(w, msg, ies.size()), std::out_of_range);
  }
}

TEST(Codec, UndefinedFlagBitsAreMalformed) {
  // Only bits 0-2 of the flags byte are defined. An element setting any
  // other bit is malformed even when its CRC is valid, so no receiver
  // reads a meaning into it.
  Codec codec;
  Rng rng{5};
  const Message msg = make_message(16, rng);
  const dot11::InfoElement plain = codec.encode(msg).front();
  ASSERT_TRUE(codec.decode(plain.data).has_value());
  for (const std::uint8_t bit : {0x08, 0x80}) {
    SCOPED_TRACE(testing::Message() << "flag bit 0x" << std::hex << int{bit});
    dot11::InfoElement ie = plain;
    constexpr std::size_t kFlagsAt = 5;  // OUI(3) subtype(1) ver(1) flags
    ie.data[kFlagsAt] |= bit;
    // Re-seal the container CRC (ver through data) so only the flag is wrong.
    const std::size_t crc_at = ie.data.size() - 4;
    const std::uint32_t crc =
        crypto::crc32(BytesView{ie.data.data() + 4, crc_at - 4});
    for (int k = 0; k < 4; ++k) ie.data[crc_at + k] = static_cast<std::uint8_t>(crc >> (8 * k));
    DecodeError error{};
    EXPECT_FALSE(codec.decode(ie.data, &error).has_value());
    EXPECT_EQ(error, DecodeError::Malformed);
  }
}

TEST(Codec, EncryptionShrinksCapacity) {
  Codec plain;
  Codec enc{Bytes(16, 1)};
  EXPECT_GT(plain.max_fragment_data(false, false), enc.max_fragment_data(false, false));
  EXPECT_EQ(plain.max_fragment_data(false, false) - enc.max_fragment_data(false, false),
            crypto::Aead::kTagSize);
}

TEST(Codec, RxWindowSurvivesRoundTrip) {
  Codec codec;
  Rng rng{3};
  Message msg = make_message(10, rng);
  msg.rx_window = RxWindow{msec(4), msec(32)};
  const Message back = must_decode(codec, codec.encode(msg));
  ASSERT_TRUE(back.rx_window.has_value());
  EXPECT_EQ(back.rx_window->offset, msec(4));
  EXPECT_EQ(back.rx_window->duration, msec(32));
}

TEST(Codec, CiphertextDiffersFromPlaintext) {
  const Bytes key(16, 0x42);
  Codec enc{key};
  Rng rng{4};
  const Message msg = make_message(32, rng);
  const auto ies = enc.encode(msg);
  ASSERT_EQ(ies.size(), 1u);
  // The raw element must not contain the plaintext data bytes.
  const auto& raw = ies[0].data;
  auto it = std::search(raw.begin(), raw.end(), msg.data.begin(), msg.data.end());
  EXPECT_EQ(it, raw.end());
}

// ---------------------------------------------------------------------------
// Decode failure modes.
// ---------------------------------------------------------------------------

TEST(Codec, RejectsForeignVendorIe) {
  Codec codec;
  // OUI 00:50:f2 (not Wi-LE's), vendor subtype 1, payload 1 2 3.
  const dot11::InfoElement ie{dot11::IeId::VendorSpecific, {0x00, 0x50, 0xf2, 1, 1, 2, 3}};
  DecodeError error{};
  EXPECT_FALSE(codec.decode(ie.data, &error).has_value());
  EXPECT_EQ(error, DecodeError::NotWile);
}

TEST(Codec, DetectsCorruptionViaCrc) {
  Codec codec;
  Rng rng{5};
  auto ies = codec.encode(make_message(50, rng));
  ASSERT_EQ(ies.size(), 1u);
  ies[0].data[10] ^= 0x01;
  DecodeError error{};
  EXPECT_FALSE(codec.decode(ies[0].data, &error).has_value());
  EXPECT_EQ(error, DecodeError::BadCrc);
}

TEST(Codec, WrongKeyFailsDecrypt) {
  Codec enc{Bytes(16, 0x42)};
  Codec wrong{Bytes(16, 0x43)};
  Rng rng{6};
  const auto ies = enc.encode(make_message(50, rng));
  DecodeError error{};
  EXPECT_FALSE(wrong.decode(ies[0].data, &error).has_value());
  EXPECT_EQ(error, DecodeError::DecryptFailed);
}

TEST(Codec, EncryptedElementNeedsKey) {
  Codec enc{Bytes(16, 0x42)};
  Codec plain;
  Rng rng{7};
  const auto ies = enc.encode(make_message(50, rng));
  DecodeError error{};
  EXPECT_FALSE(plain.decode(ies[0].data, &error).has_value());
  EXPECT_EQ(error, DecodeError::KeyRequired);
}

TEST(Codec, PlainCodecReadsPlainElements) {
  // And the reverse: a keyed codec must still read unencrypted elements.
  Codec plain;
  Codec keyed{Bytes(16, 0x42)};
  Rng rng{8};
  const Message msg = make_message(20, rng);
  const auto ies = plain.encode(msg);
  const auto fragment = keyed.decode(ies[0].data);
  ASSERT_TRUE(fragment.has_value());
  EXPECT_EQ(fragment->data, msg.data);
}

TEST(Codec, RejectsTruncatedContainer) {
  Codec codec;
  Rng rng{9};
  auto ies = codec.encode(make_message(50, rng));
  ies[0].data.resize(10);
  DecodeError error{};
  EXPECT_FALSE(codec.decode(ies[0].data, &error).has_value());
  EXPECT_EQ(error, DecodeError::Malformed);
}

TEST(Codec, CapacityArithmetic) {
  Codec codec;
  // vendor payload (251) - fixed overhead (16) = 235 plaintext bytes.
  EXPECT_EQ(codec.max_fragment_data(false, false),
            dot11::vendor_payload_capacity() - 16);
}

// ---------------------------------------------------------------------------
// Reassembler behaviour under interleaving and loss.
// ---------------------------------------------------------------------------

TEST(Reassembler, InterleavedDevicesReassembleIndependently) {
  Codec codec;
  Rng rng{10};
  const Message a = make_message(500, rng, /*device=*/1, /*seq=*/5);
  const Message b = make_message(500, rng, /*device=*/2, /*seq=*/9);
  const auto ies_a = codec.encode(a);
  const auto ies_b = codec.encode(b);
  ASSERT_GT(ies_a.size(), 1u);

  Reassembler r;
  std::vector<Message> complete;
  for (std::size_t i = 0; i < std::max(ies_a.size(), ies_b.size()); ++i) {
    if (i < ies_a.size()) {
      if (auto m = r.add(*codec.decode(ies_a[i].data))) complete.push_back(*m);
    }
    if (i < ies_b.size()) {
      if (auto m = r.add(*codec.decode(ies_b[i].data))) complete.push_back(*m);
    }
  }
  ASSERT_EQ(complete.size(), 2u);
  EXPECT_EQ(complete[0].data, a.data);
  EXPECT_EQ(complete[1].data, b.data);
}

TEST(Reassembler, LostFragmentDropsMessageButNotNext) {
  Codec codec;
  Rng rng{11};
  const Message first = make_message(500, rng, 1, 5);
  const Message second = make_message(500, rng, 1, 6);
  const auto ies_first = codec.encode(first);
  const auto ies_second = codec.encode(second);

  Reassembler r;
  // Drop fragment 0 of `first`; feed the rest.
  for (std::size_t i = 1; i < ies_first.size(); ++i) {
    EXPECT_FALSE(r.add(*codec.decode(ies_first[i].data)).has_value());
  }
  // `second` arrives complete and must reassemble despite the stale partial.
  std::optional<Message> got;
  for (const auto& ie : ies_second) {
    if (auto m = r.add(*codec.decode(ie.data))) got = m;
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, second.data);
}

TEST(Reassembler, DuplicateFragmentIsIdempotent) {
  Codec codec;
  Rng rng{12};
  const Message msg = make_message(500, rng, 1, 5);
  const auto ies = codec.encode(msg);
  ASSERT_GE(ies.size(), 2u);

  Reassembler r;
  EXPECT_FALSE(r.add(*codec.decode(ies[0].data)).has_value());
  EXPECT_FALSE(r.add(*codec.decode(ies[0].data)).has_value());  // duplicate
  std::optional<Message> got;
  for (std::size_t i = 1; i < ies.size(); ++i) {
    if (auto m = r.add(*codec.decode(ies[i].data))) got = m;
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, msg.data);
}

TEST(Codec, TooManyFragmentsThrows) {
  Codec codec;
  Message huge;
  huge.data.resize(256 * codec.max_fragment_data(true, false) + 1);
  EXPECT_THROW(codec.encode(huge), std::invalid_argument);
}

}  // namespace
}  // namespace wile::core
