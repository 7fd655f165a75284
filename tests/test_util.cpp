// Unit tests for src/util: byte codec, units, MAC addresses, RNG, hex.
#include <gtest/gtest.h>

#include "util/byte_buffer.hpp"
#include "util/fnv1a.hpp"
#include "util/hex.hpp"
#include "util/mac_address.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace wile {
namespace {

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(ByteBuffer, RoundTripsAllWidthsLittleEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16le(0x1234);
  w.u24le(0x56789a);
  w.u32le(0xdeadbeef);
  w.u64le(0x0123456789abcdefULL);
  const Bytes buf = w.take();

  ByteReader r{buf};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16le(), 0x1234);
  EXPECT_EQ(r.u24le(), 0x56789au);
  EXPECT_EQ(r.u32le(), 0xdeadbeefu);
  EXPECT_EQ(r.u64le(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.empty());
}

TEST(ByteBuffer, RoundTripsAllWidthsBigEndian) {
  ByteWriter w;
  w.u16be(0x1234);
  w.u32be(0xdeadbeef);
  w.u64be(0x0123456789abcdefULL);
  const Bytes buf = w.take();

  ByteReader r{buf};
  EXPECT_EQ(r.u16be(), 0x1234);
  EXPECT_EQ(r.u32be(), 0xdeadbeefu);
  EXPECT_EQ(r.u64be(), 0x0123456789abcdefULL);
}

TEST(ByteBuffer, LittleEndianByteOrderOnWire) {
  ByteWriter w;
  w.u16le(0x1234);
  const Bytes buf = w.take();
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x34);
  EXPECT_EQ(buf[1], 0x12);
}

TEST(ByteBuffer, BigEndianByteOrderOnWire) {
  ByteWriter w;
  w.u16be(0x1234);
  const Bytes buf = w.take();
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[1], 0x34);
}

TEST(ByteBuffer, ReaderThrowsOnUnderflow) {
  const Bytes buf = {0x01, 0x02};
  ByteReader r{buf};
  EXPECT_EQ(r.u16le(), 0x0201);
  EXPECT_THROW(r.u8(), BufferUnderflow);
}

TEST(ByteBuffer, ReaderThrowsOnOversizedBytesRequest) {
  const Bytes buf = {0x01, 0x02, 0x03};
  ByteReader r{buf};
  EXPECT_THROW(r.bytes(4), BufferUnderflow);
  // The failed read must not consume anything.
  EXPECT_EQ(r.remaining(), 3u);
}

TEST(ByteBuffer, PatchRewritesPreviouslyWrittenBytes) {
  ByteWriter w;
  w.u16be(0);
  w.u8(0xff);
  w.patch_u16be(0, 0xbeef);
  const Bytes buf = w.take();
  EXPECT_EQ(buf[0], 0xbe);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(buf[2], 0xff);
}

TEST(ByteBuffer, RestConsumesEverything) {
  const Bytes buf = {1, 2, 3, 4};
  ByteReader r{buf};
  r.skip(1);
  const BytesView rest = r.rest();
  EXPECT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 2);
  EXPECT_TRUE(r.empty());
}

TEST(ByteBuffer, ZerosWritesZeroFill) {
  ByteWriter w;
  w.zeros(5);
  const Bytes buf = w.take();
  ASSERT_EQ(buf.size(), 5u);
  for (auto b : buf) EXPECT_EQ(b, 0);
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(Units, PowerIsVoltsTimesAmps) {
  const Watts p = volts(3.3) * milliamps(100.0);
  EXPECT_NEAR(p.value, 0.33, 1e-12);
}

TEST(Units, EnergyIsPowerTimesTime) {
  const Joules e = watts(0.6) * msec(140);
  EXPECT_NEAR(in_microjoules(e), 84'000.0, 1e-6);
}

TEST(Units, AveragePowerIsEnergyOverTime) {
  const Watts p = microjoules(84.0) / seconds(60);
  EXPECT_NEAR(in_microwatts(p), 1.4, 1e-9);
}

TEST(Units, UnitConversionsRoundTrip) {
  EXPECT_NEAR(in_microamps(microamps(2.5)), 2.5, 1e-12);
  EXPECT_NEAR(in_milliamps(milliamps(4.5)), 4.5, 1e-12);
  EXPECT_NEAR(in_millijoules(millijoules(238.2)), 238.2, 1e-12);
  EXPECT_NEAR(in_nanojoules(nanojoules(275.0)), 275.0, 1e-12);
}

TEST(Units, TimePointArithmetic) {
  const TimePoint t0{seconds(1)};
  const TimePoint t1 = t0 + msec(500);
  EXPECT_EQ((t1 - t0).count(), 500'000);
  EXPECT_LT(t0, t1);
}

TEST(Units, SecondsConversionsAreExact) {
  EXPECT_DOUBLE_EQ(to_seconds(msec(1500)), 1.5);
  EXPECT_EQ(from_seconds(1.5).count(), 1'500'000);
}

// ---------------------------------------------------------------------------
// MacAddress
// ---------------------------------------------------------------------------

TEST(MacAddress, ParsesAndFormats) {
  const auto mac = MacAddress::parse("aa:bb:cc:dd:ee:ff");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_string(), "aa:bb:cc:dd:ee:ff");
}

TEST(MacAddress, ParseRejectsMalformedInput) {
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee").has_value());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee:fg").has_value());
  EXPECT_FALSE(MacAddress::parse("aabbccddeeff").has_value());
  EXPECT_FALSE(MacAddress::parse("aa-bb-cc-dd-ee-ff").has_value());
}

TEST(MacAddress, BroadcastProperties) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_FALSE(MacAddress::zero().is_broadcast());
  EXPECT_TRUE(MacAddress::zero().is_zero());
}

TEST(MacAddress, FromSeedIsLocalUnicastAndStable) {
  const MacAddress a = MacAddress::from_seed(7);
  const MacAddress b = MacAddress::from_seed(7);
  const MacAddress c = MacAddress::from_seed(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a.is_local());
  EXPECT_FALSE(a.is_multicast());
}

TEST(MacAddress, SerializationRoundTrip) {
  const MacAddress mac = MacAddress::from_seed(123);
  ByteWriter w;
  mac.write_to(w);
  const Bytes buf = w.take();
  ByteReader r{buf};
  EXPECT_EQ(MacAddress::read_from(r), mac);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a{99}, b{99};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{5};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, PowerOfTwoBoundMatchesRejectionSampling) {
  // below() masks a power-of-two bound; the general path (rejection
  // threshold, then modulo) would return the same value from one draw.
  Rng fast{21};
  Rng twin{21};
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t bound = std::uint64_t{1} << k;
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t threshold = (0 - bound) % bound;
      std::uint64_t r = twin.next();
      while (r < threshold) r = twin.next();
      ASSERT_EQ(fast.below(bound), r % bound) << "k=" << k;
    }
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng{6};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIsInUnitIntervalWithSaneMean) {
  Rng rng{7};
  double sum = 0.0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng{8};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{10};
  Rng child = parent.fork();
  // The fork must not replay the parent's stream.
  EXPECT_NE(parent.next(), child.next());
}

// ---------------------------------------------------------------------------
// Hex
// ---------------------------------------------------------------------------

TEST(Hex, EncodesLowercase) {
  const Bytes data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(to_hex(data), "deadbeef");
}

TEST(Hex, DecodesWithWhitespaceBetweenBytes) {
  const auto bytes = from_hex("de ad be ef");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(to_hex(*bytes), "deadbeef");
}

TEST(Hex, DecodeRejectsOddLengthAndJunk) {
  EXPECT_FALSE(from_hex("abc").has_value());
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("a b").has_value());  // whitespace inside a byte
}

TEST(Hex, RoundTripProperty) {
  Rng rng{11};
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data(rng.below(100));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    const auto back = from_hex(to_hex(data));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
  }
}

// ---------------------------------------------------------------------------
// Fnv1a (the run digest)
// ---------------------------------------------------------------------------

TEST(Fnv1a, MatchesTheReferenceVectors) {
  EXPECT_EQ(util::Fnv1a{}.value(), 0xcbf29ce484222325ULL);
  util::Fnv1a h;
  h.add(Bytes{'f', 'o', 'o', 'b', 'a', 'r'});
  EXPECT_EQ(h.value(), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, HashesAWordAsItsLittleEndianBytes) {
  util::Fnv1a word;
  word.add(0x0807060504030201ULL);
  util::Fnv1a bytes;
  bytes.add(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(word.value(), bytes.value());
}

}  // namespace
}  // namespace wile
