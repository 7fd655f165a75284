// Unit tests for src/phy: rate tables, airtime formulas, BLE PHY timing,
// the channel/PER model, and the energy-per-bit accounting behind E6.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "phy/airtime.hpp"
#include "phy/ble_phy.hpp"
#include "phy/channel.hpp"
#include "phy/energy.hpp"
#include "phy/rates.hpp"
#include "util/rng.hpp"

namespace wile::phy {
namespace {

// ---------------------------------------------------------------------------
// Rates
// ---------------------------------------------------------------------------

TEST(Rates, TableIsComplete) {
  EXPECT_EQ(all_rates().size(), 21u);
  for (const RateInfo& info : all_rates()) {
    EXPECT_GT(info.bits_per_us, 0.0);
    if (info.modulation != Modulation::Dsss) {
      EXPECT_GT(info.n_dbps, 0);
    }
  }
}

TEST(Rates, PaperRateIs72Mbps) {
  const RateInfo& info = rate_info(WifiRate::Mcs7Sgi);
  EXPECT_NEAR(info.bits_per_us, 72.2, 0.01);
  EXPECT_TRUE(info.short_gi);
  EXPECT_EQ(info.modulation, Modulation::HtMixed);
}

TEST(Rates, ParseByName) {
  EXPECT_EQ(parse_rate("72M"), WifiRate::Mcs7Sgi);
  EXPECT_EQ(parse_rate("6M"), WifiRate::G6);
  EXPECT_EQ(parse_rate("5.5M"), WifiRate::B5_5);
  EXPECT_EQ(parse_rate("mcs3"), WifiRate::Mcs3);
  EXPECT_FALSE(parse_rate("99M").has_value());
}

// ---------------------------------------------------------------------------
// Airtime
// ---------------------------------------------------------------------------

TEST(Airtime, DsssIsPreamblePlusPayload) {
  // 100 bytes at 1 Mbps: 192 us preamble + 800 us payload.
  EXPECT_EQ(frame_airtime(100, WifiRate::B1).count(), 992);
  // At 11 Mbps: 192 + ceil-ish 800/11 = 192 + 72.7 -> 264 (rounded).
  EXPECT_NEAR(frame_airtime(100, WifiRate::B11).count(), 265, 1.0);
}

TEST(Airtime, OfdmMatchesStandardFormula) {
  // 100 bytes at 6 Mbps: 20 + 4*ceil((16+6+800)/24) + 6 = 20 + 4*35 + 6.
  EXPECT_EQ(frame_airtime(100, WifiRate::G6).count(), 166);
  // 1500 bytes at 54 Mbps: 20 + 4*ceil(12022/216) + 6 = 20 + 4*56 + 6.
  EXPECT_EQ(frame_airtime(1500, WifiRate::G54).count(), 250);
}

TEST(Airtime, HtSgiSymbolsAre3_6us) {
  // 100 bytes MCS7 SGI: 36 + 3.6*ceil(822/260) + 6 = 36 + 3.6*4 + 6 = 56.4.
  const auto t = frame_airtime(100, WifiRate::Mcs7Sgi);
  EXPECT_NEAR(static_cast<double>(t.count()), 56.4, 1.0);
}

TEST(Airtime, MonotonicInFrameSize) {
  for (const RateInfo& info : all_rates()) {
    EXPECT_LE(frame_airtime(50, info.rate).count(), frame_airtime(500, info.rate).count())
        << info.name;
  }
}

TEST(Airtime, FasterRateNeverSlower) {
  EXPECT_LT(frame_airtime(500, WifiRate::Mcs7Sgi).count(),
            frame_airtime(500, WifiRate::G6).count());
  EXPECT_LT(frame_airtime(500, WifiRate::G54).count(),
            frame_airtime(500, WifiRate::G6).count());
}

TEST(Airtime, AckIsShort) {
  // 14-byte ACK at 24 Mbps: 20 + 4*ceil(134/96) + 6 = 34 us.
  EXPECT_EQ(ack_airtime().count(), 34);
}

TEST(Airtime, MacTimingConstants) {
  EXPECT_EQ(MacTiming::kSifs.count(), 10);
  EXPECT_EQ(MacTiming::kSlot.count(), 9);
  EXPECT_EQ(MacTiming::kDifs.count(), 28);
}

// ---------------------------------------------------------------------------
// BLE PHY
// ---------------------------------------------------------------------------

TEST(BlePhyTiming, PduAirtime) {
  // Empty data PDU: 10 bytes on air = 80 us at 1 Mbps.
  EXPECT_EQ(BlePhy::pdu_airtime(0).count(), 80);
  // Full advertising payload: 10 + 37 = 47 bytes = 376 us.
  EXPECT_EQ(BlePhy::pdu_airtime(37).count(), 376);
}

TEST(BlePhyTiming, TifsIs150us) { EXPECT_EQ(BlePhy::kTifs.count(), 150); }

// ---------------------------------------------------------------------------
// Channel model
// ---------------------------------------------------------------------------

TEST(Channel, RxPowerDecaysWithDistance) {
  Channel ch;
  EXPECT_GT(ch.rx_power_dbm(0.0, 1.0), ch.rx_power_dbm(0.0, 10.0));
  EXPECT_GT(ch.rx_power_dbm(0.0, 10.0), ch.rx_power_dbm(0.0, 100.0));
}

TEST(Channel, ReferenceLossAtOneMeter) {
  Channel ch;
  EXPECT_NEAR(ch.rx_power_dbm(0.0, 1.0), -40.0, 1e-9);
}

TEST(Channel, RejectsDegenerateConfig) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto with = [](double ChannelConfig::*field, double value) {
    ChannelConfig cfg;
    cfg.*field = value;
    return cfg;
  };

  // An exponent of 0 hears forever, a negative one nowhere.
  for (const double bad : {0.0, -0.0, -1.0, nan, inf, -inf}) {
    EXPECT_THROW(Channel{with(&ChannelConfig::path_loss_exponent, bad)},
                 std::invalid_argument)
        << bad;
  }
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(Channel{with(&ChannelConfig::reference_loss_db, bad)},
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(Channel{with(&ChannelConfig::noise_floor_dbm, bad)},
                 std::invalid_argument)
        << bad;
  }

  // The defaults, both bands and the non-default configs used in the
  // repository stay valid, as do the boundary values.
  EXPECT_NO_THROW(Channel{});
  EXPECT_NO_THROW(Channel{ChannelConfig::for_band(Band::G5)});
  ChannelConfig farm;
  farm.path_loss_exponent = 2.4;
  EXPECT_NO_THROW(Channel{farm});
  EXPECT_NO_THROW(Channel{with(&ChannelConfig::path_loss_exponent, 1e-3)});
  EXPECT_NO_THROW(Channel{with(&ChannelConfig::reference_loss_db, -10.0)});
}

TEST(Channel, PerBoundsAndMonotonicity) {
  Channel ch;
  double last_per = 0.0;
  for (double snr = 40.0; snr >= 0.0; snr -= 5.0) {
    const double per = ch.packet_error_rate(snr, WifiRate::Mcs7Sgi, 200);
    EXPECT_GE(per, 0.0);
    EXPECT_LE(per, 1.0);
    EXPECT_GE(per, last_per - 1e-12);  // PER grows as SNR falls
    last_per = per;
  }
}

TEST(Channel, LongerFramesFailMore) {
  Channel ch;
  const double snr = 26.0;
  EXPECT_LT(ch.packet_error_rate(snr, WifiRate::Mcs7Sgi, 50),
            ch.packet_error_rate(snr, WifiRate::Mcs7Sgi, 1500));
}

TEST(Channel, RobustRatesReachFurther) {
  Channel ch;
  const double r6 = ch.max_range_m(0.0, WifiRate::G6, 100);
  const double r72 = ch.max_range_m(0.0, WifiRate::Mcs7Sgi, 100);
  EXPECT_GT(r6, r72);
}

TEST(Channel, PaperRangeClaim72MbpsAt0dBm) {
  // §5.4: 72 Mbps at 0 dBm has "a similar range as BLE ... (i.e., a few
  // meters)". Both links should land in the single-digit-meters regime
  // and within ~2x of each other.
  Channel ch;
  const double wifi_range = ch.max_range_m(0.0, WifiRate::Mcs7Sgi, 150);
  const double ble_range = ch.ble_max_range_m(0.0, 47);
  EXPECT_GT(wifi_range, 1.0);
  EXPECT_LT(wifi_range, 20.0);
  EXPECT_GT(ble_range / wifi_range, 0.5);
  EXPECT_LT(ble_range / wifi_range, 2.0);
}

/// The PER curve exactly as it was before its early-out, kept verbatim as
/// the bit-exactness reference.
double reference_logistic_per(double snr_db, double threshold_db, std::size_t mpdu_bytes) {
  constexpr double kSlopePerDb = 2.0;
  const double x = (snr_db - threshold_db) * kSlopePerDb;
  const double per_ref = 1.0 / (1.0 + std::exp(x));
  constexpr double kRefBits = 1000.0 * 8.0;
  const double bit_success = std::pow(1.0 - per_ref, 1.0 / kRefBits);
  const double bits = static_cast<double>(mpdu_bytes) * 8.0;
  return 1.0 - std::pow(bit_success, bits);
}

// The early-out 19 dB above the threshold returns exactly what the full
// formula returns: the same bits, +0.0 included, at every rate, on the
// BLE curve, and at every frame size, across the cut-off ulp by ulp.
TEST(Channel, PerEarlyOutIsBitExact) {
  constexpr double kBleThresholdDb = 25.0;  // Channel::ble_packet_error_rate's
  const Channel ch;
  struct Curve {
    std::string_view name;
    double threshold_db;
    std::optional<WifiRate> rate;  // nullopt: the BLE curve
  };
  std::vector<Curve> curves;
  for (const RateInfo& info : all_rates()) {
    curves.push_back({info.name, info.min_snr_db, info.rate});
  }
  curves.push_back({"ble", kBleThresholdDb, std::nullopt});

  std::uint64_t points = 0;
  std::uint64_t mismatches = 0;
  const auto check = [&](const Curve& curve, double snr, std::size_t bytes) {
    const double got = curve.rate ? ch.packet_error_rate(snr, *curve.rate, bytes)
                                  : ch.ble_packet_error_rate(snr, bytes);
    const double want = reference_logistic_per(snr, curve.threshold_db, bytes);
    ++points;
    const bool same = std::isnan(want)
                          ? std::isnan(got)
                          : std::bit_cast<std::uint64_t>(got) ==
                                std::bit_cast<std::uint64_t>(want);
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << curve.name << " snr " << snr << " dB, " << bytes << " B: got " << got
                    << ", want " << want;
    }
  };

  for (const Curve& curve : curves) {
    for (const std::size_t bytes : {0, 1, 6, 16, 235, 1000, 2304}) {
      // Coarse sweep from deep loss, through the cut-off, to far above it.
      for (int step = -40 * 64; step <= 80 * 64; ++step) {
        check(curve, curve.threshold_db + step / 64.0, bytes);
      }
      // Every double within 2,000 ulps of the cut-off, on both sides.
      const double cut = curve.threshold_db + 19.0;
      double up = cut;
      double down = cut;
      check(curve, cut, bytes);
      for (int i = 0; i < 2000; ++i) {
        up = std::nextafter(up, std::numeric_limits<double>::infinity());
        down = std::nextafter(down, -std::numeric_limits<double>::infinity());
        check(curve, up, bytes);
        check(curve, down, bytes);
      }
      for (const double odd : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
        check(curve, odd, bytes);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << points << " points";
}

TEST(Channel, CloseRangeIsReliable) {
  Channel ch;
  EXPECT_LT(ch.packet_error_rate(ch.snr_db(0.0, 1.0), WifiRate::Mcs7Sgi, 200), 0.005);
}

// ---------------------------------------------------------------------------
// Energy per bit (E6 backing maths)
// ---------------------------------------------------------------------------

TEST(EnergyPerBit, WifiSpansPaperRange) {
  // "10-100 nJ/bit depending on the bitrate" across the OFDM/HT ladder.
  EXPECT_NEAR(in_nanojoules(wifi_energy_per_bit(WifiRate::G6)), 100.0, 1.0);
  EXPECT_LT(in_nanojoules(wifi_energy_per_bit(WifiRate::Mcs7Sgi)), 10.0);
  EXPECT_GT(in_nanojoules(wifi_energy_per_bit(WifiRate::Mcs7Sgi)), 5.0);
}

TEST(EnergyPerBit, BleEffectiveMatchesPaperRange) {
  const double nj = in_nanojoules(ble_effective_energy_per_bit());
  EXPECT_GT(nj, 260.0);
  EXPECT_LT(nj, 310.0);
}

TEST(EnergyPerBit, BleRawIsCheaperThanEffective) {
  EXPECT_LT(ble_raw_energy_per_bit().value, ble_effective_energy_per_bit().value);
}

TEST(EnergyPerBit, EffectiveWifiIncludesPreambleOverhead) {
  // Small frames pay proportionally more preamble.
  EXPECT_GT(wifi_effective_energy_per_bit(20, WifiRate::Mcs7Sgi).value,
            wifi_effective_energy_per_bit(1000, WifiRate::Mcs7Sgi).value);
  // And always at least the steady-state PHY cost.
  EXPECT_GE(wifi_effective_energy_per_bit(1000, WifiRate::Mcs7Sgi).value,
            wifi_energy_per_bit(WifiRate::Mcs7Sgi).value);
}

}  // namespace
}  // namespace wile::phy
