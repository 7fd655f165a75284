#include "phy/channel.hpp"

#include <cmath>
#include <stdexcept>

namespace wile::phy {

namespace {

/// Logistic PER curve: ~0.5 at the threshold, rolling off over ~2 dB.
/// Scaled to frame length relative to the 1000-byte reference the
/// sensitivity thresholds are quoted for.
double logistic_per(double snr_db, double threshold_db, std::size_t mpdu_bytes) {
  constexpr double kSlopePerDb = 2.0;
  const double x = (snr_db - threshold_db) * kSlopePerDb;
  // Exact early-out, 19 dB above the threshold. exp(38) ~ 3.19e16 > 2^54,
  // so per_ref < 2^-54, less than half an ulp below 1.0, and 1 - per_ref
  // rounds to exactly 1.0. C fixes pow(+1, y) == 1 for every y, so the
  // formula below returns exactly 0 for every frame size, 0 B included;
  // this skips one exp and two pow. The proof needs no libm accuracy
  // beyond exp(38) > 2^54, so do not lower the cut-off to where the
  // result reads 0 only because of how pow rounds. NaN falls through.
  if (x >= 38.0) return 0.0;
  const double per_ref = 1.0 / (1.0 + std::exp(x));
  // Convert the reference PER to a per-bit success probability and
  // re-scale to the actual frame length.
  constexpr double kRefBits = 1000.0 * 8.0;
  const double bit_success = std::pow(1.0 - per_ref, 1.0 / kRefBits);
  const double bits = static_cast<double>(mpdu_bytes) * 8.0;
  return 1.0 - std::pow(bit_success, bits);
}

double bisect_range(double lo, double hi, const auto& per_at, double target_per) {
  // PER is monotone increasing in distance; find the crossing.
  if (per_at(hi) < target_per) return hi;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (per_at(mid) < target_per) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Channel::Channel(ChannelConfig config) : config_(config) {
  if (!std::isfinite(config.path_loss_exponent) || config.path_loss_exponent <= 0.0) {
    throw std::invalid_argument("Channel: path_loss_exponent must be finite and > 0");
  }
  if (!std::isfinite(config.reference_loss_db) || !std::isfinite(config.noise_floor_dbm)) {
    throw std::invalid_argument("Channel: reference_loss_db and noise_floor_dbm must be finite");
  }
}

double Channel::rx_power_dbm(double tx_power_dbm, double distance_m) const {
  const double d = std::max(distance_m, 0.1);
  const double path_loss =
      config_.reference_loss_db + 10.0 * config_.path_loss_exponent * std::log10(d);
  return tx_power_dbm - path_loss;
}

double Channel::max_audible_range_m(double tx_power_dbm, double floor_dbm) const {
  const double budget_db = tx_power_dbm - config_.reference_loss_db - floor_dbm;
  const double d = std::pow(10.0, budget_db / (10.0 * config_.path_loss_exponent));
  return std::max(d, 0.1);
}

double Channel::packet_error_rate(double snr, WifiRate rate, std::size_t mpdu_bytes) const {
  return logistic_per(snr, rate_info(rate).min_snr_db, mpdu_bytes);
}

double Channel::max_range_m(double tx_power_dbm, WifiRate rate, std::size_t mpdu_bytes,
                            double target_per) const {
  const auto per_at = [&](double d) {
    return packet_error_rate(snr_db(tx_power_dbm, d), rate, mpdu_bytes);
  };
  return bisect_range(0.1, 10'000.0, per_at, target_per);
}

double Channel::ble_packet_error_rate(double snr, std::size_t pdu_bytes) const {
  constexpr double kBleThresholdDb = 25.0;  // matches MCS7-class sensitivity:
  // BLE at 0 dBm reaches "a few meters" like 72 Mbps WiFi (paper §5.4),
  // so the two links share a detection threshold in this model.
  return logistic_per(snr, kBleThresholdDb, pdu_bytes);
}

double Channel::ble_max_range_m(double tx_power_dbm, std::size_t pdu_bytes,
                                double target_per) const {
  const auto per_at = [&](double d) {
    return ble_packet_error_rate(snr_db(tx_power_dbm, d), pdu_bytes);
  };
  return bisect_range(0.1, 10'000.0, per_at, target_per);
}

}  // namespace wile::phy
