// Radio propagation and link-quality model.
//
// A log-distance path-loss channel mapping transmit power and distance
// to received power, SNR, and packet error rate per 802.11 rate. The
// paper notes Wi-LE at 0 dBm / 72 Mbps has "a similar range as BLE at the
// same transmission power (i.e., a few meters)"; this model is what lets
// tests and benches check that claim.
#pragma once

#include <cstddef>

#include "phy/rates.hpp"
#include "util/units.hpp"

namespace wile::phy {

/// Propagation speed of the radio wave. The sharded engine
/// (sim/parallel.hpp) derives its conservative-lookahead lower bound
/// from this: a transmission starting at a shard boundary cannot be
/// heard `d` meters into the neighbor before d / c seconds elapse.
inline constexpr double kSpeedOfLightMps = 299'792'458.0;

struct ChannelConfig {
  double path_loss_exponent = 3.0;   // indoor
  double reference_loss_db = 40.0;   // at 1 m, 2.4 GHz
  double noise_floor_dbm = -95.0;

  /// Defaults for each band; 5 GHz pays ~6.4 dB more reference loss
  /// (free-space scales with f^2: 20*log10(5.5/2.4) ≈ 7.2 dB, a little
  /// less indoors).
  static ChannelConfig for_band(Band band) {
    ChannelConfig cfg;
    if (band == Band::G5) cfg.reference_loss_db = 46.4;
    return cfg;
  }
};

class Channel {
 public:
  /// Throws std::invalid_argument unless the path-loss exponent is finite
  /// and positive and the reference loss and noise floor are finite. Any
  /// other config has no audible range (an exponent of 0 hears forever, a
  /// negative one nowhere) and would feed NaN or infinity into the
  /// medium's grid.
  explicit Channel(ChannelConfig config = {});

  [[nodiscard]] const ChannelConfig& config() const { return config_; }

  /// Received power for a transmission at `tx_power_dbm` over `distance_m`.
  [[nodiscard]] double rx_power_dbm(double tx_power_dbm, double distance_m) const;

  /// Largest distance at which rx_power_dbm(tx_power_dbm, d) still
  /// reaches `floor_dbm` — the analytic inversion of the log-distance
  /// model. The Medium's spatial index uses this to bound how far a
  /// transmission can possibly be heard (floor = the carrier-sense
  /// threshold). Never below the 0.1 m near-field clamp of
  /// rx_power_dbm.
  [[nodiscard]] double max_audible_range_m(double tx_power_dbm, double floor_dbm) const;

  [[nodiscard]] double snr_db(double tx_power_dbm, double distance_m) const {
    return rx_power_dbm(tx_power_dbm, distance_m) - config_.noise_floor_dbm;
  }

  /// Packet error rate for an `mpdu_bytes` frame at `rate` given `snr`.
  /// Smooth logistic roll-off around the rate's sensitivity threshold,
  /// scaled by frame length (longer frames fail more).
  [[nodiscard]] double packet_error_rate(double snr, WifiRate rate,
                                         std::size_t mpdu_bytes) const;

  /// Max distance at which PER for the given frame stays below
  /// `target_per`. Bisection over the monotone PER-vs-distance curve.
  [[nodiscard]] double max_range_m(double tx_power_dbm, WifiRate rate,
                                   std::size_t mpdu_bytes, double target_per = 0.1) const;

  /// BLE link: same propagation, GFSK sensitivity ladder baked into a
  /// single threshold (-70 dBm-class receivers need about 10 dB SNR over
  /// a -95 dBm floor for 10% PER on a 39-byte PDU).
  [[nodiscard]] double ble_packet_error_rate(double snr, std::size_t pdu_bytes) const;
  [[nodiscard]] double ble_max_range_m(double tx_power_dbm, std::size_t pdu_bytes,
                                       double target_per = 0.1) const;

 private:
  ChannelConfig config_;
};

}  // namespace wile::phy
