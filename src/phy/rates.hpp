// 802.11 b/g/n (2.4 GHz, 20 MHz) physical rates.
//
// The ESP32 the paper prototypes on supports exactly this set. Each rate
// carries the parameters the airtime model needs: modulation family,
// data bits per OFDM symbol, and the legacy rate field encoding.
// The paper's Wi-LE measurement uses "a physical bitrate of 72 Mbps"
// — HT MCS 7, 20 MHz, short guard interval (Mcs7Sgi here).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace wile::phy {

/// Radio band. §1 of the paper: low-power WiFi enables "the use of the
/// 5 GHz spectrum (allowing devices to avoid the increasingly crowded
/// 2.4 GHz spectrum used by BLE)". 5 GHz drops DSSS rates and the 6 us
/// OFDM signal extension, and pays ~6 dB more free-space path loss.
enum class Band : std::uint8_t {
  G2_4,
  G5,
};

enum class Modulation : std::uint8_t {
  Dsss,      // 802.11b: DBPSK/DQPSK/CCK
  Ofdm,      // 802.11g: legacy OFDM
  HtMixed,   // 802.11n: HT mixed-mode, 20 MHz
};

enum class WifiRate : std::uint8_t {
  // 802.11b
  B1,
  B2,
  B5_5,
  B11,
  // 802.11g (legacy OFDM)
  G6,
  G9,
  G12,
  G18,
  G24,
  G36,
  G48,
  G54,
  // 802.11n HT20, long GI (MCS 0-7)
  Mcs0,
  Mcs1,
  Mcs2,
  Mcs3,
  Mcs4,
  Mcs5,
  Mcs6,
  Mcs7,
  // 802.11n HT20, short GI, MCS 7 — the 72.2 Mbps mode the paper uses.
  Mcs7Sgi,
};

struct RateInfo {
  WifiRate rate;
  Modulation modulation;
  double bits_per_us;       // PHY data rate (Mbps == bits/us)
  std::uint16_t n_dbps;     // data bits per symbol (OFDM/HT); 0 for DSSS
  bool short_gi;            // HT short guard interval (3.6 us symbols)
  double min_snr_db;        // SNR needed for ~10% PER at 1000B (link model)
  std::string_view name;
};

/// Static descriptor for a rate. Never fails; the enum is closed.
const RateInfo& rate_info(WifiRate rate);

/// All rates, for table-driven tests and sweeps.
std::span<const RateInfo> all_rates();

/// Parse a rate name: "72M", "6M", "5.5M", "mcs7"...
std::optional<WifiRate> parse_rate(std::string_view name);

/// The mandatory basic rate used for ACK/control responses in our 2.4 GHz
/// ERP network model.
constexpr WifiRate kControlResponseRate = WifiRate::G24;

}  // namespace wile::phy
