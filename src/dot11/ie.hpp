// 802.11 information elements (IEEE 802.11-2012 §8.4.2).
//
// Management frame bodies are mostly TLV lists of information elements.
// Wi-LE's entire data path lives in one of them: the Vendor Specific IE
// (id 221), which the paper picks because it "can be up to 253 bytes and
// does not have any specific format" (§4.1). The hidden-SSID trick is a
// zero-length SSID IE (§4.1 again).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/byte_buffer.hpp"

namespace wile::dot11 {

enum class IeId : std::uint8_t {
  Ssid = 0,
  SupportedRates = 1,
  DsParam = 3,
  Tim = 5,
  Country = 7,
  ErpInfo = 42,
  HtCapabilities = 45,
  Rsn = 48,
  ExtSupportedRates = 50,
  HtOperation = 61,
  VendorSpecific = 221,
};

/// One raw element: id, then up to 255 bytes of payload.
struct InfoElement {
  IeId id{};
  Bytes data;

  friend bool operator==(const InfoElement&, const InfoElement&) = default;
};

/// Ordered element list with codec and typed accessors.
class IeList {
 public:
  /// Maximum payload of a single element.
  static constexpr std::size_t kMaxIeData = 255;

  IeList() = default;

  void add(InfoElement ie);

  [[nodiscard]] const std::vector<InfoElement>& elements() const { return elements_; }
  [[nodiscard]] bool empty() const { return elements_.empty(); }
  [[nodiscard]] std::size_t size() const { return elements_.size(); }

  /// First element with the given id, if any.
  [[nodiscard]] const InfoElement* find(IeId id) const;

  void write_to(ByteWriter& w) const;
  [[nodiscard]] std::size_t encoded_size() const;

  /// Parse elements until the reader is exhausted. Throws BufferUnderflow
  /// on a truncated element (length byte promising more than remains).
  static IeList read_from(ByteReader& r);

  friend bool operator==(const IeList&, const IeList&) = default;

 private:
  std::vector<InfoElement> elements_;
};

// ---------------------------------------------------------------------------
// Typed element builders/parsers.
// ---------------------------------------------------------------------------

/// SSID element. An empty ssid encodes the "hidden SSID" wildcard/null
/// element Wi-LE transmits (zero-length, §4.1).
InfoElement make_ssid_ie(std::string_view ssid);
std::optional<std::string> parse_ssid_ie(const IeList& ies);

/// Supported rates in units of 500 kbit/s; `basic` rates get the high bit.
struct SupportedRates {
  std::vector<std::uint8_t> rates_500kbps;  // raw, incl. basic-rate bit
  void add(double mbps, bool basic);
  [[nodiscard]] std::vector<double> mbps() const;
};
InfoElement make_supported_rates_ie(const SupportedRates& rates);
std::optional<SupportedRates> parse_supported_rates_ie(const IeList& ies);
/// The standard b/g rate set our simulated network advertises.
SupportedRates default_bg_rates();

/// DS Parameter Set: the 2.4 GHz channel number.
InfoElement make_ds_param_ie(std::uint8_t channel);

/// Traffic Indication Map (§8.4.2.7). The AP sets one bit per
/// association ID with buffered downlink traffic; PS clients read their
/// bit to decide whether to stay awake. We encode the minimal partial
/// virtual bitmap covering the set AIDs.
struct Tim {
  std::uint8_t dtim_count = 0;
  std::uint8_t dtim_period = 1;
  bool multicast_buffered = false;    // bitmap control bit 0
  std::vector<std::uint16_t> aids;    // AIDs with traffic (1..2007)

  [[nodiscard]] bool traffic_for(std::uint16_t aid) const;
};
InfoElement make_tim_ie(const Tim& tim);
std::optional<Tim> parse_tim_ie(const IeList& ies);

/// RSN element for WPA2-PSK with CCMP pairwise+group cipher (the Google
/// WiFi configuration in the paper's testbed).
InfoElement make_rsn_psk_ccmp_ie();
/// True if the list has an RSN element selecting PSK AKM.
bool has_rsn_psk(const IeList& ies);

/// Bytes available for payload in one vendor-specific element after its
/// 3-byte OUI and one vendor subtype byte.
constexpr std::size_t vendor_payload_capacity() { return IeList::kMaxIeData - 4; }

/// ERP Information (802.11g protection bits); we advertise none set.
InfoElement make_erp_ie();

/// Country element ("CA " — the paper's testbed is in Canada) with one
/// 2.4 GHz triplet.
InfoElement make_country_ie();

/// Minimal HT Capabilities advertising a single stream, 20 MHz, SGI —
/// enough for the 72.2 Mbps mode Wi-LE transmits at.
InfoElement make_ht_caps_ie();
bool has_ht_caps(const IeList& ies);

}  // namespace wile::dot11
