#include "dot11/ie.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace wile::dot11 {

void IeList::add(InfoElement ie) {
  if (ie.data.size() > kMaxIeData) {
    throw std::invalid_argument("InfoElement data exceeds 255 bytes");
  }
  elements_.push_back(std::move(ie));
}

const InfoElement* IeList::find(IeId id) const {
  for (const auto& ie : elements_) {
    if (ie.id == id) return &ie;
  }
  return nullptr;
}

void IeList::write_to(ByteWriter& w) const {
  for (const auto& ie : elements_) {
    w.u8(static_cast<std::uint8_t>(ie.id));
    w.u8(static_cast<std::uint8_t>(ie.data.size()));
    w.bytes(ie.data);
  }
}

std::size_t IeList::encoded_size() const {
  std::size_t n = 0;
  for (const auto& ie : elements_) n += 2 + ie.data.size();
  return n;
}

IeList IeList::read_from(ByteReader& r) {
  IeList out;
  while (!r.empty()) {
    const auto id = static_cast<IeId>(r.u8());
    const std::size_t len = r.u8();
    out.add(InfoElement{id, r.bytes_copy(len)});
  }
  return out;
}

// ---------------------------------------------------------------------------

InfoElement make_ssid_ie(std::string_view ssid) {
  if (ssid.size() > 32) throw std::invalid_argument("SSID longer than 32 bytes");
  InfoElement ie{IeId::Ssid, {}};
  ie.data.assign(ssid.begin(), ssid.end());
  return ie;
}

std::optional<std::string> parse_ssid_ie(const IeList& ies) {
  const InfoElement* ie = ies.find(IeId::Ssid);
  if (ie == nullptr) return std::nullopt;
  return std::string(ie->data.begin(), ie->data.end());
}

void SupportedRates::add(double mbps, bool basic) {
  auto units = static_cast<std::uint8_t>(std::lround(mbps * 2.0));
  if (basic) units |= 0x80;
  rates_500kbps.push_back(units);
}

std::vector<double> SupportedRates::mbps() const {
  std::vector<double> out;
  out.reserve(rates_500kbps.size());
  for (std::uint8_t r : rates_500kbps) out.push_back((r & 0x7f) / 2.0);
  return out;
}

InfoElement make_supported_rates_ie(const SupportedRates& rates) {
  // The SupportedRates element holds at most 8 rates; overflow goes to
  // ExtSupportedRates. We encode the first 8 here; callers with more
  // should split (default_bg_rates() stays within 8).
  InfoElement ie{IeId::SupportedRates, {}};
  const std::size_t n = std::min<std::size_t>(rates.rates_500kbps.size(), 8);
  ie.data.assign(rates.rates_500kbps.begin(), rates.rates_500kbps.begin() + n);
  return ie;
}

std::optional<SupportedRates> parse_supported_rates_ie(const IeList& ies) {
  const InfoElement* ie = ies.find(IeId::SupportedRates);
  if (ie == nullptr) return std::nullopt;
  SupportedRates out;
  out.rates_500kbps.assign(ie->data.begin(), ie->data.end());
  return out;
}

SupportedRates default_bg_rates() {
  SupportedRates r;
  r.add(1.0, true);
  r.add(2.0, true);
  r.add(5.5, true);
  r.add(11.0, true);
  r.add(6.0, false);
  r.add(12.0, false);
  r.add(24.0, false);
  r.add(54.0, false);
  return r;
}

InfoElement make_ds_param_ie(std::uint8_t channel) {
  return InfoElement{IeId::DsParam, {channel}};
}

bool Tim::traffic_for(std::uint16_t aid) const {
  return std::find(aids.begin(), aids.end(), aid) != aids.end();
}

InfoElement make_tim_ie(const Tim& tim) {
  // Partial virtual bitmap: bytes [n1..n2] of the full 251-byte bitmap,
  // where n1 is the largest even number with no set bits below byte n1.
  std::array<std::uint8_t, 251> full{};
  std::uint16_t max_aid = 0;
  for (std::uint16_t aid : tim.aids) {
    if (aid == 0 || aid > 2007) throw std::invalid_argument("TIM: AID out of range");
    full[aid / 8] |= static_cast<std::uint8_t>(1u << (aid % 8));
    max_aid = std::max(max_aid, aid);
  }
  std::size_t n1 = 0;
  while (n1 + 1 < full.size() && full[n1] == 0 && full[n1 + 1] == 0 &&
         (n1 + 2) * 8 <= max_aid) {
    n1 += 2;  // n1 must be even
  }
  const std::size_t n2 = std::max<std::size_t>(max_aid / 8, n1);

  InfoElement ie{IeId::Tim, {}};
  ie.data.push_back(tim.dtim_count);
  ie.data.push_back(tim.dtim_period);
  std::uint8_t bitmap_control = static_cast<std::uint8_t>(n1 & 0xfe);
  if (tim.multicast_buffered) bitmap_control |= 0x01;
  ie.data.push_back(bitmap_control);
  for (std::size_t i = n1; i <= n2; ++i) ie.data.push_back(full[i]);
  return ie;
}

std::optional<Tim> parse_tim_ie(const IeList& ies) {
  const InfoElement* ie = ies.find(IeId::Tim);
  if (ie == nullptr || ie->data.size() < 4) return std::nullopt;
  Tim out;
  out.dtim_count = ie->data[0];
  out.dtim_period = ie->data[1];
  const std::uint8_t bitmap_control = ie->data[2];
  out.multicast_buffered = (bitmap_control & 0x01) != 0;
  const std::size_t n1 = bitmap_control & 0xfe;
  for (std::size_t i = 3; i < ie->data.size(); ++i) {
    const std::uint8_t byte = ie->data[i];
    for (int bit = 0; bit < 8; ++bit) {
      if (byte & (1u << bit)) {
        const auto aid = static_cast<std::uint16_t>((n1 + (i - 3)) * 8 + bit);
        if (aid != 0) out.aids.push_back(aid);
      }
    }
  }
  return out;
}

namespace {
constexpr std::array<std::uint8_t, 4> kRsnCipherCcmp = {0x00, 0x0f, 0xac, 0x04};
constexpr std::array<std::uint8_t, 4> kRsnAkmPsk = {0x00, 0x0f, 0xac, 0x02};
}  // namespace

InfoElement make_rsn_psk_ccmp_ie() {
  ByteWriter w(20);
  w.u16le(1);                  // version
  w.bytes(kRsnCipherCcmp);     // group cipher
  w.u16le(1);                  // pairwise count
  w.bytes(kRsnCipherCcmp);     // pairwise cipher
  w.u16le(1);                  // AKM count
  w.bytes(kRsnAkmPsk);         // AKM: PSK
  w.u16le(0);                  // RSN capabilities
  return InfoElement{IeId::Rsn, w.take()};
}

bool has_rsn_psk(const IeList& ies) {
  const InfoElement* ie = ies.find(IeId::Rsn);
  if (ie == nullptr) return false;
  try {
    ByteReader r{ie->data};
    if (r.u16le() != 1) return false;  // version
    r.skip(4);                         // group cipher
    const std::uint16_t pairwise_count = r.u16le();
    r.skip(4u * pairwise_count);
    const std::uint16_t akm_count = r.u16le();
    for (std::uint16_t i = 0; i < akm_count; ++i) {
      const BytesView akm = r.bytes(4);
      if (std::equal(akm.begin(), akm.end(), kRsnAkmPsk.begin())) return true;
    }
  } catch (const BufferUnderflow&) {
    return false;
  }
  return false;
}

InfoElement make_erp_ie() { return InfoElement{IeId::ErpInfo, {0x00}}; }

InfoElement make_country_ie() {
  InfoElement ie{IeId::Country, {}};
  ie.data = {'C', 'A', ' ', /*first channel*/ 1, /*num channels*/ 11, /*max dBm*/ 20};
  return ie;
}

InfoElement make_ht_caps_ie() {
  // 26-byte HT Capabilities: capabilities info with SGI-20 (bit 5) set,
  // A-MPDU params zero, MCS set with MCS 0-7 RX bitmap.
  InfoElement ie{IeId::HtCapabilities, Bytes(26, 0)};
  ie.data[0] = 0x20;  // short GI for 20 MHz
  ie.data[3] = 0xff;  // RX MCS bitmap: MCS 0-7
  return ie;
}

bool has_ht_caps(const IeList& ies) { return ies.find(IeId::HtCapabilities) != nullptr; }

}  // namespace wile::dot11
