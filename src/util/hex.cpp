#include "util/hex.hpp"

#include <cctype>

namespace wile {

std::string to_hex(BytesView data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::optional<Bytes> from_hex(std::string_view text) {
  Bytes out;
  out.reserve(text.size() / 2);
  int hi = -1;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (hi >= 0) return std::nullopt;  // whitespace splitting a byte
      continue;
    }
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    if (hi < 0) {
      hi = d;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | d));
      hi = -1;
    }
  }
  if (hi >= 0) return std::nullopt;  // odd digit count
  return out;
}

}  // namespace wile
