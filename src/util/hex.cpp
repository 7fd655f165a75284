#include "util/hex.hpp"

#include <cctype>
#include <cstdio>

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

std::string hexdump(BytesView data) {
  std::string out;
  // Widest line piece: a full-width offset (16 hex digits on a 64-bit
  // size_t), two spaces and the terminator.
  char line[2 * sizeof(std::size_t) + 3];
  for (std::size_t row = 0; row < data.size(); row += 16) {
    std::snprintf(line, sizeof(line), "%08zx  ", row);
    out += line;
    for (std::size_t i = 0; i < 16; ++i) {
      if (row + i < data.size()) {
        std::snprintf(line, sizeof(line), "%02x ", data[row + i]);
        out += line;
      } else {
        out += "   ";
      }
      if (i == 7) out += ' ';
    }
    out += " |";
    for (std::size_t i = 0; i < 16 && row + i < data.size(); ++i) {
      const char c = static_cast<char>(data[row + i]);
      out += std::isprint(static_cast<unsigned char>(c)) ? c : '.';
    }
    out += "|\n";
  }
  return out;
}

}  // namespace wile
