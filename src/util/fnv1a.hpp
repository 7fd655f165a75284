// 64-bit FNV-1a: the run digest the benches print and the tests pin.
#pragma once

#include <cstdint>

#include "util/byte_buffer.hpp"

namespace wile::util {

/// Bytewise 64-bit FNV-1a. A word is hashed as its eight little-endian
/// bytes, so a digest does not depend on the host's byte order.
class Fnv1a {
 public:
  /// FNV's 64-bit offset basis.
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  /// kOffsetBasis's decimal digits without the last one. The chaos,
  /// harvesting and WUR bench digests have always started from it; they
  /// stay comparable with their recorded values only if they keep it.
  static constexpr std::uint64_t kTruncatedBasis = 1469598103934665603ULL;

  explicit Fnv1a(std::uint64_t basis = kOffsetBasis) : hash_(basis) {}

  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(word >> (8 * i)));
  }
  void add(BytesView bytes) {
    for (const std::uint8_t b : bytes) mix(b);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_;
};

}  // namespace wile::util
