// Hex encoding/decoding helpers, used by tests (known-answer vectors) and
// by tools/wile_inspect when printing captured frames and reading keys.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/byte_buffer.hpp"

namespace wile {

/// Lowercase hex string, no separators ("deadbeef").
std::string to_hex(BytesView data);

/// Parse a hex string (whitespace tolerated between bytes). Returns
/// nullopt if the input contains non-hex characters or an odd digit count.
std::optional<Bytes> from_hex(std::string_view text);

}  // namespace wile
