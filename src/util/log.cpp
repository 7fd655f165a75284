#include "util/log.hpp"

#include <cstdio>
#include <string_view>

namespace wile {

WarnLine::~WarnLine() {
  // view() copies nothing, so the destructor cannot throw.
  const std::string_view message = stream_.view();
  std::fprintf(stderr, "[WARN] %.*s\n", static_cast<int>(message.size()), message.data());
}

}  // namespace wile
