// Warning log.
//
// The simulator is deterministic and single-threaded; it logs only the
// degraded paths a run takes (a lost link, a failed connect step, a MIC
// mismatch), and writes them to stderr so bench output on stdout stays
// clean.
#pragma once

#include <sstream>

namespace wile {

/// Stream-style warning, written to stderr as one "[WARN] ..." line when
/// the statement ends: warn() << "STA: link lost: " << why;
class WarnLine {
 public:
  WarnLine() = default;
  ~WarnLine();
  WarnLine(const WarnLine&) = delete;
  WarnLine& operator=(const WarnLine&) = delete;

  template <typename T>
  WarnLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

inline WarnLine warn() { return {}; }

}  // namespace wile
