// Simulated bench multimeter.
//
// The paper measures current with a Keysight 34465A "capable of taking
// 50,000 samples per second" in series with the 3.3 V supply (§5.1,
// Figure 2). TraceRecorder samples a PowerTimeline the same way and
// produces the time/current series plotted in Figure 3, plus its
// decimated form and peak current.
#pragma once

#include <cstdint>
#include <vector>

#include "power/timeline.hpp"

namespace wile::power {

struct TraceSample {
  double time_s = 0.0;
  double current_ma = 0.0;
};

class TraceRecorder {
 public:
  /// 50 kS/s, like the Keysight 34465A configuration in the paper.
  static constexpr double kDefaultSampleRateHz = 50'000.0;

  explicit TraceRecorder(double sample_rate_hz = kDefaultSampleRateHz)
      : sample_rate_hz_(sample_rate_hz) {}

  /// Sample the timeline over [from, to). Times in the output are
  /// relative to `from`.
  [[nodiscard]] std::vector<TraceSample> record(const PowerTimeline& timeline,
                                                TimePoint from, TimePoint to) const;

  /// Reduce a dense trace for printing/plotting: keep `max_points` by
  /// max-decimation per bucket (preserves spikes, unlike averaging —
  /// a 100 us TX burst must stay visible in a 2 s trace).
  static std::vector<TraceSample> decimate(const std::vector<TraceSample>& trace,
                                           std::size_t max_points);

  static double peak_ma(const std::vector<TraceSample>& trace);

 private:
  double sample_rate_hz_;
};

}  // namespace wile::power
