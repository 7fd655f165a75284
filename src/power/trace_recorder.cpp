#include "power/trace_recorder.hpp"

#include <algorithm>

namespace wile::power {

std::vector<TraceSample> TraceRecorder::record(const PowerTimeline& timeline, TimePoint from,
                                               TimePoint to) const {
  std::vector<TraceSample> out;
  if (to <= from || sample_rate_hz_ <= 0.0) return out;
  const double period_us = 1e6 / sample_rate_hz_;
  const double span_us = static_cast<double>((to - from).count());
  const auto n = static_cast<std::size_t>(span_us / period_us);
  out.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const double t_us = static_cast<double>(i) * period_us;
    const TimePoint t = from + Duration{static_cast<std::int64_t>(t_us)};
    if (t >= to) break;
    out.push_back(TraceSample{t_us / 1e6, in_milliamps(timeline.current_at(t))});
  }
  return out;
}

std::vector<TraceSample> TraceRecorder::decimate(const std::vector<TraceSample>& trace,
                                                 std::size_t max_points) {
  if (trace.size() <= max_points || max_points == 0) return trace;
  std::vector<TraceSample> out;
  out.reserve(max_points);
  const double stride = static_cast<double>(trace.size()) / static_cast<double>(max_points);
  for (std::size_t b = 0; b < max_points; ++b) {
    const auto lo = static_cast<std::size_t>(static_cast<double>(b) * stride);
    auto hi = static_cast<std::size_t>(static_cast<double>(b + 1) * stride);
    hi = std::min(hi, trace.size());
    if (lo >= hi) continue;
    // Keep the max-current sample in the bucket so spikes survive.
    auto it = std::max_element(trace.begin() + static_cast<std::ptrdiff_t>(lo),
                               trace.begin() + static_cast<std::ptrdiff_t>(hi),
                               [](const TraceSample& a, const TraceSample& b2) {
                                 return a.current_ma < b2.current_ma;
                               });
    out.push_back(*it);
  }
  return out;
}

double TraceRecorder::peak_ma(const std::vector<TraceSample>& trace) {
  double peak = 0.0;
  for (const auto& s : trace) peak = std::max(peak, s.current_ma);
  return peak;
}

}  // namespace wile::power
