#include "power/timeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace wile::power {

void PowerTimeline::set_current(TimePoint t, Amps current, std::string_view phase) {
  if (!segments_.empty()) {
    const Segment& last = segments_.back();
    if (t < last.start) {
      throw std::logic_error("PowerTimeline: non-monotonic set_current");
    }
    if (last.current == current && last.phase == phase) return;  // no change
    if (t == last.start) {
      // Replacing a zero-length segment.
      segments_.back().current = current;
      segments_.back().phase = std::string(phase);
      return;
    }
  }
  if (max_segments_ > 0 && segments_.size() == segments_.capacity()) {
    // Bounded: the history never holds more than max_segments_ + 1
    // segments (the fold below runs at that size), so grow no further.
    segments_.reserve(std::min(2 * segments_.capacity(), max_segments_ + 1));
  }
  segments_.push_back(Segment{t, current, std::string(phase)});
  if (max_segments_ > 0 && segments_.size() > max_segments_) fold_history();
}

void PowerTimeline::fold_history() {
  // Fold the oldest half into the baseline integral; keep the newest
  // half so recent-window queries (per-cycle energy) stay exact.
  const std::size_t keep = std::max<std::size_t>(max_segments_ / 2, 1);
  const std::size_t drop = segments_.size() - keep;
  const TimePoint horizon = segments_[drop].start;
  for (std::size_t i = 0; i < drop; ++i) {
    const TimePoint seg_end = segments_[i + 1].start;
    const TimePoint lo = std::max(segments_[i].start, retained_since_);
    if (seg_end > lo) baseline_energy_ += (supply_ * segments_[i].current) * (seg_end - lo);
  }
  segments_.erase(segments_.begin(),
                  segments_.begin() + static_cast<std::ptrdiff_t>(drop));
  retained_since_ = horizon;
}

Amps PowerTimeline::current_at(TimePoint t) const {
  if (segments_.empty() || t < segments_.front().start) return Amps{0.0};
  // Last segment with start <= t.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](TimePoint value, const Segment& s) { return value < s.start; });
  --it;
  return it->current;
}

Joules PowerTimeline::energy_between(TimePoint from, TimePoint to) const {
  if (to <= from || segments_.empty()) return Joules{0.0};
  Joules total{0.0};
  // Queries reaching to (or past) the folded horizon get the exact
  // integral from simulation start; see set_max_segments.
  if (from < retained_since_) total += baseline_energy_;
  // Skip straight to the segment containing `from`: per-cycle queries on
  // a long-lived timeline touch only its last few segments.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), from,
      [](TimePoint value, const Segment& s) { return value < s.start; });
  std::size_t i = (it == segments_.begin())
                      ? 0
                      : static_cast<std::size_t>(it - segments_.begin()) - 1;
  for (; i < segments_.size(); ++i) {
    const TimePoint seg_start = segments_[i].start;
    if (seg_start >= to) break;
    const TimePoint seg_end =
        (i + 1 < segments_.size()) ? segments_[i + 1].start : to;
    const TimePoint lo = std::max(seg_start, from);
    const TimePoint hi = std::min(seg_end, to);
    if (hi <= lo) continue;
    total += (supply_ * segments_[i].current) * (hi - lo);
  }
  return total;
}

Watts PowerTimeline::average_power(TimePoint from, TimePoint to) const {
  if (to <= from) return Watts{0.0};
  return energy_between(from, to) / (to - from);
}

bool PowerTimeline::find_phase(std::string_view phase, TimePoint from, TimePoint* start,
                               TimePoint* end) const {
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].phase == phase && segments_[i].start >= from) {
      if (start != nullptr) *start = segments_[i].start;
      if (end != nullptr) {
        // Phase extends over consecutive segments with the same label.
        std::size_t j = i;
        while (j + 1 < segments_.size() && segments_[j + 1].phase == phase) ++j;
        *end = (j + 1 < segments_.size()) ? segments_[j + 1].start : segments_[j].start;
      }
      return true;
    }
  }
  return false;
}

Watts duty_cycle_average_power(Watts p_tx, Duration t_tx, Watts p_idle, Duration interval) {
  if (interval <= t_tx) return p_tx;
  const Joules active = p_tx * t_tx;
  const Joules idle = p_idle * (interval - t_tx);
  return (active + idle) / interval;
}

}  // namespace wile::power
