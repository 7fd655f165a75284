#include "power/timeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace wile::power {

PhaseId phase_id(std::string_view name) {
  const auto it = std::find(kPhaseNames.begin(), kPhaseNames.end(), name);
  if (it == kPhaseNames.end()) {
    throw std::invalid_argument("PowerTimeline: unknown phase \"" + std::string(name) + "\"");
  }
  return static_cast<PhaseId>(it - kPhaseNames.begin());
}

void PowerTimeline::set_current(TimePoint t, Amps current, PhaseId phase) {
  if (!segments_.empty()) {
    Segment& last = segments_.back();
    if (t < last.start) {
      throw std::logic_error("PowerTimeline: non-monotonic set_current");
    }
    if (last.current == current && last.phase == phase) return;  // no change
    if (t == last.start) {
      // Replacing a zero-length segment.
      last.current = current;
      last.phase = phase;
      return;
    }
    // The last segment closes at t.
    const TimePoint lo = std::max(last.start, sum_mark_);
    if (t > lo) sum_ += (supply_ * last.current) * (t - lo);
  }
  if (max_segments_ > 0) {
    // Bounded: fold before the push, so the history never holds, nor
    // reserves room for, more than max_segments_ segments.
    if (segments_.size() >= max_segments_) fold_history(t);
    if (segments_.size() == segments_.capacity()) {
      segments_.reserve(std::min(2 * segments_.capacity(), max_segments_));
    }
  }
  segments_.push_back(Segment{t, current, phase});
}

void PowerTimeline::fold_history(TimePoint next_start) {
  // Fold the oldest segments into the baseline integral; keep the newest
  // half, counting the one about to start at `next_start`, so
  // recent-window queries (per-cycle energy) stay exact.
  const std::size_t keep = std::max<std::size_t>(max_segments_ / 2, 1);
  const std::size_t drop = segments_.size() + 1 - keep;
  for (std::size_t i = 0; i < drop; ++i) {
    const TimePoint seg_end = i + 1 < segments_.size() ? segments_[i + 1].start : next_start;
    const TimePoint lo = std::max(segments_[i].start, retained_since_);
    if (seg_end > lo) baseline_energy_ += (supply_ * segments_[i].current) * (seg_end - lo);
  }
  retained_since_ = drop < segments_.size() ? segments_[drop].start : next_start;
  segments_.erase(segments_.begin(),
                  segments_.begin() + static_cast<std::ptrdiff_t>(drop));
}

Amps PowerTimeline::current_at(TimePoint t) const {
  if (t < retained_since_) {
    throw std::out_of_range("PowerTimeline: current_at inside folded history");
  }
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
  if (from < retained_since_) {
    // Of the folded span only the integral from simulation start to its
    // end is known; see set_max_segments.
    if (from != TimePoint{} || to < retained_since_) {
      throw std::out_of_range("PowerTimeline: energy query inside folded history");
    }
    total += baseline_energy_;
  }
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

void PowerTimeline::open_sum(TimePoint mark) {
  if (!segments_.empty() && mark < segments_.back().start) {
    throw std::logic_error("PowerTimeline: open_sum before the last reported change");
  }
  sum_mark_ = mark;
  sum_ = Joules{0.0};
}

Joules PowerTimeline::energy_since_mark(TimePoint to) const {
  if (segments_.empty()) return Joules{0.0};
  const Segment& open = segments_.back();
  if (to < open.start) {
    throw std::logic_error("PowerTimeline: energy_since_mark before the last reported change");
  }
  Joules total = sum_;
  const TimePoint lo = std::max(open.start, sum_mark_);
  if (to > lo) total += (supply_ * open.current) * (to - lo);
  return total;
}

Watts PowerTimeline::average_power(TimePoint from, TimePoint to) const {
  if (to <= from) return Watts{0.0};
  return energy_between(from, to) / (to - from);
}

bool PowerTimeline::find_phase(PhaseId phase, TimePoint from, TimePoint* start,
                               TimePoint* end) const {
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].phase == phase && segments_[i].start >= from) {
      if (start != nullptr) *start = segments_[i].start;
      if (end != nullptr) {
        // Phase extends over consecutive segments with the same id.
        std::size_t j = i;
        while (j + 1 < segments_.size() && segments_[j + 1].phase == phase) ++j;
        *end = (j + 1 < segments_.size()) ? segments_[j + 1].start : segments_[j].start;
      }
      return true;
    }
  }
  return false;
}

Watts duty_cycle_average_power(Joules active, Duration t_active, Watts idle,
                               Duration interval) {
  if (interval <= t_active) return active / t_active;
  return (active + idle * (interval - t_active)) / interval;
}

}  // namespace wile::power
