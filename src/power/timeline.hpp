// Piecewise-constant current-draw timeline.
//
// The firmware models (STA, AP, Wi-LE sender, BLE slave) report every
// current change with a phase id whose name is a legend entry of Figure
// 3 ("MC/WiFi init", "Probe/Auth./Associate", ...). Energy is the
// integral of current x supply voltage; the TraceRecorder samples the
// same timeline the way the paper's Keysight 34465A samples the real
// board (§5.1, Figure 2).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace wile::power {

/// A protocol phase, named as in the legends of Figure 3 and Table 1.
/// One byte that indexes kPhaseNames, so a segment carries its label
/// without a string.
enum class PhaseId : std::uint8_t {
  // Wi-Fi station and Wi-LE sender; WurListen is deep sleep with the
  // 802.11ba companion receiver on, BrownOut a harvesting board gone dark.
  Sleep, Init, Associate, Dhcp, Tx, RxWindow, BrownOut, WurListen,
  // BLE connection and advertising events.
  WakeUp, PreProcessing, Hop, PostProcessing, Rx, Ifs,
};

inline constexpr std::array<std::string_view, 14> kPhaseNames = {
    "Sleep", "MC/WiFi init", "Probe/Auth./Associate", "DHCP/ARP", "Tx", "RxWindow",
    "BrownOut", "WurListen",
    "Wake-up", "Pre-processing", "Hop", "Post-processing", "Rx", "T_IFS",
};
static_assert(kPhaseNames.size() == static_cast<std::size_t>(PhaseId::Ifs) + 1);

constexpr std::string_view phase_name(PhaseId id) {
  return kPhaseNames[static_cast<std::size_t>(id)];
}

/// The id whose name is `name`; throws std::invalid_argument if no
/// phase has that name.
PhaseId phase_id(std::string_view name);

struct Segment {
  TimePoint start;
  Amps current;
  PhaseId phase;  // annotation for Figure 3-style plots
};

class PowerTimeline {
 public:
  explicit PowerTimeline(Volts supply) : supply_(supply) {}

  [[nodiscard]] Volts supply() const { return supply_; }

  /// Report that from `t` onward the device draws `current` in `phase`.
  /// `t` must be monotonically non-decreasing across calls. A report
  /// that repeats the last segment's current and phase is dropped.
  void set_current(TimePoint t, Amps current, PhaseId phase);

  /// The same, naming the phase; throws std::invalid_argument for a name
  /// that is not in kPhaseNames.
  void set_current(TimePoint t, Amps current, std::string_view phase) {
    set_current(t, current, phase_id(phase));
  }

  /// Bound the retained segment history (0 = unbounded, the default).
  /// A new segment that would exceed the bound first folds the oldest
  /// half of the history into an accumulated energy baseline, so the
  /// history's capacity grows on demand to max_segments and no further.
  /// Lifetime totals stay exact: energy_between(TimePoint{}, to) adds the
  /// folded baseline when `to` is at or past retained_since(). Any other
  /// query that reaches into the folded span cannot be answered and
  /// throws. Fleet-scale simulations that only need per-cycle and
  /// lifetime totals set this to a small multiple of the segments one
  /// duty cycle produces (see bench/scale_fleet).
  void set_max_segments(std::size_t max_segments) { max_segments_ = max_segments; }

  /// Time before which segment history has been folded away.
  [[nodiscard]] TimePoint retained_since() const { return retained_since_; }

  /// Current drawn at `t`; throws std::out_of_range if `t` lies in the
  /// folded span.
  [[nodiscard]] Amps current_at(TimePoint t) const;

  /// Integrated energy over [from, to). The final segment extends to
  /// infinity (the device keeps drawing its last reported current).
  /// Throws std::out_of_range if the query starts inside the folded
  /// span, other than at simulation start, or ends inside it.
  [[nodiscard]] Joules energy_between(TimePoint from, TimePoint to) const;

  /// Mean power over [from, to).
  [[nodiscard]] Watts average_power(TimePoint from, TimePoint to) const;

  /// Start a running energy sum at `mark` (a duty cycle's wake), which
  /// must not precede the last reported change. From then on each
  /// segment adds its part after `mark` as it closes, so the sum needs no
  /// history and a bounded timeline keeps it however many segments the
  /// interval spans.
  void open_sum(TimePoint mark);
  /// energy_between(mark, to), bit for bit: the same terms added in the
  /// same order. `to` must not precede the last reported change.
  [[nodiscard]] Joules energy_since_mark(TimePoint to) const;

  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// First time at or after `from` where a segment of `phase` starts;
  /// returns false if never. Tests use it to locate a cycle's phases,
  /// e.g. the TX spike.
  bool find_phase(PhaseId phase, TimePoint from, TimePoint* start, TimePoint* end) const;

 private:
  void fold_history(TimePoint next_start);

  Volts supply_;
  std::vector<Segment> segments_;
  std::size_t max_segments_ = 0;
  TimePoint retained_since_{};  // history before this is baseline-only
  Joules baseline_energy_{};    // integral over [0, retained_since_)
  TimePoint sum_mark_{};        // see open_sum
  Joules sum_{};                // closed segments' energy after sum_mark_
};

/// Equation (1) of the paper: average power for a duty-cycled device
/// that spends `active` = Ptx·Ttx over `t_active` = Ttx each interval
/// INT and idles at Pidle otherwise. An interval no longer than Ttx
/// averages the active draw alone.
Watts duty_cycle_average_power(Joules active, Duration t_active, Watts idle,
                               Duration interval);

}  // namespace wile::power
