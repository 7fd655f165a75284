// Couples firmware phases and radio activity to a PowerTimeline.
//
// Firmware code declares a baseline current for its current phase
// ("MC/WiFi init" at CPU-active, "DHCP/ARP" at the DFS idle plateau...);
// transmissions overlay the TX current for their airtime plus the PA
// ramp, then fall back to the phase baseline. This is what turns a
// protocol exchange into the Figure-3 current trace.
#pragma once

#include <optional>

#include "power/timeline.hpp"
#include "sim/scheduler.hpp"

namespace wile::power {

class RadioPowerTracker {
 public:
  RadioPowerTracker(sim::Scheduler& scheduler, PowerTimeline& timeline, Amps tx_current,
                    Duration tx_ramp)
      : scheduler_(scheduler),
        timeline_(timeline),
        tx_current_(tx_current),
        tx_ramp_(tx_ramp) {}

  /// Enter a firmware phase drawing `baseline` until further notice.
  void set_phase(Amps baseline, PhaseId phase) {
    baseline_ = baseline;
    phase_ = phase;
    if (tx_nesting_ == 0) timeline_.set_current(scheduler_.now(), baseline_ + overlay_, phase_);
  }

  /// Always-on companion-circuit draw (the 802.11ba wake-up receiver)
  /// added on top of every phase baseline and TX burst. Defaults to an
  /// exact zero so devices without a companion radio emit bit-identical
  /// timelines. A brown-out clears it (the whole board is dark) and
  /// recovery restores it.
  void set_overlay(Amps overlay) {
    overlay_ = overlay;
    if (tx_nesting_ == 0) timeline_.set_current(scheduler_.now(), baseline_ + overlay_, phase_);
  }

  [[nodiscard]] Amps overlay() const { return overlay_; }

  /// A transmission starts now and occupies the air for `airtime`; the PA
  /// stays hot for the configured ramp after it. `current` overrides the
  /// default TX draw (legacy-rate frames burn more on the real chip).
  void on_tx_start(Duration airtime, std::optional<Amps> current = std::nullopt) {
    ++tx_nesting_;
    timeline_.set_current(scheduler_.now(), current.value_or(tx_current_) + overlay_, phase_);
    scheduler_.schedule_in(airtime + tx_ramp_, [this] {
      if (--tx_nesting_ == 0) {
        timeline_.set_current(scheduler_.now(), baseline_ + overlay_, phase_);
      }
    });
  }

 private:
  sim::Scheduler& scheduler_;
  PowerTimeline& timeline_;
  Amps tx_current_;
  Duration tx_ramp_;
  Amps baseline_{};
  Amps overlay_{};
  PhaseId phase_ = PhaseId::Sleep;
  int tx_nesting_ = 0;
};

}  // namespace wile::power
