#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wile::sim {

// ---------------------------------------------------------------------------
// Jammer: a MediumClient that transmits undecodable bursts on a fixed
// cadence while active. It never receives (rx_enabled false) and its
// garbage frames fail every parser, so its only effect is collisions,
// CSMA deference and NAV-free airtime occupancy — exactly what a
// non-802.11 interferer looks like to a WiFi radio.
// ---------------------------------------------------------------------------

class FaultInjector::Jammer : public MediumClient {
 public:
  Jammer(Scheduler& scheduler, Medium& medium, JammerConfig config, FaultStats& stats,
         Rng rng)
      : scheduler_(scheduler), medium_(medium), config_(config), stats_(stats) {
    config_.duty_cycle = std::clamp(config_.duty_cycle, 0.0, 0.95);
    node_id_ = medium_.attach(this, config_.position);
    medium_.set_listening(node_id_, false);  // transmit-only: never polled
    // Garbage payload: random but fixed per jammer, so runs are seeded.
    garbage_.resize(std::max<std::size_t>(config_.frame_bytes, 4));
    for (auto& b : garbage_) b = static_cast<std::uint8_t>(rng.below(256));
  }

  ~Jammer() override { deactivate(); }

  [[nodiscard]] NodeId node_id() const { return node_id_; }

  void activate() {
    if (active_) return;
    active_ = true;
    burst();
  }

  void deactivate() {
    active_ = false;
    if (next_burst_) {
      scheduler_.cancel(*next_burst_);
      next_burst_.reset();
    }
  }

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const RxFrame&) override {}
  [[nodiscard]] bool rx_enabled() const override { return false; }

 private:
  void burst() {
    next_burst_.reset();
    if (!active_) return;
    const auto burst_us = static_cast<std::int64_t>(
        config_.duty_cycle * static_cast<double>(config_.period.count()));
    if (burst_us > 0 && !medium_.transmitting(node_id_)) {
      TxRequest req;
      req.mpdu = garbage_;
      req.airtime = Duration{burst_us};
      req.tx_power_dbm = config_.tx_power_dbm;
      // No rate: receivers that survive the collision check run the
      // (irrelevant) non-WiFi PER model and then fail to parse anyway.
      medium_.transmit(node_id_, std::move(req));
      ++stats_.jammer_bursts;
    }
    next_burst_ = scheduler_.schedule_in(config_.period, [this] { burst(); });
  }

  Scheduler& scheduler_;
  Medium& medium_;
  JammerConfig config_;
  FaultStats& stats_;
  NodeId node_id_{};
  Bytes garbage_;
  bool active_ = false;
  std::optional<EventId> next_burst_;
};

// ---------------------------------------------------------------------------
// FaultInjector.
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(Scheduler& scheduler, Medium& medium, Rng rng)
    : scheduler_(scheduler), medium_(medium), rng_(rng) {}

FaultInjector::~FaultInjector() {
  for (EventId id : pending_) scheduler_.cancel(id);
}

void FaultInjector::track_window(WindowKind kind, std::uint32_t target,
                                 TimePoint start, Duration duration) {
  TrackedWindow w;
  w.key = (static_cast<std::uint64_t>(kind) << 32) | target;
  w.start_us = start.us();
  w.end_us = (start + duration).us();
  for (const TrackedWindow& other : tracked_) {
    if (other.key == w.key && w.start_us < other.end_us &&
        other.start_us < w.end_us) {
      ++stats_.windows_overlapping;
      break;  // warn once per newly scheduled window
    }
  }
  tracked_.push_back(w);
}

void FaultInjector::window(TimePoint start, Duration duration,
                           std::function<void()> on_start, std::function<void()> on_end) {
  // end <= start is a script bug (the window would never be open, or the
  // unwind would fire before the apply); reject when scheduled, not
  // hours of simulated time later when the events fire.
  if (duration.count() <= 0) {
    throw std::invalid_argument("FaultInjector: window end must follow start");
  }
  ++stats_.windows_scheduled;
  pending_.push_back(scheduler_.schedule_at(start, [this, on_start = std::move(on_start)] {
    ++stats_.windows_started;
    ++stats_.fault_windows_active;
    if (on_start) on_start();
  }));
  pending_.push_back(
      scheduler_.schedule_at(start + duration, [this, on_end = std::move(on_end)] {
        ++stats_.windows_ended;
        --stats_.fault_windows_active;
        if (on_end) on_end();
      }));
}

void FaultInjector::at(TimePoint when, std::function<void()> fn) {
  pending_.push_back(scheduler_.schedule_at(when, [this, fn = std::move(fn)] {
    ++stats_.events_fired;
    if (fn) fn();
  }));
}

void FaultInjector::noise_floor_rise(TimePoint start, Duration duration, double delta_db) {
  if (!std::isfinite(delta_db)) {
    throw std::invalid_argument("FaultInjector: non-finite noise delta");
  }
  track_window(WindowKind::kNoise, kGlobalTarget, start, duration);
  window(
      start, duration,
      [this, delta_db] { medium_.set_noise_offset_db(medium_.noise_offset_db() + delta_db); },
      [this, delta_db] {
        medium_.set_noise_offset_db(medium_.noise_offset_db() - delta_db);
      });
}

void FaultInjector::per_multiplier(TimePoint start, Duration duration, double multiplier) {
  // !(x > 0) rather than x <= 0 so NaN is rejected too.
  if (!(multiplier > 0.0) || !std::isfinite(multiplier)) {
    throw std::invalid_argument("FaultInjector: PER multiplier not in (0, inf)");
  }
  track_window(WindowKind::kPerMultiplier, kGlobalTarget, start, duration);
  window(
      start, duration,
      [this, multiplier] { medium_.set_per_multiplier(medium_.per_multiplier() * multiplier); },
      [this, multiplier] {
        medium_.set_per_multiplier(medium_.per_multiplier() / multiplier);
      });
}

void FaultInjector::per_floor(TimePoint start, Duration duration, double p) {
  // !(0 <= p < 1) rejects NaN alongside out-of-range values.
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument("FaultInjector: PER floor not in [0,1)");
  }
  track_window(WindowKind::kPerFloor, kGlobalTarget, start, duration);
  // Stack as independent erasure processes so nested windows compose and
  // unwind exactly: survival probabilities multiply/divide.
  window(
      start, duration,
      [this, p] { medium_.set_loss_floor(1.0 - (1.0 - medium_.loss_floor()) * (1.0 - p)); },
      [this, p] { medium_.set_loss_floor(1.0 - (1.0 - medium_.loss_floor()) / (1.0 - p)); });
}

void FaultInjector::per_floor(TimePoint start, Duration duration, double p, NodeId node) {
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument("FaultInjector: PER floor not in [0,1)");
  }
  track_window(WindowKind::kPerFloor, node, start, duration);
  window(
      start, duration,
      [this, p, node] {
        medium_.set_node_loss_floor(
            node, 1.0 - (1.0 - medium_.node_loss_floor(node)) * (1.0 - p));
      },
      [this, p, node] {
        medium_.set_node_loss_floor(
            node, 1.0 - (1.0 - medium_.node_loss_floor(node)) / (1.0 - p));
      });
}

NodeId FaultInjector::jammer(TimePoint start, Duration duration, JammerConfig config) {
  jammers_.push_back(
      std::make_unique<Jammer>(scheduler_, medium_, config, stats_, rng_.fork()));
  Jammer* j = jammers_.back().get();
  track_window(WindowKind::kJammer, kGlobalTarget, start, duration);
  window(start, duration, [j] { j->activate(); }, [j] { j->deactivate(); });
  return j->node_id();
}

void FaultInjector::radio_deaf(TimePoint start, Duration duration, NodeId node) {
  track_window(WindowKind::kRadioDeaf, node, start, duration);
  window(start, duration, [this, node] { medium_.set_rx_blocked(node, true); },
         [this, node] { medium_.set_rx_blocked(node, false); });
}

void FaultInjector::attach_energy_target(EnergyFaultTarget* target) {
  if (target == nullptr) throw std::invalid_argument("FaultInjector: null energy target");
  energy_targets_.push_back(target);
}

void FaultInjector::brown_out(TimePoint when, EnergyFaultTarget& target) {
  at(when, [this, &target] {
    ++stats_.brown_outs_injected;
    target.fault_brown_out();
  });
}

void FaultInjector::brown_out_all(TimePoint when) {
  // Targets are iterated at fire time, in registration order, so devices
  // attached after scheduling are still hit.
  at(when, [this] {
    for (EnergyFaultTarget* t : energy_targets_) {
      ++stats_.brown_outs_injected;
      t->fault_brown_out();
    }
  });
}

void FaultInjector::harvest_fade(TimePoint start, Duration duration, double scale) {
  if (!(scale >= 0.0) || !std::isfinite(scale)) {
    throw std::invalid_argument("FaultInjector: fade scale not in [0, inf)");
  }
  track_window(WindowKind::kHarvestFade, kGlobalTarget, start, duration);
  window(
      start, duration,
      [this, scale] {
        ++stats_.harvest_fades;
        for (EnergyFaultTarget* t : energy_targets_) t->fault_harvest_push(scale);
      },
      [this, scale] {
        for (EnergyFaultTarget* t : energy_targets_) t->fault_harvest_pop(scale);
      });
}

void FaultInjector::rf_drought(TimePoint start, Duration duration) {
  harvest_fade(start, duration, 0.0);
}

void FaultInjector::publish_metrics(telemetry::MetricsRegistry& registry,
                                    std::string prefix) const {
  using S = FaultStats;
  static constexpr telemetry::Row kRows[] = {
      telemetry::counter<S>("windows_scheduled", [](const S& s) { return s.windows_scheduled; }),
      telemetry::counter<S>("windows_started", [](const S& s) { return s.windows_started; }),
      telemetry::counter<S>("windows_ended", [](const S& s) { return s.windows_ended; }),
      telemetry::counter<S>("windows_active", [](const S& s) { return s.fault_windows_active; }),
      telemetry::counter<S>("events_fired", [](const S& s) { return s.events_fired; }),
      telemetry::counter<S>("jammer_bursts", [](const S& s) { return s.jammer_bursts; }),
      telemetry::counter<S>("brown_outs_injected",
                            [](const S& s) { return s.brown_outs_injected; }),
      telemetry::counter<S>("harvest_fades", [](const S& s) { return s.harvest_fades; }),
      telemetry::counter<S>("windows_overlapping",
                            [](const S& s) { return s.windows_overlapping; }),
  };
  static constexpr telemetry::Schema kSchema{"fault", kRows};
  registry.bind_group(std::move(prefix), kSchema, &stats_);
}

}  // namespace wile::sim
