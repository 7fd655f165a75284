// Scriptable, time-windowed fault injection for the simulator.
//
// The paper's energy story (Table 1, Fig. 3/4) assumes a clean channel
// and an always-up AP. Real deployments of unattended IoT devices see
// none of that: microwave ovens raise the noise floor, duty-cycled
// jammers shred frames, APs reboot for firmware updates, radios go deaf.
// The FaultInjector drives such conditions through the existing
// Scheduler/Medium without touching any protocol code:
//
//   * channel impairments — noise-floor rise, blanket PER multiplier,
//     and a jammer node with a configurable duty cycle;
//   * node faults — radio deafness (RX blackout) for any attached node;
//   * energy starvation — scheduled brown-outs, harvest-rate fades and
//     fleet-wide RF droughts against any attached EnergyFaultTarget
//     (the Sender's power::EnergyGovernor registers itself here);
//   * arbitrary component faults via the generic window()/at()
//     primitives, e.g. AP crash-and-reboot or a gateway uplink kill:
//
//       FaultInjector fi{scheduler, medium, Rng{7}};
//       fi.window(TimePoint{seconds(60)}, seconds(30),
//                 [&] { ap.stop(); }, [&] { ap.start(); });
//       fi.at(TimePoint{seconds(90)}, [&] { gateway.kill_uplink(); });
//
// Everything is deterministic for a given seed; windows are scheduled up
// front, so a scenario is a pure function of (script, seeds).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace wile::sim {

/// A dumb interferer: transmits undecodable garbage bursts with the given
/// duty cycle. Anything overlapping a burst and audible above the
/// carrier-sense floor collides; CSMA nodes additionally defer to it.
struct JammerConfig {
  Position position{};
  double tx_power_dbm = 20.0;
  /// Burst cadence: one burst of `duty_cycle * period` airtime per period.
  Duration period = msec(10);
  double duty_cycle = 0.1;  // clamped to [0, 0.95]
  /// Size of the garbage MPDU receivers see (affects only parsing cost).
  std::size_t frame_bytes = 64;
};

struct FaultStats {
  std::uint64_t windows_scheduled = 0;
  std::uint64_t windows_started = 0;
  std::uint64_t windows_ended = 0;
  /// Gauge: windows currently open (the ISSUE's fault_windows_active).
  std::uint64_t fault_windows_active = 0;
  std::uint64_t events_fired = 0;  // one-shot at() faults
  std::uint64_t jammer_bursts = 0;
  /// Energy faults: scheduled brown-outs delivered, fade windows opened.
  std::uint64_t brown_outs_injected = 0;
  std::uint64_t harvest_fades = 0;
  /// Script-validation warning: typed windows of the same kind whose
  /// intervals overlap on the same target (usually a script bug — the
  /// faults stack, which is rarely what the author meant). Scheduling
  /// still proceeds; chaos campaigns overlap deliberately.
  std::uint64_t windows_overlapping = 0;
};

/// Implemented by intermittent power supplies (power::EnergyGovernor).
/// Declared here — not in power/ — because wile_power links wile_sim,
/// not the reverse; the injector drives energy faults through this
/// interface without seeing the capacitor model.
class EnergyFaultTarget {
 public:
  virtual ~EnergyFaultTarget() = default;
  /// Drain the store instantly; the device browns out now.
  virtual void fault_brown_out() = 0;
  /// Scale the harvest rate by `scale` (stacking multiplicatively with
  /// other active fades) until the matching pop.
  virtual void fault_harvest_push(double scale) = 0;
  virtual void fault_harvest_pop(double scale) = 0;
};

class FaultInjector {
 public:
  FaultInjector(Scheduler& scheduler, Medium& medium, Rng rng);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- generic primitives ----------------------------------------------------

  /// Open a fault window: `on_start` fires at `start`, `on_end` at
  /// `start + duration`. Either callback may be empty. Throws
  /// std::invalid_argument when duration <= 0 (end would not follow
  /// start) — validated at schedule time, not when the window fires.
  void window(TimePoint start, Duration duration, std::function<void()> on_start,
              std::function<void()> on_end);

  /// One-shot fault event (e.g. a sender clock-drift step).
  void at(TimePoint when, std::function<void()> fn);

  // --- channel impairments ---------------------------------------------------

  /// Raise the effective noise floor by `delta_db` for the window.
  /// Overlapping windows stack additively.
  void noise_floor_rise(TimePoint start, Duration duration, double delta_db);

  /// Multiply every packet error rate by `multiplier` for the window.
  /// Overlapping windows stack multiplicatively.
  void per_multiplier(TimePoint start, Duration duration, double multiplier);

  /// Impose an SNR-independent baseline loss probability for the window
  /// (drops `p` of frames even on an otherwise-clean link — the knob FEC
  /// tests use to inject exact loss). Overlapping windows stack as
  /// independent erasure processes: 1 - (1-a)(1-b).
  void per_floor(TimePoint start, Duration duration, double p);

  /// Per-device erasure floor for the window: only frames arriving at
  /// `node` see the extra loss (one sensor behind a forklift). Stacks
  /// with other per-node windows the same way the global floor does.
  void per_floor(TimePoint start, Duration duration, double p, NodeId node);

  /// Attach a jammer node that bursts for the window. Returns its NodeId
  /// (useful for carrier-sense assertions). The jammer object lives as
  /// long as the injector.
  NodeId jammer(TimePoint start, Duration duration, JammerConfig config);

  // --- node faults -----------------------------------------------------------

  /// Block all frame delivery to `node` for the window (radio deafness;
  /// the node's transmit path still works).
  void radio_deaf(TimePoint start, Duration duration, NodeId node);

  // --- energy starvation faults ----------------------------------------------

  /// Register an intermittent power supply with the injector. Fleet-wide
  /// energy faults (harvest_fade/rf_drought with no explicit target) hit
  /// every registered target, in registration order. The target must
  /// outlive the injector or the scheduled fault times.
  void attach_energy_target(EnergyFaultTarget* target);
  [[nodiscard]] std::size_t energy_targets() const { return energy_targets_.size(); }

  /// Scheduled brown-out: drain one device's store at `when` (a shorting
  /// capacitor, a load transient the harvester can't ride through).
  void brown_out(TimePoint when, EnergyFaultTarget& target);
  /// Correlated fleet-wide brown-out at `when` (mains-coupled harvesters
  /// losing their source simultaneously).
  void brown_out_all(TimePoint when);

  /// Scale every registered harvester's input by `scale` for the window
  /// (a person standing in the RF path, a seasonal duty-cycle change).
  /// Overlapping fades stack multiplicatively and unwind exactly.
  void harvest_fade(TimePoint start, Duration duration, double scale);

  /// Fleet-wide RF drought: the harvest source goes dark for the window
  /// (an AP reboot kills every rectenna feeding off it). Equivalent to
  /// harvest_fade(start, duration, 0.0).
  void rf_drought(TimePoint start, Duration duration);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] bool any_active() const { return stats_.fault_windows_active > 0; }

  /// Bind the fault counters into a telemetry registry under `prefix`
  /// ("fault.windows_started", ...); stats() stays the same slots.
  void publish_metrics(telemetry::MetricsRegistry& registry,
                       std::string prefix = "fault") const;

 private:
  class Jammer;

  /// Typed-window bookkeeping for the overlap warning. The key packs the
  /// fault kind with the target node (kGlobalTarget for fleet-wide
  /// faults); a new window overlapping any scheduled window with the
  /// same key bumps stats_.windows_overlapping once.
  enum class WindowKind : std::uint32_t {
    kNoise,
    kPerMultiplier,
    kPerFloor,
    kJammer,
    kRadioDeaf,
    kHarvestFade,
  };
  static constexpr std::uint32_t kGlobalTarget = 0xFFFF'FFFF;
  struct TrackedWindow {
    std::uint64_t key = 0;
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;
  };
  void track_window(WindowKind kind, std::uint32_t target, TimePoint start,
                    Duration duration);

  Scheduler& scheduler_;
  Medium& medium_;
  Rng rng_;
  FaultStats stats_;
  std::vector<EventId> pending_;  // cancelled on destruction
  std::vector<std::unique_ptr<Jammer>> jammers_;
  std::vector<EnergyFaultTarget*> energy_targets_;
  std::vector<TrackedWindow> tracked_;
};

}  // namespace wile::sim
