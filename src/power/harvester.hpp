// Intermittent-power supply: capacitor harvester + energy governor.
//
// "Powering the Next Billion Devices with Wi-Fi" and BEH (PAPERS.md)
// run beacon-class senders off harvested RF: a small capacitor charges
// from ambient RF (the AP's own transmissions, scaled by the same
// log-distance path loss the data channel uses) and browns out when a
// protocol phase outruns the stored charge. This header models that
// power path for the Wi-LE sender:
//
//   * Harvester — the capacitor: charge integrates (harvest - leakage)
//     between settlement points, clamped to [0, capacity]. Harvest-rate
//     fades (RF droughts, shadowing people) stack multiplicatively and
//     unwind exactly (the active fades are kept and the product is
//     recomputed, so push/pop restores the bit-identical rate).
//   * EnergyGovernor — couples a Harvester to the device's
//     PowerTimeline: at every protocol-phase boundary the sender
//     settles the governor, which drains the energy the timeline
//     actually recorded since the last settlement and integrates the
//     harvest over the same span. The governor is also the
//     sim::EnergyFaultTarget the FaultInjector drives (scheduled
//     brown-outs, fades, fleet-wide droughts).
//
// Everything is closed-form arithmetic on the simulated clock: no RNG
// draws, so attaching a harvester never perturbs the fork sequence and
// same-seed runs stay bit-exact (tests/test_harvesting.cpp pins this).
#pragma once

#include <functional>
#include <vector>

#include "phy/channel.hpp"
#include "power/timeline.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace wile::power {

struct HarvesterConfig {
  /// Storage capacitance; usable energy is C * V^2 / 2 at the operating
  /// voltage (a boost converter is assumed to flatten the discharge
  /// curve, so we book-keep energy, not voltage).
  double capacitance_f = 100e-3;  // 100 mF supercap
  Volts operating_voltage{3.3};
  /// Fraction of capacity stored at t=0 (deployment starts charged).
  double initial_charge_fraction = 1.0;
  /// Gross harvested input while the RF source is unfaded. Use
  /// rf_harvest_power() to derive it from distance to the source.
  Watts harvest_power = microwatts(100);
  /// Parasitic self-discharge, drawn regardless of fades.
  Watts leakage = microwatts(1);

  [[nodiscard]] Joules capacity() const {
    return Joules{0.5 * capacitance_f * operating_voltage.value * operating_voltage.value};
  }

  friend bool operator==(const HarvesterConfig&, const HarvesterConfig&) = default;
};

/// Harvested power for a rectenna `distance_m` away from an RF source
/// transmitting at `source_tx_dbm`, through the same log-distance
/// channel the data path uses. `efficiency` is the RF-to-DC conversion
/// ratio (practical rectifiers: 0.1-0.5). This is what makes the
/// distance -> report-rate frontier fall out of the existing channel
/// model (bench/ablate_harvesting).
[[nodiscard]] Watts rf_harvest_power(const phy::Channel& channel, double source_tx_dbm,
                                     double distance_m, double efficiency);

/// The capacitor. Charge state advances only at settlement points; the
/// net input (harvest * fades - leakage) is constant between them, so
/// integration is exact.
class Harvester {
 public:
  explicit Harvester(HarvesterConfig config);

  [[nodiscard]] const HarvesterConfig& config() const { return config_; }
  [[nodiscard]] Joules capacity() const { return capacity_; }
  /// Charge as of the last settlement (see EnergyGovernor for clock
  /// coupling).
  [[nodiscard]] Joules charge() const { return charge_; }
  [[nodiscard]] bool empty() const { return charge_.value <= 0.0; }

  /// Net input right now: harvest * fade_scale - leakage (may be
  /// negative — a drought drains the cap through leakage).
  [[nodiscard]] Watts net_input() const;
  [[nodiscard]] double fade_scale() const { return fade_scale_; }

  /// Advance by `dt`: integrate the net input, subtract `consumed`
  /// (energy the load drew over the span), clamp to [0, capacity].
  void advance(Duration dt, Joules consumed);

  /// Instant brown-out: dump the stored charge.
  void drain_all() { charge_ = Joules{0.0}; }

  /// Harvest-rate fades stack multiplicatively; pop removes one matching
  /// push and recomputes the product from the survivors, so unwinding
  /// restores the exact pre-fault rate (no drifting a*s/s residue).
  void push_fade(double scale);
  void pop_fade(double scale);

  /// Time until charge first reaches `target` at the current net input
  /// (Duration::max() if the input can never get there). Exact inverse
  /// of advance() with no consumption, so a wake scheduled this far out
  /// finds the capacitor at the target.
  [[nodiscard]] Duration time_to_reach(Joules target) const;

 private:
  HarvesterConfig config_;
  Joules capacity_{};
  Joules charge_{};
  std::vector<double> fades_;
  double fade_scale_ = 1.0;
};

struct EnergyGovernorStats {
  std::uint64_t brown_outs = 0;        // injected + organic
  std::uint64_t settles = 0;
  std::uint64_t fades_applied = 0;
};

/// Gates a sender's protocol phases on the harvester's charge budget.
/// Owned by the Sender; implements the FaultInjector's energy-fault
/// interface so scheduled brown-outs / fades / droughts reach the
/// device without sim linking against the power library.
class EnergyGovernor final : public sim::EnergyFaultTarget {
 public:
  EnergyGovernor(sim::Scheduler& scheduler, const PowerTimeline& timeline,
                 HarvesterConfig config);

  [[nodiscard]] Harvester& harvester() { return harvester_; }
  [[nodiscard]] const Harvester& harvester() const { return harvester_; }
  [[nodiscard]] const EnergyGovernorStats& stats() const { return stats_; }

  /// Advance the harvester to now: drain what the timeline recorded
  /// since the last settlement, integrate the harvest over the span.
  /// Idempotent at a fixed simulated time.
  void settle();

  /// settle() + current charge.
  [[nodiscard]] Joules charge();

  /// Charge projected to `at` WITHOUT mutating any state — what
  /// telemetry gauges read, so attaching a metrics registry (which
  /// samples at its own times) can never perturb the settlement
  /// sequence and break same-seed determinism.
  [[nodiscard]] Joules projected_charge(TimePoint at) const;

  [[nodiscard]] bool can_afford(Joules cost) { return charge() >= cost; }

  /// Time until the settled charge reaches `target` at the current net
  /// input (Duration::max() = never at this rate; re-check when a fade
  /// lifts — see set_harvest_changed_handler).
  [[nodiscard]] Duration time_until(Joules target);

  /// Fires on a brown-out (injected or organic drain-to-empty detected
  /// at a settlement). The owner checkpoints and schedules recovery.
  void set_brown_out_handler(std::function<void()> fn) { on_brown_out_ = std::move(fn); }
  /// Fires whenever the harvest rate changes (fade push/pop), after the
  /// settlement at the fault edge. A recharging owner re-derives its
  /// wake time here.
  void set_harvest_changed_handler(std::function<void()> fn) {
    on_harvest_changed_ = std::move(fn);
  }

  /// Organic brown-out check: true (and fires the handler once) if the
  /// settled charge is empty. The sender calls this at phase
  /// boundaries; a device whose capacitor ran dry mid-phase dies at the
  /// next boundary, which is when the firmware would notice anyway.
  bool check_brown_out();

  // --- sim::EnergyFaultTarget ------------------------------------------------
  void fault_brown_out() override;
  void fault_harvest_push(double scale) override;
  void fault_harvest_pop(double scale) override;

 private:
  sim::Scheduler& scheduler_;
  const PowerTimeline& timeline_;
  Harvester harvester_;
  TimePoint settled_at_{};
  EnergyGovernorStats stats_;
  std::function<void()> on_brown_out_;
  std::function<void()> on_harvest_changed_;
};

}  // namespace wile::power
