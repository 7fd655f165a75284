// Seeded chaos campaigns over the fault vocabulary, plus minimal-repro
// shrinking.
//
// Hand-written fault scripts (tests/test_fault_injection.cpp) probe the
// failure modes we already thought of. The ChaosEngine searches the
// rest of the space: from a single seed it draws a randomized campaign
// of fault actions — AP outages, jammer windows, loss-floor steps,
// per-device floors, clock-drift steps, brown-outs, harvest fades, RF
// droughts — and arms them against any scenario through a ChaosTargets
// binding. Campaigns are plain data (serializable as a JSON fault
// script), so a failing one can be re-armed verbatim, shrunk, and
// shipped as a repro file:
//
//   Campaign c = generate_campaign(seed, config);
//   schedule_campaign(c, targets);          // arm against a scenario
//   ... run; InvariantMonitor trips ...
//   ShrinkResult r = shrink_campaign(c, [&](const Campaign& cand) {
//     return replay_and_check(cand);        // fresh scenario per probe
//   });
//   write_repro_file("chaos_repro_42.json", ...);
//
// The shrinker is ddmin-style delta debugging over the action list:
// it needs only a black-box "does this subset still reproduce?"
// predicate, and because campaigns and scenarios are seed-deterministic
// the predicate is stable — the minimal script replays identically
// forever. bench/chaos_soak drives the whole loop at fleet scale.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace wile::sim {

/// Everything the generator knows how to inject. Keep in sync with
/// kind_name()/kind_from_name() in chaos.cpp (the JSON vocabulary).
enum class FaultKind : std::uint8_t {
  kApOutage,        // window: AP down, modelled as gateway radio deafness
  kJammer,          // window: duty-cycled interferer; magnitude = duty cycle
  kNoiseRise,       // window: noise floor + magnitude dB
  kPerMultiplier,   // window: PER x magnitude
  kLossFloor,       // window: global erasure floor = magnitude
  kNodeLossFloor,   // window: per-device erasure floor; target = device
  kRadioDeaf,       // window: one device's RX path dead; target = device
  kClockDriftStep,  // one-shot: device clock skews by magnitude ppm
  kBrownOut,        // one-shot: drain one device's store; target = device
  kBrownOutAll,     // one-shot: correlated fleet-wide brown-out
  kHarvestFade,     // window: every harvester scaled by magnitude
  kRfDrought,       // window: harvest source dark fleet-wide
};

[[nodiscard]] const char* kind_name(FaultKind kind);
[[nodiscard]] std::optional<FaultKind> kind_from_name(const std::string& name);

/// One fault. Plain data: micros and doubles, no handles, so actions
/// round-trip through JSON exactly and compare bitwise.
struct FaultAction {
  FaultKind kind = FaultKind::kNoiseRise;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;  // 0 for one-shot kinds
  double magnitude = 0.0;        // kind-specific; see FaultKind
  std::int32_t target = -1;      // device index; -1 = fleet-wide/global

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

/// A full fault script: what gets thrown at a scenario, in what order.
/// The seed is the campaign's identity (the generator is a pure
/// function of it); the horizon bounds every action.
struct Campaign {
  std::uint64_t seed = 0;
  std::int64_t horizon_us = 0;
  std::vector<FaultAction> actions;

  friend bool operator==(const Campaign&, const Campaign&) = default;
};

struct ChaosConfig {
  int min_actions = 4;
  int max_actions = 12;
  Duration horizon = seconds(120);
  /// Device count of the scenario the campaign targets; per-device
  /// faults draw their target from [0, n_devices).
  int n_devices = 1;
};

/// Draw a campaign from `seed` over the full FaultKind vocabulary. Pure:
/// same (seed, config) -> identical campaign, independent of any
/// scenario state.
[[nodiscard]] Campaign generate_campaign(std::uint64_t seed,
                                         const ChaosConfig& config);

/// Binding from abstract action targets to one concrete scenario.
/// Everything is optional except the injector: actions whose binding is
/// missing (e.g. kBrownOut with no energy targets) are skipped
/// deterministically rather than failing the campaign.
struct ChaosTargets {
  FaultInjector* faults = nullptr;
  /// Medium node ids of the fleet's devices, campaign target order.
  std::vector<NodeId> device_nodes;
  /// Medium node ids of gateways/receivers — kApOutage deafens these
  /// (an AP that stops hearing its clients).
  std::vector<NodeId> gateway_nodes;
  /// Per-device clock-drift appliers (Sender::apply_clock_drift_ppm).
  std::vector<std::function<void(double)>> clock_drift;
  /// Per-device energy targets; null entries = mains-powered device.
  std::vector<EnergyFaultTarget*> energy;
  /// Where a generated jammer sits.
  Position jammer_position{};
};

/// Arm every applicable action of `campaign` on the injector. Returns
/// the number armed (skipped actions are those with no binding).
std::size_t schedule_campaign(const Campaign& campaign,
                              const ChaosTargets& targets);

// --- JSON fault scripts ------------------------------------------------------
// Schema "wile-chaos-campaign-v1": {schema, seed, horizon_us,
// actions: [{kind, start_us, duration_us, magnitude, target}, ...]}.
// Magnitudes print with %.17g so doubles round-trip exactly.

[[nodiscard]] std::string campaign_to_json(const Campaign& campaign);
/// Parse a campaign; nullopt (never a throw) on malformed input.
[[nodiscard]] std::optional<Campaign> campaign_from_json(const std::string& json);

// --- shrinking ---------------------------------------------------------------

struct ShrinkResult {
  Campaign minimal;
  /// Predicate invocations spent (each is a full scenario replay).
  std::size_t runs = 0;
  std::size_t original_actions = 0;
  /// False when the input campaign itself failed to reproduce (flaky
  /// oracle or wrong scenario binding); minimal is then the input.
  bool reproduced = false;
};

/// ddmin-style delta debugging: find a small action subset for which
/// `reproduces` still returns true. The predicate gets a candidate
/// campaign (same seed/horizon, subset of actions) and must rebuild a
/// fresh scenario per call. 1-minimal when the run budget allows;
/// best-so-far when `max_runs` is exhausted.
ShrinkResult shrink_campaign(
    const Campaign& failing,
    const std::function<bool(const Campaign&)>& reproduces,
    std::size_t max_runs = 256);

// --- repro files -------------------------------------------------------------
// Schema "wile-chaos-repro-v1": the shrunk campaign plus the violation
// it reproduces and the scenario it must be replayed against.

struct ReproFile {
  Campaign campaign;
  std::string scenario;  // fleet label the soak runner understands
  std::uint64_t scenario_seed = 0;
  std::string invariant;
  std::string detail;
  std::int64_t violation_at_us = 0;
  std::uint64_t node = ~std::uint64_t{0};
};

/// Returns false on I/O failure.
bool write_repro_file(const std::string& path, const ReproFile& repro);
[[nodiscard]] std::optional<ReproFile> load_repro_file(const std::string& path);

}  // namespace wile::sim
