// The benchmark's workloads: each one a single ScenarioBuilder scenario
// advanced to a fixed simulated time, its inputs derived from a seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wile/scenario.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  int devices;
  double spacing_m;
  wile::Duration period;
  int gateway_every;  // 0 = exactly one gateway
  int sim_seconds;
  unsigned threads;   // 0 = serial engine
  bool wur;           // TxMode::Wur fleet with the AP wake scheduler
  bool rules;         // the 3-rule chain, polled every second
  bool telemetry;     // per-node metrics, 10 s sampler, export at the end
  std::size_t timeline_max_segments;
};

/// The named workloads, or nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// The cross-engine oracle's fleet: fleet_serial's geometry at 10k devices.
Workload oracle_workload(unsigned threads);

/// Per-run observers the traced run attaches from outside the program.
/// Each counter slot belongs to one device, so sharded workers never
/// share a slot.
struct Probes {
  std::vector<std::uint64_t> provider_calls;
  /// Every message a gateway delivered, in delivery order (serial only).
  std::vector<wile::rules::Reading> delivered;
  bool record_delivered = false;
};

/// A builder for `w` at `seed`. The seed drives the master and medium
/// seeds and every device's payload. `probes` may be null.
wile::sim::ScenarioBuilder make_builder(const Workload& w, std::uint64_t seed,
                                        Probes* probes);

/// The rule chain of the rules workload (the ingest bench's three rules).
std::vector<wile::rules::RuleSpec> rule_chain();

/// The payload a device sends on its `cycle`-th wake.
wile::Bytes payload_for(std::uint64_t seed, int device, std::uint32_t cycle);

/// Device and gateway positions exactly as the builder places them.
std::vector<wile::sim::Position> device_positions(const Workload& w);
std::vector<wile::sim::Position> gateway_positions(const Workload& w);

}  // namespace perfbench
