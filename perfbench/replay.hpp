// Layer replays: the benchmark drives one layer's public API directly,
// with inputs shaped like a workload, and times it from outside. Each
// returns host nanoseconds per operation plus the counts it observed.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct SchedulerReplay {
  double ns_per_event = 0.0;
  std::uint64_t events = 0;
};

/// One periodic timer per device at the workload's duty cycle, each
/// firing scheduling a CSMA-style backoff and a guard timer that it
/// cancels again. Runs the workload's simulated span.
SchedulerReplay replay_scheduler(const Workload& w, std::uint64_t seed);

struct MediumReplay {
  double ns_per_tx = 0.0;
  std::uint64_t transmissions = 0;
  std::uint64_t polls = 0;    // rx_enabled() calls
  std::uint64_t rx_work = 0;  // on_frame + on_corrupt_frame calls
};

/// Stub radios at the workload's device and gateway positions (gateways
/// always listen; devices listen in WUR mode, where every armed companion
/// does). `frames` beacon-sized transmissions from random devices, plus
/// `wake_share` of them as WUR wake frames from the AP, one at a time.
MediumReplay replay_medium(const Workload& w, std::uint64_t seed, std::uint64_t frames,
                           double wake_share);

/// PowerTimeline::set_current with the sender's phase labels and the
/// workload's retention bound. Returns ns per call.
double replay_power(const Workload& w, std::uint64_t calls);

struct CodecReplay {
  double ns_per_encode = 0.0;
  double ns_per_decode = 0.0;
};

/// Codec::encode and Codec::decode_all on the workload's payloads.
CodecReplay replay_codec(std::uint64_t seed, std::uint64_t ops);

/// rules::Engine::on_reading over a recorded delivery stream; median of
/// `passes` fresh engines. Returns ns per reading (0 for an empty stream).
double replay_rules(const std::vector<wile::rules::Reading>& stream, int passes);

}  // namespace perfbench
