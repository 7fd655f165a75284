// Runtime invariant oracles for chaos campaigns.
//
// A fault campaign is only as good as the properties it checks: a fleet
// that "survives" a brown-out storm while silently double-delivering
// sequences or leaking frame buffers has not survived anything. The
// InvariantMonitor is a registry of cheap oracles swept periodically on
// the simulated clock (plus push-style hooks for event-shaped
// properties), each recording a deterministic Violation on failure:
//
//   InvariantMonitor monitor;
//   monitor.add_monotone_counter("scheduler.events_run",
//                                [&] { return scheduler.events_run(); });
//   monitor.add_check("medium.frame_buffer_leak", [&] { ... });
//   monitor.start(scheduler, msec(250));
//   ... run the campaign ...
//   for (const auto& v : monitor.violations()) ...
//
// The standard catalog (scheduler monotonicity, FrameBuffer leak
// accounting, per-device sequence uniqueness, energy conservation,
// reassembler bounds) is wired over a full fleet by
// Scenario::attach_invariants (wile/scenario.hpp); the monitor itself is
// protocol-agnostic so tests can add bespoke oracles — including
// intentionally-broken ones, which is how the chaos shrinker is
// exercised (sim/chaos.hpp).
//
// Everything is deterministic: sweeps ride the event scheduler, checks
// draw no randomness, and violation records carry the simulated time
// they fired at, so the same campaign trips the same violations at the
// same instants on every run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace wile::sim {

/// One deterministic violation record. `node` scopes the failure to a
/// device/radio where that makes sense; kFleetWide otherwise.
struct Violation {
  static constexpr std::uint64_t kFleetWide = ~std::uint64_t{0};

  std::string invariant;  // oracle name, e.g. "receiver.sequence_unique"
  std::string detail;     // deterministic human-readable diagnosis
  TimePoint at{};
  std::uint64_t node = kFleetWide;
};

struct InvariantStats {
  std::uint64_t sweeps = 0;
  std::uint64_t checks_run = 0;
  std::uint64_t violations = 0;
  std::uint64_t deliveries_checked = 0;
};

class InvariantMonitor {
 public:
  /// Violation records kept verbatim; beyond this only the counter grows
  /// (a broken invariant inside a tight loop must not OOM the soak).
  static constexpr std::size_t kMaxViolations = 256;
  /// Per-(receiver, device) recent-sequence memory for the uniqueness
  /// oracle. Far beyond the Receiver's own 64-sequence dedup horizon, so
  /// any duplicate the protocol could legally suppress is caught.
  static constexpr std::size_t kSequenceMemory = 4096;

  /// An oracle: returns a diagnosis when the invariant is violated,
  /// nullopt while it holds. Run on every sweep.
  using Check = std::function<std::optional<std::string>()>;

  InvariantMonitor() = default;
  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;
  ~InvariantMonitor();

  // --- registering oracles ---------------------------------------------------

  void add_check(std::string name, Check check,
                 std::uint64_t node = Violation::kFleetWide);

  /// The value must never decrease between sweeps (scheduler time,
  /// events_run, link epochs across brown-out resumes, ...).
  void add_monotone_counter(std::string name, std::function<std::uint64_t()> fn,
                            std::uint64_t node = Violation::kFleetWide);

  /// The gauge must stay inside [lo, hi] (charge within capacity,
  /// partial-table size within its bound, ...).
  void add_bounded_gauge(std::string name, std::function<double()> fn, double lo,
                         double hi, std::uint64_t node = Violation::kFleetWide);

  // --- push-style hooks ------------------------------------------------------

  /// Per-receiver, per-device sequence uniqueness: a (device, sequence)
  /// pair delivered twice by the same receiver is a dedup failure
  /// (e.g. a brown-out resume retransmitting under a fresh sequence is
  /// fine; the same sequence surfacing twice through the Recovery path
  /// is not). Memory is bounded to the last kSequenceMemory sequences
  /// per (receiver, device).
  void on_delivery(std::uint32_t receiver_key, std::uint32_t device_id,
                   std::uint32_t sequence, TimePoint at);

  /// Record a violation directly (components with their own detection).
  void report(std::string invariant, std::string detail, TimePoint at,
              std::uint64_t node = Violation::kFleetWide);

  // --- sweeping --------------------------------------------------------------

  /// Schedule periodic sweeps on `scheduler` every `period`. The monitor
  /// must be destroyed (or stop() called) before the scheduler is.
  void start(Scheduler& scheduler, Duration period);
  void stop();

  /// Run every registered check once, attributing violations to `now`.
  void run_checks(TimePoint now);

  // --- results ---------------------------------------------------------------

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool ok() const { return stats_.violations == 0; }
  [[nodiscard]] const InvariantStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string name;
    Check check;
    std::uint64_t node = Violation::kFleetWide;
  };

  /// Bounded recent-sequence set with FIFO eviction.
  struct SeenSequences {
    std::unordered_set<std::uint32_t> set;
    std::deque<std::uint32_t> order;
  };

  void sweep();

  std::vector<Entry> checks_;
  std::vector<Violation> violations_;
  InvariantStats stats_;
  std::unordered_map<std::uint64_t, SeenSequences> seen_;  // (receiver, device)
  Scheduler* scheduler_ = nullptr;
  Duration period_{};
  std::optional<EventId> sweep_event_;
};

}  // namespace wile::sim
