// Sharded parallel event core: conservative time windows over
// per-shard schedulers.
//
// The serial simulator (one Scheduler, one Medium) tops out at one
// core. This engine splits space into vertical stripes — shard i owns
// the x-span [x0 + i*w, x0 + (i+1)*w) — and gives every shard its own
// slab/timing-wheel Scheduler and Medium, so a million-node fleet's
// event processing spreads across worker threads. Shards advance in
// lockstep *windows*: each runs its own event loop up to the window
// boundary, then all meet at a barrier, exchange the transmissions
// whose audible circles crossed a stripe edge (position-snapshot
// RemoteTx phantoms, appended to plain per-(origin, destination)
// outboxes), and start the next window.
//
// Lookahead and the window length. Classic conservative PDES bounds
// the window by the minimum cross-shard propagation delay: a frame
// born at a stripe edge cannot influence a neighbor node d meters away
// before d / c seconds (phy::kSpeedOfLightMps). At indoor ranges that
// bound is sub-microsecond — honoring it strictly would barrier every
// event and parallelize nothing. This simulator's physics quantize
// propagation anyway (delivery happens at end-of-airtime, zero flight
// delay), so the engine instead uses a fixed window (default 10 ms,
// ScenarioBuilder::window()) and commits cross-shard traffic at window
// barriers: a remote frame whose airtime elapsed before the barrier
// delivers at the barrier instead. The error this admits is bounded by
// one window of cross-shard reaction latency and is identical for
// every thread count — see DESIGN.md §13 for the full contract.
//
// Determinism. Results depend on the SHARD count, never the THREAD
// count: shard assignment, per-shard RNG streams, window boundaries
// and the merge order of injected remotes (sorted by start time, then
// origin shard, then per-origin sequence) are all functions of the
// shard layout alone. Threads only decide which worker executes which
// shard, and the double barrier per window (one after running, one
// after draining) means no shard ever observes a neighbor's partial
// window. tests/test_determinism pins threads={1,2,4} at a fixed shard
// count to identical digests.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace wile::sim {

/// One cross-shard transmission in flight between barriers.
struct BoundaryTx {
  RemoteTx tx;
  std::uint32_t origin_shard = 0;
  /// Per-origin-shard monotonic counter; with (start, origin_shard) it
  /// makes the post-drain merge order a total, thread-independent order.
  std::uint64_t seq = 0;
};

/// Sense-reversing spin barrier. Yields while waiting — on machines
/// with fewer cores than workers (CI runners, the 1-CPU dev box) a hot
/// spin would starve the very threads it waits for. Returns the number
/// of yield loops spent waiting, which the engine surfaces as the
/// per-shard barrier-stall counter.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned parties) : parties_(parties) {}

  std::uint64_t arrive_and_wait();

 private:
  const unsigned parties_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// Stripe partition of the x-axis plus the outbox matrix that carries
/// boundary transmissions between shards.
///
/// The outboxes are plain vectors with no synchronisation of their own.
/// ParallelEngine separates the phases that touch them with
/// SpinBarrier::arrive_and_wait: in the run phase only shard `src`'s
/// thread appends to row `src`, in the drain phase only shard `dst`'s
/// thread empties column `dst`, and the barrier's acq_rel arrival count
/// plus its release/acquire generation flip order every append before
/// every read. Callers outside the engine must keep the same rule: no
/// route() concurrent with a drain().
class ShardRouter {
 public:
  /// Stripes cover [x0_m, x1_m); positions outside clamp to the edge
  /// stripes, so the partition tolerates nodes that wander off the
  /// declared extent.
  ShardRouter(std::size_t shards, double x0_m, double x1_m);

  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] std::size_t shard_of(double x_m) const;
  /// Owned span of `shard` as [first, second).
  [[nodiscard]] std::pair<double, double> span(std::size_t shard) const;

  /// Run phase, on shard `src`'s owning thread. Appends `tx` to the
  /// outbox of every other shard whose stripe intersects the audible
  /// circle [x - r, x + r].
  void route(std::size_t src, const RemoteTx& tx);

  /// Drain phase, on shard `dst`'s owning thread. Moves every outbox
  /// addressed to `dst` into `out`, leaves those outboxes empty, and
  /// sorts the whole vector into the canonical (start, origin_shard,
  /// seq) merge order. Returns the number of frames drained.
  std::size_t drain(std::size_t dst, std::vector<BoundaryTx>& out);

  /// Frame copies ever routed out of `shard`, one per destination.
  [[nodiscard]] std::uint64_t routed_from(std::size_t shard) const {
    return routed_[shard];
  }

 private:
  [[nodiscard]] std::vector<BoundaryTx>& outbox(std::size_t src, std::size_t dst) {
    return outboxes_[src * shards_ + dst];
  }

  std::size_t shards_;
  double x0_m_;
  double stripe_m_;
  std::vector<std::vector<BoundaryTx>> outboxes_;  // src-major matrix
  std::vector<std::uint64_t> seq_;     // per-src frame counters
  std::vector<std::uint64_t> routed_;  // per-src copies routed
};

/// Per-shard progress counters, exported through telemetry as
/// parallel.shard<i>.*. Written only by the shard's owning thread
/// during run_until and read after the workers join, so plain fields
/// suffice.
struct ShardStats {
  std::uint64_t windows = 0;
  /// Yield loops spent waiting at window barriers. Recorded on the
  /// owning thread's lowest-numbered shard (threads own shards
  /// {i : i % T == t}, so that is shard t); other shards on the same
  /// thread report 0 rather than double-counting the same wait.
  std::uint64_t barrier_stalls = 0;
  std::uint64_t boundary_tx_out = 0;
  std::uint64_t boundary_tx_in = 0;
};

class ParallelEngine {
 public:
  struct Shard {
    Scheduler* scheduler = nullptr;
    Medium* medium = nullptr;
  };

  /// Wires each shard's Medium for boundary exchange (owned span +
  /// boundary hook) over a router striping [x0_m, x1_m). `threads` is
  /// clamped to the shard count; shard i runs on thread i % threads.
  ParallelEngine(std::vector<Shard> shards, double x0_m, double x1_m,
                 Duration window, unsigned threads);

  /// Advance every shard to `deadline` in lockstep windows. Callable
  /// repeatedly; workers are spawned per call and joined before it
  /// returns. Exceptions thrown inside a shard's event loop abort the
  /// run (remaining windows are skipped on every thread) and are
  /// rethrown here.
  void run_until(TimePoint deadline);

  [[nodiscard]] const std::vector<ShardStats>& shard_stats() const { return stats_; }
  [[nodiscard]] const ShardRouter& router() const { return router_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] Duration window() const { return window_; }

  /// Latest simulated time over every shard.
  [[nodiscard]] TimePoint now() const;

 private:
  void worker_loop(unsigned thread_idx, TimePoint start, TimePoint deadline);

  std::vector<Shard> shards_;
  ShardRouter router_;
  Duration window_;
  unsigned threads_;
  SpinBarrier barrier_;
  std::vector<ShardStats> stats_;
  std::atomic<bool> abort_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
  /// Per-thread drain scratch, reused across windows (index = thread).
  std::vector<std::vector<BoundaryTx>> drain_scratch_;
};

}  // namespace wile::sim
