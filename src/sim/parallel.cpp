#include "sim/parallel.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <thread>

namespace wile::sim {

std::uint64_t SpinBarrier::arrive_and_wait() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arrival flips the generation; resetting the count first is
    // safe because waiters only watch the generation.
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    return 0;
  }
  std::uint64_t spins = 0;
  while (generation_.load(std::memory_order_acquire) == gen) {
    ++spins;
    std::this_thread::yield();
  }
  return spins;
}

ShardRouter::ShardRouter(std::size_t shards, double x0_m, double x1_m)
    : shards_(shards), x0_m_(x0_m) {
  if (shards == 0) throw std::invalid_argument("ShardRouter: zero shards");
  if (!(x1_m > x0_m)) throw std::invalid_argument("ShardRouter: empty extent");
  stripe_m_ = (x1_m - x0_m) / static_cast<double>(shards);
  outboxes_.resize(shards * shards);
  seq_.assign(shards, 0);
  routed_.assign(shards, 0);
}

std::size_t ShardRouter::shard_of(double x_m) const {
  const double rel = (x_m - x0_m_) / stripe_m_;
  if (rel <= 0.0) return 0;  // boundary nodes: x exactly on an edge goes right
  const auto idx = static_cast<std::size_t>(rel);
  return std::min(idx, shards_ - 1);
}

std::pair<double, double> ShardRouter::span(std::size_t shard) const {
  return {x0_m_ + stripe_m_ * static_cast<double>(shard),
          x0_m_ + stripe_m_ * static_cast<double>(shard + 1)};
}

void ShardRouter::route(std::size_t src, const RemoteTx& tx) {
  // Every stripe the audible circle touches mirrors the transmission —
  // a loud frame near a thin stripe can span 3+ shards.
  const std::size_t lo = shard_of(tx.origin.x_m - tx.audible_range_m);
  const std::size_t hi = shard_of(tx.origin.x_m + tx.audible_range_m);
  const std::uint64_t seq = seq_[src]++;
  for (std::size_t dst = lo; dst <= hi; ++dst) {
    if (dst == src) continue;
    outbox(src, dst).push_back(BoundaryTx{tx, static_cast<std::uint32_t>(src), seq});
    ++routed_[src];
  }
}

std::size_t ShardRouter::drain(std::size_t dst, std::vector<BoundaryTx>& out) {
  std::size_t n = 0;
  for (std::size_t src = 0; src < shards_; ++src) {
    if (src == dst) continue;
    std::vector<BoundaryTx>& box = outbox(src, dst);
    n += box.size();
    out.insert(out.end(), std::make_move_iterator(box.begin()),
               std::make_move_iterator(box.end()));
    // clear() keeps the capacity for the next window; the moved-from
    // entries hold no payload reference.
    box.clear();
  }
  // Canonical merge order: thread scheduling decides nothing. Each
  // outbox is already in route order; the sort interleaves origins the
  // same way every run.
  std::sort(out.begin(), out.end(), [](const BoundaryTx& a, const BoundaryTx& b) {
    if (a.tx.start != b.tx.start) return a.tx.start < b.tx.start;
    if (a.origin_shard != b.origin_shard) return a.origin_shard < b.origin_shard;
    return a.seq < b.seq;
  });
  return n;
}

ParallelEngine::ParallelEngine(std::vector<Shard> shards, double x0_m, double x1_m,
                               Duration window, unsigned threads)
    : shards_(std::move(shards)),
      router_(shards_.size(), x0_m, x1_m),
      window_(window),
      threads_(std::min<unsigned>(std::max(1u, threads),
                                  static_cast<unsigned>(shards_.size()))),
      barrier_(threads_),
      stats_(shards_.size()),
      drain_scratch_(threads_) {
  if (shards_.empty()) throw std::invalid_argument("ParallelEngine: no shards");
  if (window_.count() <= 0) throw std::invalid_argument("ParallelEngine: zero window");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Medium* medium = shards_[i].medium;
    const auto [s0, s1] = router_.span(i);
    medium->set_owned_span(s0, s1);
    medium->set_boundary_hook(
        [this, i](const RemoteTx& tx) { router_.route(i, tx); });
  }
}

void ParallelEngine::run_until(TimePoint deadline) {
  const TimePoint start = now();
  if (deadline <= start) return;
  abort_.store(false, std::memory_order_relaxed);
  error_ = nullptr;

  if (threads_ == 1) {
    worker_loop(0, start, deadline);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads_ - 1);
    for (unsigned t = 1; t < threads_; ++t) {
      workers.emplace_back([this, t, start, deadline] { worker_loop(t, start, deadline); });
    }
    worker_loop(0, start, deadline);
    for (auto& w : workers) w.join();
  }
  if (error_) std::rethrow_exception(error_);
}

void ParallelEngine::worker_loop(unsigned thread_idx, TimePoint start,
                                 TimePoint deadline) {
  // Static shard ownership: thread t runs shards {i : i % T == t}. The
  // assignment never changes mid-run, so each outbox has one writer in
  // the run phase (its origin's thread) and one in the drain phase (its
  // destination's thread); see ShardRouter.
  std::vector<std::size_t> owned;
  for (std::size_t i = thread_idx; i < shards_.size(); i += threads_) {
    owned.push_back(i);
  }
  std::vector<BoundaryTx>& inbox = drain_scratch_[thread_idx];

  TimePoint window_end = start;
  while (window_end < deadline) {
    window_end = std::min(window_end + window_, deadline);
    if (!abort_.load(std::memory_order_relaxed)) {
      try {
        // Phase 1: run every owned shard to the window boundary. All
        // boundary routes for this window happen here.
        for (const std::size_t i : owned) {
          shards_[i].scheduler->run_until(window_end);
          ++stats_[i].windows;
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        // Keep arriving at barriers so the other threads drain out of
        // the window loop instead of deadlocking.
        abort_.store(true, std::memory_order_release);
      }
    }
    std::uint64_t stalls = barrier_.arrive_and_wait();

    if (!abort_.load(std::memory_order_acquire)) {
      try {
        // Phase 2: drain and inject. The barrier above guarantees every
        // shard finished routing its window; the barrier below guarantees
        // no shard routes into the next window until every outbox is
        // empty — so each drain sees exactly the windows-so-far traffic,
        // a thread-count-independent set.
        for (const std::size_t i : owned) {
          inbox.clear();
          const std::size_t n = router_.drain(i, inbox);
          stats_[i].boundary_tx_in += n;
          for (const BoundaryTx& btx : inbox) {
            shards_[i].medium->inject_remote(btx.tx);
          }
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        abort_.store(true, std::memory_order_release);
      }
    }
    stalls += barrier_.arrive_and_wait();
    // Stalls land on this thread's lowest-numbered shard (== thread_idx
    // under the modulo assignment); see ShardStats.
    stats_[owned.front()].barrier_stalls += stalls;
  }

  // Final bookkeeping once per run: out-counts come from the router's
  // per-origin counters, which only this thread writes.
  for (const std::size_t i : owned) {
    stats_[i].boundary_tx_out = router_.routed_from(i);
  }
}

TimePoint ParallelEngine::now() const {
  TimePoint t{};
  for (const Shard& s : shards_) t = std::max(t, s.scheduler->now());
  return t;
}

}  // namespace wile::sim
