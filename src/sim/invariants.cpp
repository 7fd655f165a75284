#include "sim/invariants.hpp"

#include <utility>

namespace wile::sim {
namespace {

std::string format_us(TimePoint at) {
  return std::to_string(at.us()) + "us";
}

}  // namespace

InvariantMonitor::~InvariantMonitor() { stop(); }

void InvariantMonitor::add_check(std::string name, Check check,
                                 std::uint64_t node) {
  checks_.push_back(Entry{std::move(name), std::move(check), node});
}

void InvariantMonitor::add_monotone_counter(std::string name,
                                            std::function<std::uint64_t()> fn,
                                            std::uint64_t node) {
  // last lives in the closure: each registered counter tracks its own
  // high-water mark across sweeps.
  add_check(
      std::move(name),
      [fn = std::move(fn), last = std::uint64_t{0}]() mutable
      -> std::optional<std::string> {
        const std::uint64_t v = fn();
        if (v < last) {
          std::string detail = "counter went backwards: " +
                               std::to_string(last) + " -> " +
                               std::to_string(v);
          last = v;
          return detail;
        }
        last = v;
        return std::nullopt;
      },
      node);
}

void InvariantMonitor::add_bounded_gauge(std::string name,
                                         std::function<double()> fn, double lo,
                                         double hi, std::uint64_t node) {
  add_check(
      std::move(name),
      [fn = std::move(fn), lo, hi]() -> std::optional<std::string> {
        const double v = fn();
        if (!(v >= lo && v <= hi)) {  // !(..) also catches NaN
          return "gauge " + std::to_string(v) + " outside [" +
                 std::to_string(lo) + ", " + std::to_string(hi) + "]";
        }
        return std::nullopt;
      },
      node);
}

void InvariantMonitor::on_delivery(std::uint32_t receiver_key,
                                   std::uint32_t device_id,
                                   std::uint32_t sequence, TimePoint at) {
  ++stats_.deliveries_checked;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(receiver_key) << 32) | device_id;
  SeenSequences& seen = seen_[key];
  if (!seen.set.insert(sequence).second) {
    report("receiver.sequence_unique",
           "device " + std::to_string(device_id) + " sequence " +
               std::to_string(sequence) + " delivered twice at receiver " +
               std::to_string(receiver_key),
           at, device_id);
    return;
  }
  seen.order.push_back(sequence);
  if (seen.order.size() > kSequenceMemory) {
    seen.set.erase(seen.order.front());
    seen.order.pop_front();
  }
}

void InvariantMonitor::report(std::string invariant, std::string detail,
                              TimePoint at, std::uint64_t node) {
  ++stats_.violations;
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(Violation{std::move(invariant),
                                    std::move(detail) + " @" + format_us(at),
                                    at, node});
  }
}

void InvariantMonitor::start(Scheduler& scheduler, Duration period) {
  stop();
  scheduler_ = &scheduler;
  period_ = period;
  sweep_event_ = scheduler_->schedule_in(period_, [this] { sweep(); });
}

void InvariantMonitor::stop() {
  if (scheduler_ != nullptr && sweep_event_) {
    scheduler_->cancel(*sweep_event_);
  }
  sweep_event_.reset();
  scheduler_ = nullptr;
}

void InvariantMonitor::run_checks(TimePoint now) {
  for (Entry& entry : checks_) {
    ++stats_.checks_run;
    if (auto detail = entry.check()) {
      report(entry.name, std::move(*detail), now, entry.node);
    }
  }
}

void InvariantMonitor::sweep() {
  ++stats_.sweeps;
  run_checks(scheduler_->now());
  sweep_event_ = scheduler_->schedule_in(period_, [this] { sweep(); });
}

}  // namespace wile::sim
