// Periodic whole-registry sampling on the simulated clock.
//
// A PeriodicSampler schedules itself on the event scheduler and records
// the registry's aggregate counters and gauges every `period` of
// simulated time — the time-series rows that exporters emit as
// "samples". It is a template over the scheduler type so the telemetry
// library stays below sim in the layer diagram (telemetry depends only
// on util; sim components and the ScenarioBuilder instantiate the
// sampler with the real sim::Scheduler).
//
// Sampling reads the aggregates alone and never walks the per-node
// entries: a fleet of 100k devices would otherwise serialize 100k rows
// per tick. The per-node detail belongs to the final export, which is
// taken once.
#pragma once

#include <vector>

#include "telemetry/metrics.hpp"
#include "util/units.hpp"

namespace wile::telemetry {

template <class SchedulerT>
class PeriodicSampler {
 public:
  PeriodicSampler(SchedulerT& scheduler, const MetricsRegistry& registry,
                  Duration period)
      : scheduler_(scheduler), registry_(registry), period_(period) {}

  /// Install the recurring sampling event (idempotent). The first sample
  /// is taken one period from now.
  void start() {
    if (running_ || period_.count() <= 0) return;
    running_ = true;
    schedule_next();
  }

  void stop() { running_ = false; }

  [[nodiscard]] const std::vector<Snapshot>& samples() const { return samples_; }

 private:
  void schedule_next() {
    scheduler_.schedule_in(period_, [this] {
      if (!running_) return;
      samples_.push_back(registry_.aggregate_snapshot(scheduler_.now()));
      schedule_next();
    });
  }

  SchedulerT& scheduler_;
  const MetricsRegistry& registry_;
  Duration period_;
  bool running_ = false;
  std::vector<Snapshot> samples_;
};

}  // namespace wile::telemetry
