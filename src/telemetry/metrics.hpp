// One metrics pipeline for every bench, example and test.
//
// The simulator's components each keep a small struct of plain counters
// (Medium::Stats, ReceiverStats, GatewayStats, ...). Those structs stay
// exactly where they are — they ARE the storage — and the registry binds
// hierarchical names ("medium.transmissions", "node.7.sender.cycles")
// to pointers at those slots. Collection is therefore pull-only: the
// protocol hot path increments the same plain fields it always did, no
// string lookups, no indirection, no branches; a snapshot walks the
// bound pointers when (and only when) somebody asks. With no registry
// attached nothing changes at all, which is what makes telemetry
// free when disabled.
//
// Three metric kinds:
//   * counter — monotonically increasing u64, bound to a slot or to a
//     closure (for accessors that return by value, e.g.
//     Scheduler::events_run());
//   * gauge   — instantaneous double, bound to a closure (e.g.
//     integrated energy from a PowerTimeline);
//   * histogram — registry-owned log2-bucketed distribution; components
//     that want one ask the registry for a slot pointer at registration
//     time and record through it, again without name lookups.
//
// Naming scheme (see DESIGN.md §10): aggregate metrics are
// "<subsystem>.<metric>" ("medium.deliveries", "scheduler.events_run");
// per-node metrics are "node.<NodeId>.<component>.<metric>"
// ("node.42.sender.tx.beacons"). Exporters group on that prefix.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/units.hpp"

namespace wile::telemetry {

/// Registry-owned distribution: 64 power-of-two buckets (bucket k counts
/// samples with bit_width(value) == k, i.e. value in [2^(k-1), 2^k)),
/// plus exact count/sum/min/max. Fixed footprint, O(1) record.
struct Histogram {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, 64> buckets{};

  void record(std::uint64_t value) {
    if (count == 0 || value < min) min = value;
    if (value > max) max = value;
    ++count;
    sum += value;
    int k = 0;
    while (value >> k != 0 && k < 63) ++k;  // bit width, bucket 0 = value 0
    ++buckets[static_cast<std::size_t>(k)];
  }

  [[nodiscard]] double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

enum class MetricKind : std::uint8_t { Counter, Gauge, HistogramKind };

/// One collected value (see MetricsRegistry::snapshot).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;   // Counter
  double value = 0.0;        // Gauge
  Histogram histogram;       // HistogramKind (copied at snapshot time)
};

/// A whole-sim snapshot: every registered metric read at one instant of
/// the simulated clock, in registration order (deterministic for a
/// deterministic setup path — which every scenario here is).
struct Snapshot {
  TimePoint at{};
  std::vector<MetricValue> values;

  /// Linear lookup (snapshots are read by tests and exporters, not hot
  /// paths). Returns nullptr when the name was never registered.
  [[nodiscard]] const MetricValue* find(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration ----------------------------------------------------------
  // Binding never copies the value; the registry reads through the
  // pointer (or calls the closure) at snapshot time. The bound slot must
  // outlive the registry.

  void bind_counter(std::string name, const std::uint64_t* slot);
  void bind_counter_fn(std::string name, std::function<std::uint64_t()> fn);
  void bind_gauge_fn(std::string name, std::function<double()> fn);

  /// Create (or return the existing) registry-owned histogram. The
  /// returned pointer is stable for the registry's lifetime; record
  /// through it without any further registry involvement.
  Histogram* histogram(std::string name);

  // --- collection ------------------------------------------------------------

  [[nodiscard]] std::size_t size() const { return metrics_.size(); }
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Read one counter by name (0 if absent / not a counter).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  /// Read one gauge by name (0.0 if absent / not a gauge).
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// Read every metric at simulated time `at`.
  [[nodiscard]] Snapshot snapshot(TimePoint at) const;

  /// Snapshot restricted to names for which `keep` returns true (the
  /// periodic sampler uses this to record aggregates only).
  [[nodiscard]] Snapshot snapshot_filtered(
      TimePoint at, const std::function<bool(std::string_view)>& keep) const;

 private:
  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    const std::uint64_t* u64_slot = nullptr;
    std::function<std::uint64_t()> u64_fn;
    std::function<double()> f64_fn;
    Histogram* hist = nullptr;  // into histograms_
  };

  void add(Metric m);
  [[nodiscard]] const Metric* find_metric(std::string_view name) const;
  [[nodiscard]] MetricValue read(const Metric& m) const;

  std::vector<Metric> metrics_;  // registration order
  std::unordered_map<std::string, std::size_t> index_;
  std::deque<Histogram> histograms_;  // deque: stable addresses
};

}  // namespace wile::telemetry
