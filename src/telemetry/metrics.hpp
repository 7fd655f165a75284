// One metrics pipeline for every bench, example and test.
//
// The simulator's components each keep a small struct of plain counters
// (Medium::Stats, ReceiverStats, GatewayStats, ...). Those structs stay
// exactly where they are — they ARE the storage — and the registry binds
// hierarchical names ("medium.transmissions", "node.7.sender.cycles")
// to readers of those slots. Collection is therefore pull-only: the
// protocol hot path increments the same plain fields it always did, no
// string lookups, no indirection, no branches; a snapshot or an export
// calls the readers when (and only when) somebody asks. With no registry
// attached nothing changes at all, which is what makes telemetry free
// when disabled.
//
// Three metric kinds:
//   * counter — monotonically increasing u64;
//   * gauge   — instantaneous double (e.g. integrated energy from a
//     PowerTimeline);
//   * histogram — a log2-bucketed distribution in registry-owned storage;
//     a component that records one asks the registry for it when it binds
//     and records through the pointer, again without name lookups.
//
// A component describes its metrics once, in a static Schema: one Row
// per metric (a name suffix, a kind and a plain reader function). Binding
// a component costs one entry, not one per metric: a node's entry is its
// id, its schema and a pointer to the object; a group's is the same with
// an aggregate name prefix in place of the id. Scenario-level aggregates
// that have no component to read are named closures.
//
// Naming scheme (see DESIGN.md §10): aggregate metrics are
// "<subsystem>.<metric>" ("medium.deliveries", "gateway.monitor.fragments");
// per-node metrics are "node.<id>.<component>.<metric>"
// ("node.42.sender.tx.beacons"). The registry never builds a per-node
// name; a snapshot or an exporter writes it when it needs it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/units.hpp"

namespace wile::telemetry {

/// A distribution in 64 power-of-two buckets (bucket k counts samples
/// with bit_width(value) == k, i.e. value in [2^(k-1), 2^k); bucket 63
/// also takes everything wider), plus exact count/sum/min/max. Only the
/// span of buckets between the lowest and the highest one recorded is
/// stored, on the heap from the first record: a device whose cycles all
/// take about as long keeps one bucket.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t value) {
    if (count == 0 || value < min) min = value;
    if (value > max) max = value;
    ++count;
    sum += value;
    std::size_t k = 0;
    while (value >> k != 0 && k < kBuckets - 1) ++k;  // bit width, bucket 0 = value 0
    if (k < first_ || k >= first_ + size_) widen(k);
    ++span_[k - first_];
  }

  [[nodiscard]] double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Samples in bucket k (0 outside the span recorded so far).
  [[nodiscard]] std::uint64_t bucket(std::size_t k) const {
    return k >= first_ && k < first_ + size_ ? span_[k - first_] : 0;
  }
  /// The stored span: buckets first_bucket() .. first_bucket() + size - 1.
  [[nodiscard]] std::size_t first_bucket() const { return first_; }
  [[nodiscard]] std::span<const std::uint64_t> span() const { return {span_.get(), size_}; }

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

 private:
  /// Grow the stored span to take bucket k.
  void widen(std::size_t k);

  std::unique_ptr<std::uint64_t[]> span_;
  std::uint8_t first_ = 0;
  std::uint8_t size_ = 0;
};

enum class MetricKind : std::uint8_t { Counter, Gauge, HistogramKind };

/// One metric of a component's schema: the name suffix, the kind, and a
/// plain function that reads the value off the bound object (passed as
/// const void*). `has`, when set, limits the row to the objects for which
/// it returns true when they are bound. Make rows with counter<T>(),
/// gauge<T>() and histogram<T>().
struct Row {
  std::string_view suffix;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t (*counter)(const void* object) = nullptr;
  double (*gauge)(const void* object) = nullptr;
  const Histogram* (*histogram)(const void* object) = nullptr;
  bool (*has)(const void* object) = nullptr;
};

namespace detail {

// The readers of a row: F is a captureless lambda over const T&, which
// C++20 default-constructs, so each row gets a plain function.
template <class T, class F>
std::uint64_t read_counter(const void* object) {
  return F{}(*static_cast<const T*>(object));
}
template <class T, class F>
double read_gauge(const void* object) {
  return F{}(*static_cast<const T*>(object));
}
template <class T, class F>
const Histogram* read_histogram(const void* object) {
  return F{}(*static_cast<const T*>(object));
}
template <class T, class F>
bool test(const void* object) {
  return F{}(*static_cast<const T*>(object));
}
template <class T, class Has>
constexpr bool (*has_of())(const void*) {
  if constexpr (std::is_null_pointer_v<Has>) {
    return nullptr;
  } else {
    return &test<T, Has>;
  }
}

}  // namespace detail

/// A counter row read by `read` (a captureless lambda over const T&);
/// `has`, a captureless predicate over const T&, limits it to some objects.
template <class T, class Read, class Has = std::nullptr_t>
constexpr Row counter(std::string_view suffix, Read, Has = nullptr) {
  return {suffix, MetricKind::Counter, &detail::read_counter<T, Read>, nullptr, nullptr,
          detail::has_of<T, Has>()};
}
template <class T, class Read, class Has = std::nullptr_t>
constexpr Row gauge(std::string_view suffix, Read, Has = nullptr) {
  return {suffix, MetricKind::Gauge, nullptr, &detail::read_gauge<T, Read>, nullptr,
          detail::has_of<T, Has>()};
}
/// A histogram row: `read` returns the object's registry-owned histogram
/// (MetricsRegistry::make_histogram), or null for none recorded yet.
template <class T, class Read, class Has = std::nullptr_t>
constexpr Row histogram(std::string_view suffix, Read, Has = nullptr) {
  return {suffix, MetricKind::HistogramKind, nullptr, nullptr, &detail::read_histogram<T, Read>,
          detail::has_of<T, Has>()};
}

/// A component's metrics, described once: the component's name (a node's
/// metrics are "node.<id>.<component>.<suffix>") and at most 32 rows, in
/// export order. Schemas are static objects; a component binds its own,
/// with itself as the object the rows read.
struct Schema {
  std::string_view component;
  std::span<const Row> rows;
};

/// One registered metric, as the registry hands it to a reader. Its name
/// is "<head>" or "<head>.<tail>", after "node.<node>." for a node's
/// metric: a closure's name; a group's prefix and the row's suffix; a
/// node's component and the row's suffix. Valid while the registry and
/// the bound objects live.
class Metric {
 public:
  [[nodiscard]] MetricKind kind() const { return row_->kind; }
  [[nodiscard]] bool per_node() const { return per_node_; }
  [[nodiscard]] std::uint32_t node() const { return node_; }
  [[nodiscard]] std::string_view head() const { return head_; }
  [[nodiscard]] std::string_view tail() const { return row_->suffix; }
  /// The whole name, joined.
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint64_t counter() const { return row_->counter(object_); }
  [[nodiscard]] double gauge() const { return row_->gauge(object_); }
  /// The live histogram (an empty one when the object has none yet).
  [[nodiscard]] const Histogram& histogram() const;

 private:
  friend class MetricsRegistry;
  const Row* row_ = nullptr;
  const void* object_ = nullptr;
  std::string_view head_;
  std::uint32_t node_ = 0;
  bool per_node_ = false;
};

/// One collected counter or gauge value (see MetricsRegistry::snapshot).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;   // Counter
  double value = 0.0;        // Gauge
};

/// Counters and gauges read at one instant of the simulated clock, in
/// registration order (deterministic for a deterministic setup path —
/// which every scenario here is). Histograms are read live, by the
/// exporter.
struct Snapshot {
  TimePoint at{};
  std::vector<MetricValue> values;

  /// Linear lookup (tests read metrics by name here, not on hot paths).
  /// Returns nullptr when the name was never registered.
  [[nodiscard]] const MetricValue* find(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration ----------------------------------------------------------
  // Binding never copies a value; the registry calls the closure or the
  // row's reader when read. A bound object must outlive the registry.
  // Every binding throws std::logic_error on a name already registered.

  void bind_counter_fn(std::string name, std::function<std::uint64_t()> fn);
  void bind_gauge_fn(std::string name, std::function<double()> fn);

  /// Bind `object`'s metrics, as `schema` describes them, under the
  /// aggregate prefix: "<prefix>.<suffix>" per row.
  void bind_group(std::string prefix, const Schema& schema, const void* object);
  /// Bind `object`'s metrics, as `schema` describes them, as node
  /// `node`'s: "node.<node>.<component>.<suffix>" per row.
  void bind_node(std::uint32_t node, const Schema& schema, const void* object);

  /// A registry-owned histogram for a schema row to read. The pointer is
  /// stable for the registry's lifetime; record through it without any
  /// further registry involvement.
  Histogram* make_histogram();

  // --- collection ------------------------------------------------------------

  /// Every registered metric, each row of every bound schema included.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Read every counter and gauge at simulated time `at`.
  [[nodiscard]] Snapshot snapshot(TimePoint at) const;
  /// Read the aggregate counters and gauges alone (the periodic sampler:
  /// a fleet of 100k devices would otherwise write 100k rows per tick).
  [[nodiscard]] Snapshot aggregate_snapshot(TimePoint at) const;

  using Visitor = std::function<void(const Metric&)>;
  /// Every metric, in registration order.
  void for_each(const Visitor& fn) const;
  /// The aggregate metrics alone, in registration order.
  void for_each_aggregate(const Visitor& fn) const;
  /// The nodes' counters and gauges, grouped by node: nodes in the order
  /// their first one was registered, each node's in registration order.
  void for_each_node_value(const Visitor& fn) const;

 private:
  /// A named closure or a bound group. A closure is a one-row schema
  /// whose row calls the closure stored here.
  struct Aggregate {
    std::string name;  // the closure's name, or the group's prefix
    const Schema* schema = nullptr;
    const void* object = nullptr;
    std::uint32_t rows = 0;  // the bound rows, one bit per schema row
    std::size_t nodes_before = 0;  // node entries registered before this
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
  };
  struct Node {
    std::uint32_t node = 0;
    std::uint32_t rows = 0;  // the bound rows, one bit per schema row
    const Schema* schema = nullptr;
    const void* object = nullptr;
  };
  /// The largest node id bound under a component: a larger one cannot
  /// be a duplicate, so a fleet bound in id order never scans nodes_.
  struct Component {
    std::string_view name;
    std::uint32_t max_node = 0;
  };

  Aggregate& add_aggregate(std::string name, const Schema& schema, const void* object);
  [[nodiscard]] bool aggregate_exists(std::string_view name) const;
  [[nodiscard]] static std::uint32_t bound_rows(const Schema& schema, const void* object);
  static void visit(const Schema& schema, std::uint32_t rows, const void* object,
                    std::string_view head, const std::uint32_t* node, const Visitor& fn);

  std::deque<Aggregate> aggregates_;  // registration order; deque: stable addresses
  std::vector<Node> nodes_;           // registration order
  std::vector<Component> components_;
  std::deque<Histogram> histograms_;  // deque: stable addresses
  std::size_t size_ = 0;
};

}  // namespace wile::telemetry
