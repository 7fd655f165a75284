// Node-based rules engine over decoded gateway readings.
//
// Scenarios express fleet logic — alerting, stale-signal detection, rate
// aggregation — as declarative RuleSpecs instead of recompiled C++. Each
// spec compiles into a small chain of nodes:
//
//   condition  — compare one field of the reading against a constant
//   aggregate  — sliding-window reduce (count/sum/mean/min/max) over the
//                values that passed the condition, compared to a constant
//   hold       — the chain so far must stay true for a minimum duration
//                (debounce); any failure resets the streak
//   cooldown   — minimum spacing between fires per device
//
// plus an out-of-band staleness watchdog (`stale_after`): poll() fires
// once per silence for every device that stopped reporting.
//
// Only the nodes named by the spec are compiled; each keeps evaluated/
// passed counters so per-stage behaviour is observable through telemetry.
// Per-(rule, device) state lives in the same flat open-addressing table
// the ingest path uses (util/flat_table.hpp) — evaluation cost is one
// probe per rule per reading, and iteration order (stale sweeps) is a
// pure function of the arrival sequence, keeping same-seed runs
// bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/flat_table.hpp"
#include "wile/message.hpp"

namespace wile::rules {

/// Which field of a reading a condition looks at. Value is the decoded
/// sensor scalar (see Engine::on_message); readings without a value fail
/// Value conditions.
enum class Field : std::uint8_t { Value, RssiDbm, DeviceId, Sequence };
enum class Cmp : std::uint8_t { Lt, Le, Gt, Ge, Eq, Ne };
enum class AggOp : std::uint8_t { Count, Sum, Mean, Min, Max };

struct ConditionSpec {
  Field field = Field::Value;
  Cmp cmp = Cmp::Gt;
  double rhs = 0.0;
};

struct AggregateSpec {
  AggOp op = AggOp::Mean;
  /// Sliding window over simulated time; entries age out exactly.
  Duration window = seconds(60);
  Cmp cmp = Cmp::Gt;
  double rhs = 0.0;
};

/// One declarative rule. Only the members you set become nodes.
struct RuleSpec {
  std::string name;
  std::optional<ConditionSpec> when;
  std::optional<AggregateSpec> aggregate;
  Duration hold = Duration{0};      // 0 = no hold node
  Duration cooldown = Duration{0};  // 0 = no cooldown node
  /// Fire (once per silence) when a device that has reported goes quiet
  /// for this long. Checked by poll().
  std::optional<Duration> stale_after;
};

/// One decoded reading as the engine sees it.
struct Reading {
  std::uint32_t device_id = 0;
  std::uint32_t sequence = 0;
  core::MessageType type = core::MessageType::Telemetry;
  double rssi_dbm = 0.0;
  std::optional<double> value;
  TimePoint at;
};

/// A rule firing for one device.
struct Fire {
  std::string rule;
  std::uint32_t device_id = 0;
  TimePoint at;
  /// The value the final comparison saw (aggregate result if the rule
  /// aggregates, else the condition field; silence duration in seconds
  /// for stale fires).
  double observed = 0.0;
  bool stale = false;
};

enum class NodeKind : std::uint8_t { Condition, Aggregate, Hold, Cooldown };
[[nodiscard]] std::string_view node_kind_name(NodeKind k);

struct NodeCounters {
  NodeKind kind = NodeKind::Condition;
  std::uint64_t evaluated = 0;
  std::uint64_t passed = 0;
};

class Engine {
 public:
  explicit Engine(std::vector<RuleSpec> specs);

  using FireCallback = std::function<void(const Fire&)>;
  void set_fire_callback(FireCallback cb) { on_fire_ = std::move(cb); }

  /// Feed one decoded gateway message (convenience over on_reading). Its
  /// Value is the payload read as little-endian unsigned: u16le when the
  /// payload has >= 2 bytes, the single byte when it has 1, none when it
  /// is empty.
  void on_message(const core::Message& message, double rssi_dbm, TimePoint at);
  void on_reading(const Reading& reading);

  /// Staleness sweep: fire stale_after rules for devices gone quiet.
  /// Call periodically on the simulated clock.
  void poll(TimePoint now);

  [[nodiscard]] std::uint64_t fired_total() const { return fired_total_; }
  [[nodiscard]] std::uint64_t fired(std::string_view rule) const;
  [[nodiscard]] const std::vector<NodeCounters>& nodes(std::string_view rule) const;

  /// Bind `<prefix>.fired` plus per-rule and per-node counters
  /// (canonically prefix = "rules").
  void publish_metrics(telemetry::MetricsRegistry& registry,
                       const std::string& prefix) const;

 private:
  /// (timestamp us, value) pairs inside an aggregate window, oldest
  /// first: a power-of-two ring that allocates at its first sample and
  /// doubles when full. Push and pop are amortised O(1).
  class Window {
   public:
    using Sample = std::pair<std::int64_t, double>;

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// The i-th oldest sample.
    [[nodiscard]] const Sample& operator[](std::size_t i) const {
      return ring_[(head_ + i) & (capacity_ - 1)];
    }
    void push_back(const Sample& sample);
    void pop_front() {
      head_ = (head_ + 1) & (capacity_ - 1);
      --size_;
    }

   private:
    std::unique_ptr<Sample[]> ring_;
    std::uint32_t capacity_ = 0;  // 0 or a power of two
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
  };

  /// Per-(rule, device) evaluation state. Every slot of a rule's table
  /// holds one, empty slots included, so it holds no heap until its
  /// window stores a sample.
  struct DevState {
    TimePoint hold_since;
    TimePoint last_fire;
    TimePoint last_seen;
    Window window;
    bool holding = false;
    bool fired_once = false;
    bool seen = false;
    bool stale_fired = false;
  };

  struct Rule {
    RuleSpec spec;
    std::vector<NodeCounters> nodes;  // in chain order
    int condition_node = -1;          // indices into `nodes`, -1 = absent
    int aggregate_node = -1;
    int hold_node = -1;
    int cooldown_node = -1;
    std::uint64_t fired = 0;
    util::FlatTable<DevState> per_device;
  };

  void evaluate(Rule& rule, const Reading& reading);
  void emit(Rule& rule, std::uint32_t device_id, TimePoint at, double observed,
            bool stale);
  [[nodiscard]] static bool compare(double lhs, Cmp cmp, double rhs);

  std::vector<Rule> rules_;
  FireCallback on_fire_;
  std::uint64_t fired_total_ = 0;
};

}  // namespace wile::rules
