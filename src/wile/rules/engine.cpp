#include "wile/rules/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace wile::rules {

std::string_view node_kind_name(NodeKind k) {
  switch (k) {
    case NodeKind::Condition: return "condition";
    case NodeKind::Aggregate: return "aggregate";
    case NodeKind::Hold: return "hold";
    case NodeKind::Cooldown: return "cooldown";
  }
  return "node";
}

Engine::Engine(std::vector<RuleSpec> specs) {
  rules_.reserve(specs.size());
  for (RuleSpec& spec : specs) {
    Rule rule;
    rule.spec = std::move(spec);
    auto add_node = [&rule](NodeKind kind) {
      rule.nodes.push_back(NodeCounters{kind, 0, 0});
      return static_cast<int>(rule.nodes.size()) - 1;
    };
    if (rule.spec.when) rule.condition_node = add_node(NodeKind::Condition);
    if (rule.spec.aggregate) rule.aggregate_node = add_node(NodeKind::Aggregate);
    if (rule.spec.hold.count() > 0) rule.hold_node = add_node(NodeKind::Hold);
    if (rule.spec.cooldown.count() > 0) rule.cooldown_node = add_node(NodeKind::Cooldown);
    rules_.push_back(std::move(rule));
  }
}

bool Engine::compare(double lhs, Cmp cmp, double rhs) {
  switch (cmp) {
    case Cmp::Lt: return lhs < rhs;
    case Cmp::Le: return lhs <= rhs;
    case Cmp::Gt: return lhs > rhs;
    case Cmp::Ge: return lhs >= rhs;
    case Cmp::Eq: return lhs == rhs;
    case Cmp::Ne: return lhs != rhs;
  }
  return false;
}

void Engine::on_message(const core::Message& message, double rssi_dbm, TimePoint at) {
  Reading reading;
  reading.device_id = message.device_id;
  reading.sequence = message.sequence;
  reading.type = message.type;
  reading.rssi_dbm = rssi_dbm;
  if (message.data.size() >= 2) {
    reading.value = static_cast<double>(
        message.data[0] | (static_cast<std::uint32_t>(message.data[1]) << 8));
  } else if (message.data.size() == 1) {
    reading.value = static_cast<double>(message.data[0]);
  }
  reading.at = at;
  on_reading(reading);
}

void Engine::on_reading(const Reading& reading) {
  for (Rule& rule : rules_) evaluate(rule, reading);
}

void Engine::evaluate(Rule& rule, const Reading& reading) {
  DevState& dev = rule.per_device.find_or_insert(reading.device_id);
  dev.last_seen = reading.at;
  dev.seen = true;
  dev.stale_fired = false;  // a fresh reading re-arms the staleness watchdog

  bool pass = true;
  // The value the final comparison sees; overwritten by the aggregate
  // node when present.
  double observed = reading.value.value_or(reading.rssi_dbm);

  if (rule.condition_node >= 0) {
    NodeCounters& node = rule.nodes[static_cast<std::size_t>(rule.condition_node)];
    ++node.evaluated;
    const ConditionSpec& cond = *rule.spec.when;
    std::optional<double> lhs;
    switch (cond.field) {
      case Field::Value: lhs = reading.value; break;
      case Field::RssiDbm: lhs = reading.rssi_dbm; break;
      case Field::DeviceId: lhs = static_cast<double>(reading.device_id); break;
      case Field::Sequence: lhs = static_cast<double>(reading.sequence); break;
    }
    pass = lhs.has_value() && compare(*lhs, cond.cmp, cond.rhs);
    if (pass) {
      ++node.passed;
      observed = *lhs;
    }
  }

  // The aggregate window accumulates only readings that cleared the
  // condition — "mean of the over-threshold samples", W4RPBLE-style.
  if (rule.aggregate_node >= 0 && pass) {
    NodeCounters& node = rule.nodes[static_cast<std::size_t>(rule.aggregate_node)];
    ++node.evaluated;
    const AggregateSpec& agg = *rule.spec.aggregate;
    const double sample =
        agg.op == AggOp::Count ? 1.0 : reading.value.value_or(observed);
    dev.window.emplace_back(reading.at.us(), sample);
    const std::int64_t horizon = reading.at.us() - agg.window.count();
    while (!dev.window.empty() && dev.window.front().first < horizon) {
      dev.window.pop_front();
    }
    double result = 0.0;
    switch (agg.op) {
      case AggOp::Count: result = static_cast<double>(dev.window.size()); break;
      case AggOp::Sum:
      case AggOp::Mean: {
        double sum = 0.0;
        for (const auto& [_, v] : dev.window) sum += v;
        result = agg.op == AggOp::Sum
                     ? sum
                     : sum / static_cast<double>(dev.window.size());
        break;
      }
      case AggOp::Min: {
        result = dev.window.front().second;
        for (const auto& [_, v] : dev.window) result = std::min(result, v);
        break;
      }
      case AggOp::Max: {
        result = dev.window.front().second;
        for (const auto& [_, v] : dev.window) result = std::max(result, v);
        break;
      }
    }
    observed = result;
    pass = compare(result, agg.cmp, agg.rhs);
    if (pass) ++node.passed;
  }

  // Hold sees every reading (a failure upstream must reset the streak),
  // unlike the short-circuited nodes around it.
  if (rule.hold_node >= 0) {
    NodeCounters& node = rule.nodes[static_cast<std::size_t>(rule.hold_node)];
    ++node.evaluated;
    if (pass) {
      if (!dev.holding) {
        dev.holding = true;
        dev.hold_since = reading.at;
      }
      pass = reading.at - dev.hold_since >= rule.spec.hold;
      if (pass) ++node.passed;
    } else {
      dev.holding = false;
    }
  }

  if (rule.cooldown_node >= 0 && pass) {
    NodeCounters& node = rule.nodes[static_cast<std::size_t>(rule.cooldown_node)];
    ++node.evaluated;
    pass = !dev.fired_once || reading.at - dev.last_fire >= rule.spec.cooldown;
    if (pass) ++node.passed;
  }

  if (pass && !rule.nodes.empty()) {
    dev.fired_once = true;
    dev.last_fire = reading.at;
    emit(rule, reading.device_id, reading.at, observed, /*stale=*/false);
  }
}

void Engine::poll(TimePoint now) {
  for (Rule& rule : rules_) {
    if (!rule.spec.stale_after) continue;
    const Duration stale_after = *rule.spec.stale_after;
    rule.per_device.for_each([&](std::uint32_t device_id, DevState& dev) {
      if (!dev.seen || dev.stale_fired) return;
      const Duration silence = now - dev.last_seen;
      if (silence < stale_after) return;
      dev.stale_fired = true;  // once per silence; the next reading re-arms
      emit(rule, device_id, now, to_seconds(silence), /*stale=*/true);
    });
  }
}

void Engine::emit(Rule& rule, std::uint32_t device_id, TimePoint at, double observed,
                  bool stale) {
  ++rule.fired;
  ++fired_total_;
  if (on_fire_) on_fire_(Fire{rule.spec.name, device_id, at, observed, stale});
}

std::uint64_t Engine::fired(std::string_view rule) const {
  for (const Rule& r : rules_) {
    if (r.spec.name == rule) return r.fired;
  }
  throw std::out_of_range("rules::Engine: unknown rule");
}

const std::vector<NodeCounters>& Engine::nodes(std::string_view rule) const {
  for (const Rule& r : rules_) {
    if (r.spec.name == rule) return r.nodes;
  }
  throw std::out_of_range("rules::Engine: unknown rule");
}

void Engine::publish_metrics(telemetry::MetricsRegistry& registry,
                             const std::string& prefix) const {
  using E = Engine;
  static constexpr telemetry::Row kEngineRows[] = {
      telemetry::counter<E>("fired", [](const E& e) { return e.fired_total_; }),
  };
  static constexpr telemetry::Schema kEngine{"rules", kEngineRows};
  static constexpr telemetry::Row kRuleRows[] = {
      telemetry::counter<Rule>("fired", [](const Rule& r) { return r.fired; }),
  };
  static constexpr telemetry::Schema kRule{"rule", kRuleRows};
  static constexpr telemetry::Row kNodeRows[] = {
      telemetry::counter<NodeCounters>("evaluated",
                                       [](const NodeCounters& n) { return n.evaluated; }),
      telemetry::counter<NodeCounters>("passed", [](const NodeCounters& n) { return n.passed; }),
  };
  static constexpr telemetry::Schema kNode{"rule_node", kNodeRows};

  registry.bind_group(prefix, kEngine, this);
  for (const Rule& rule : rules_) {
    const std::string base = prefix + "." + rule.spec.name;
    registry.bind_group(base, kRule, &rule);
    for (const NodeCounters& node : rule.nodes) {
      registry.bind_group(base + "." + std::string(node_kind_name(node.kind)), kNode, &node);
    }
  }
}

}  // namespace wile::rules
