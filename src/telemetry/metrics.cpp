#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace wile::telemetry {

namespace {

// A closure is bound as a one-row schema whose object is the closure.
const Row kCounterFnRow = counter<std::function<std::uint64_t()>>(
    "", [](const std::function<std::uint64_t()>& fn) { return fn(); });
const Row kGaugeFnRow =
    gauge<std::function<double()>>("", [](const std::function<double()>& fn) { return fn(); });
const Schema kCounterFn{"", {&kCounterFnRow, 1}};
const Schema kGaugeFn{"", {&kGaugeFnRow, 1}};

constexpr std::size_t kMaxRows = 32;  // the bound-row masks are 32 bits

/// True when `name` is "<head>", for an empty tail, or "<head>.<tail>".
bool spells(std::string_view name, std::string_view head, std::string_view tail) {
  if (tail.empty()) return name == head;
  return name.size() == head.size() + 1 + tail.size() && name.starts_with(head) &&
         name[head.size()] == '.' && name.ends_with(tail);
}

std::string joined(std::string_view head, std::string_view tail) {
  std::string out{head};
  if (!tail.empty()) {
    out.push_back('.');
    out += tail;
  }
  return out;
}

[[noreturn]] void duplicate(const std::string& name) {
  throw std::logic_error("MetricsRegistry: duplicate metric name: " + name);
}

}  // namespace

void Histogram::widen(std::size_t k) {
  const std::size_t first = size_ == 0 ? k : std::min<std::size_t>(first_, k);
  const std::size_t last = size_ == 0 ? k : std::max<std::size_t>(first_ + size_ - 1, k);
  auto span = std::make_unique<std::uint64_t[]>(last - first + 1);
  if (size_ != 0) std::copy_n(span_.get(), size_, span.get() + (first_ - first));
  span_ = std::move(span);
  first_ = static_cast<std::uint8_t>(first);
  size_ = static_cast<std::uint8_t>(last - first + 1);
}

std::string Metric::name() const {
  if (!per_node_) return joined(head_, tail());
  return "node." + std::to_string(node_) + "." + joined(head_, tail());
}

const Histogram& Metric::histogram() const {
  static const Histogram kEmpty;
  const Histogram* h = row_->histogram(object_);
  return h != nullptr ? *h : kEmpty;
}

const MetricValue* Snapshot::find(std::string_view name) const {
  for (const MetricValue& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

std::uint32_t MetricsRegistry::bound_rows(const Schema& schema, const void* object) {
  if (schema.rows.size() > kMaxRows) {
    throw std::logic_error("MetricsRegistry: a schema has at most 32 rows");
  }
  std::uint32_t rows = 0;
  for (std::size_t i = 0; i < schema.rows.size(); ++i) {
    const Row& row = schema.rows[i];
    if (row.has == nullptr || row.has(object)) rows |= std::uint32_t{1} << i;
  }
  return rows;
}

bool MetricsRegistry::aggregate_exists(std::string_view name) const {
  for (const Aggregate& a : aggregates_) {
    for (std::size_t i = 0; i < a.schema->rows.size(); ++i) {
      if ((a.rows >> i & 1) != 0 && spells(name, a.name, a.schema->rows[i].suffix)) return true;
    }
  }
  return false;
}

MetricsRegistry::Aggregate& MetricsRegistry::add_aggregate(std::string name,
                                                           const Schema& schema,
                                                           const void* object) {
  const std::uint32_t rows = bound_rows(schema, object);
  for (std::size_t i = 0; i < schema.rows.size(); ++i) {
    if ((rows >> i & 1) == 0) continue;
    const std::string full = joined(name, schema.rows[i].suffix);
    if (aggregate_exists(full)) duplicate(full);
  }
  Aggregate& a = aggregates_.emplace_back();
  a.name = std::move(name);
  a.schema = &schema;
  a.object = object;
  a.rows = rows;
  a.nodes_before = nodes_.size();
  size_ += static_cast<std::size_t>(std::popcount(rows));
  return a;
}

void MetricsRegistry::bind_counter_fn(std::string name, std::function<std::uint64_t()> fn) {
  Aggregate& a = add_aggregate(std::move(name), kCounterFn, nullptr);
  a.counter_fn = std::move(fn);
  a.object = &a.counter_fn;
}

void MetricsRegistry::bind_gauge_fn(std::string name, std::function<double()> fn) {
  Aggregate& a = add_aggregate(std::move(name), kGaugeFn, nullptr);
  a.gauge_fn = std::move(fn);
  a.object = &a.gauge_fn;
}

void MetricsRegistry::bind_group(std::string prefix, const Schema& schema, const void* object) {
  add_aggregate(std::move(prefix), schema, object);
}

void MetricsRegistry::bind_node(std::uint32_t node, const Schema& schema, const void* object) {
  const std::uint32_t rows = bound_rows(schema, object);
  auto c = std::find_if(components_.begin(), components_.end(),
                        [&schema](const Component& k) { return k.name == schema.component; });
  if (c == components_.end()) {
    components_.push_back({schema.component, node});
  } else if (node > c->max_node) {
    c->max_node = node;
  } else {
    for (const Node& n : nodes_) {
      if (n.node == node && n.schema->component == schema.component) {
        duplicate("node." + std::to_string(node) + "." + std::string(schema.component));
      }
    }
  }
  nodes_.push_back({node, rows, &schema, object});
  size_ += static_cast<std::size_t>(std::popcount(rows));
}

Histogram* MetricsRegistry::make_histogram() { return &histograms_.emplace_back(); }

void MetricsRegistry::visit(const Schema& schema, std::uint32_t rows, const void* object,
                            std::string_view head, const std::uint32_t* node,
                            const Visitor& fn) {
  Metric m;
  m.object_ = object;
  m.head_ = head;
  m.per_node_ = node != nullptr;
  m.node_ = node != nullptr ? *node : 0;
  for (std::size_t i = 0; i < schema.rows.size(); ++i) {
    if ((rows >> i & 1) == 0) continue;
    m.row_ = &schema.rows[i];
    fn(m);
  }
}

void MetricsRegistry::for_each(const Visitor& fn) const {
  std::size_t next = 0;  // the next node entry
  const auto visit_nodes_until = [&](std::size_t end) {
    for (; next < end; ++next) {
      const Node& n = nodes_[next];
      visit(*n.schema, n.rows, n.object, n.schema->component, &n.node, fn);
    }
  };
  for (const Aggregate& a : aggregates_) {
    visit_nodes_until(a.nodes_before);
    visit(*a.schema, a.rows, a.object, a.name, nullptr, fn);
  }
  visit_nodes_until(nodes_.size());
}

void MetricsRegistry::for_each_aggregate(const Visitor& fn) const {
  for (const Aggregate& a : aggregates_) visit(*a.schema, a.rows, a.object, a.name, nullptr, fn);
}

void MetricsRegistry::for_each_node_value(const Visitor& fn) const {
  // (node, entry index) of every entry with a counter or gauge.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  order.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    for (std::size_t r = 0; r < n.schema->rows.size(); ++r) {
      if ((n.rows >> r & 1) != 0 && n.schema->rows[r].kind != MetricKind::HistogramKind) {
        order.emplace_back(n.node, static_cast<std::uint32_t>(i));
        break;
      }
    }
  }
  // Group each node's entries, then key every entry by its node's first
  // entry instead of its id: sorted again, the nodes come in
  // first-appearance order and each node's entries in registration order.
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    const auto [node, first] = order[i];
    for (; j < order.size() && order[j].first == node; ++j) order[j].first = first;
    i = j;
  }
  std::sort(order.begin(), order.end());

  const Visitor values_only = [&fn](const Metric& m) {
    if (m.kind() != MetricKind::HistogramKind) fn(m);
  };
  for (const auto& [first, entry] : order) {
    const Node& n = nodes_[entry];
    visit(*n.schema, n.rows, n.object, n.schema->component, &n.node, values_only);
  }
}

namespace {

MetricValue value_of(const Metric& m) {
  MetricValue v;
  v.name = m.name();
  v.kind = m.kind();
  if (m.kind() == MetricKind::Counter) {
    v.count = m.counter();
  } else {
    v.value = m.gauge();
  }
  return v;
}

}  // namespace

Snapshot MetricsRegistry::snapshot(TimePoint at) const {
  Snapshot s;
  s.at = at;
  s.values.reserve(size_);
  for_each([&s](const Metric& m) {
    if (m.kind() != MetricKind::HistogramKind) s.values.push_back(value_of(m));
  });
  return s;
}

Snapshot MetricsRegistry::aggregate_snapshot(TimePoint at) const {
  Snapshot s;
  s.at = at;
  for_each_aggregate([&s](const Metric& m) {
    if (m.kind() != MetricKind::HistogramKind) s.values.push_back(value_of(m));
  });
  return s;
}

}  // namespace wile::telemetry
