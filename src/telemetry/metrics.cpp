#include "telemetry/metrics.hpp"

#include <stdexcept>
#include <utility>

namespace wile::telemetry {

const MetricValue* Snapshot::find(std::string_view name) const {
  for (const MetricValue& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

void MetricsRegistry::add(Metric m) {
  if (index_.count(m.name) != 0) {
    throw std::logic_error("MetricsRegistry: duplicate metric name: " + m.name);
  }
  index_.emplace(m.name, metrics_.size());
  metrics_.push_back(std::move(m));
}

void MetricsRegistry::bind_counter(std::string name, const std::uint64_t* slot) {
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::Counter;
  m.u64_slot = slot;
  add(std::move(m));
}

void MetricsRegistry::bind_counter_fn(std::string name,
                                      std::function<std::uint64_t()> fn) {
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::Counter;
  m.u64_fn = std::move(fn);
  add(std::move(m));
}

void MetricsRegistry::bind_gauge_fn(std::string name, std::function<double()> fn) {
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::Gauge;
  m.f64_fn = std::move(fn);
  add(std::move(m));
}

Histogram* MetricsRegistry::histogram(std::string name) {
  if (auto it = index_.find(name); it != index_.end()) {
    Metric& existing = metrics_[it->second];
    if (existing.kind != MetricKind::HistogramKind) {
      throw std::logic_error("MetricsRegistry: " + name + " is not a histogram");
    }
    return existing.hist;
  }
  histograms_.emplace_back();
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::HistogramKind;
  m.hist = &histograms_.back();
  Histogram* slot = m.hist;
  add(std::move(m));
  return slot;
}

bool MetricsRegistry::contains(std::string_view name) const {
  return find_metric(name) != nullptr;
}

const MetricsRegistry::Metric* MetricsRegistry::find_metric(
    std::string_view name) const {
  auto it = index_.find(std::string{name});
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

MetricValue MetricsRegistry::read(const Metric& m) const {
  MetricValue v;
  v.name = m.name;
  v.kind = m.kind;
  switch (m.kind) {
    case MetricKind::Counter:
      v.count = m.u64_slot != nullptr ? *m.u64_slot : (m.u64_fn ? m.u64_fn() : 0);
      break;
    case MetricKind::Gauge:
      v.value = m.f64_fn ? m.f64_fn() : 0.0;
      break;
    case MetricKind::HistogramKind:
      v.histogram = *m.hist;
      break;
  }
  return v;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Metric* m = find_metric(name);
  if (m == nullptr || m->kind != MetricKind::Counter) return 0;
  return read(*m).count;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const Metric* m = find_metric(name);
  if (m == nullptr || m->kind != MetricKind::Gauge) return 0.0;
  return read(*m).value;
}

Snapshot MetricsRegistry::snapshot(TimePoint at) const {
  Snapshot s;
  s.at = at;
  s.values.reserve(metrics_.size());
  for (const Metric& m : metrics_) s.values.push_back(read(m));
  return s;
}

Snapshot MetricsRegistry::snapshot_filtered(
    TimePoint at, const std::function<bool(std::string_view)>& keep) const {
  Snapshot s;
  s.at = at;
  for (const Metric& m : metrics_) {
    if (keep(m.name)) s.values.push_back(read(m));
  }
  return s;
}

}  // namespace wile::telemetry
