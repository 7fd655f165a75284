#include "telemetry/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <span>

namespace wile::telemetry {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_f64(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_key(std::string& out, std::string_view key) {
  out.push_back('"');
  append_escaped(out, key);
  out += "\": ";
}

/// The key of `m`: its whole name, or below its node just
/// "<component>.<suffix>".
void append_key(std::string& out, const Metric& m, bool below_node) {
  out.push_back('"');
  if (m.per_node() && !below_node) {
    out += "node.";
    append_u64(out, m.node());
    out.push_back('.');
  }
  append_escaped(out, m.head());
  if (!m.tail().empty()) {
    out.push_back('.');
    append_escaped(out, m.tail());
  }
  out += "\": ";
}

void append_metric_value(std::string& out, const Metric& m) {
  if (m.kind() == MetricKind::Counter) {
    append_u64(out, m.counter());
  } else {
    append_f64(out, m.gauge());
  }
}

void append_histogram(std::string& out, const Histogram& h) {
  out += "{\"count\": ";
  append_u64(out, h.count);
  out += ", \"sum\": ";
  append_u64(out, h.sum);
  out += ", \"min\": ";
  append_u64(out, h.min);
  out += ", \"max\": ";
  append_u64(out, h.max);
  out += ", \"mean\": ";
  append_f64(out, h.mean());
  out += ", \"buckets\": {";
  bool first = true;
  const std::span<const std::uint64_t> span = h.span();
  for (std::size_t i = 0; i < span.size(); ++i) {
    if (span[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out.push_back('"');
    append_u64(out, h.first_bucket() + i);
    out += "\": ";
    append_u64(out, span[i]);
  }
  out += "}}";
}

/// A sample's counters and gauges, keyed by name.
void append_sample_metrics(std::string& out, const Snapshot& s) {
  out.push_back('{');
  bool first = true;
  for (const MetricValue& v : s.values) {
    if (!first) out += ", ";
    first = false;
    append_key(out, v.name);
    if (v.kind == MetricKind::Counter) {
      append_u64(out, v.count);
    } else {
      append_f64(out, v.value);
    }
  }
  out.push_back('}');
}

}  // namespace

std::string to_json(const MetricsRegistry& registry, TimePoint at,
                    const std::vector<Snapshot>& samples, const ExportMeta& meta,
                    const Tracer* tracer, bool include_trace_events) {
  std::string out;
  out.reserve(4096 + registry.size() * 48);
  out += "{\n  \"schema\": \"wile-telemetry-v1\",\n  \"bench\": \"";
  append_escaped(out, meta.bench);
  out += "\",\n  \"sim_time_us\": ";
  append_i64(out, at.us());
  out += ",\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta.ints) {
    if (!first) out += ", ";
    first = false;
    append_key(out, k);
    append_i64(out, v);
  }
  for (const auto& [k, v] : meta.doubles) {
    if (!first) out += ", ";
    first = false;
    append_key(out, k);
    append_f64(out, v);
  }
  out += "},\n  \"aggregates\": {";
  first = true;
  registry.for_each_aggregate([&out, &first](const Metric& m) {
    if (m.kind() == MetricKind::HistogramKind) return;  // own section
    if (!first) out += ", ";
    first = false;
    append_key(out, m, /*below_node=*/false);
    append_metric_value(out, m);
  });

  out += "},\n  \"histograms\": {";
  first = true;
  registry.for_each([&out, &first](const Metric& m) {
    if (m.kind() != MetricKind::HistogramKind) return;
    if (!first) out += ", ";
    first = false;
    append_key(out, m, /*below_node=*/false);
    append_histogram(out, m.histogram());
  });
  out += "},\n  \"nodes\": [";

  // The registry hands each node's values over together, nodes in
  // first-appearance order (registration attaches nodes in ascending id
  // order) and, within a node, in registration order.
  bool any_node = false;
  bool first_metric = true;
  std::uint32_t node = 0;
  registry.for_each_node_value([&](const Metric& m) {
    if (!any_node || m.node() != node) {
      if (any_node) out += "}},";
      any_node = true;
      node = m.node();
      out += "\n    {\"node\": ";
      append_u64(out, node);
      out += ", \"metrics\": {";
      first_metric = true;
    }
    if (!first_metric) out += ", ";
    first_metric = false;
    append_key(out, m, /*below_node=*/true);
    append_metric_value(out, m);
  });
  if (any_node) out += "}}\n  ";
  out += "],\n  \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n    {\"t_us\": ";
    append_i64(out, samples[i].at.us());
    out += ", \"metrics\": ";
    append_sample_metrics(out, samples[i]);
    out += "}";
  }
  if (!samples.empty()) out += "\n  ";
  out += "],\n  \"trace\": {\"recorded\": ";
  append_u64(out, tracer != nullptr ? tracer->events().size() : 0);
  out += ", \"dropped\": ";
  append_u64(out, tracer != nullptr ? tracer->dropped() : 0);
  if (tracer != nullptr && include_trace_events) {
    out += ", \"events\": [";
    for (std::size_t i = 0; i < tracer->events().size(); ++i) {
      const TraceEvent& e = tracer->events()[i];
      if (i != 0) out += ", ";
      out += "{\"t_us\": ";
      append_i64(out, e.at_us);
      out += ", \"node\": ";
      append_u64(out, e.node);
      out += ", \"phase\": \"";
      out += phase_name(e.phase);
      out += "\", \"kind\": \"";
      out += e.kind == TraceEventKind::Begin
                 ? "begin"
                 : (e.kind == TraceEventKind::End ? "end" : "instant");
      out += "\"}";
    }
    out += "]";
  }
  out += "}\n}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace wile::telemetry
