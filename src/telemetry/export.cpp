#include "telemetry/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

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

void append_metric_value(std::string& out, const MetricValue& v) {
  if (v.kind == MetricKind::Counter) {
    append_u64(out, v.count);
  } else {
    append_f64(out, v.value);
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
  for (std::size_t k = 0; k < h.buckets.size(); ++k) {
    if (h.buckets[k] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out.push_back('"');
    append_u64(out, k);
    out += "\": ";
    append_u64(out, h.buckets[k]);
  }
  out += "}}";
}

/// Split "node.<id>.<suffix>" -> true + id + suffix; false otherwise.
bool split_node_metric(std::string_view name, std::uint64_t* id,
                       std::string_view* suffix) {
  constexpr std::string_view kPrefix = "node.";
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  const std::string_view rest = name.substr(kPrefix.size());
  const std::size_t dot = rest.find('.');
  if (dot == std::string_view::npos || dot == 0) return false;
  std::uint64_t value = 0;
  for (char c : rest.substr(0, dot)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id = value;
  *suffix = rest.substr(dot + 1);
  return true;
}

void append_metrics_object(std::string& out, const Snapshot& s, bool nodes) {
  out.push_back('{');
  bool first = true;
  std::uint64_t id = 0;
  std::string_view suffix;
  for (const MetricValue& v : s.values) {
    if (v.kind == MetricKind::HistogramKind) continue;  // own section
    if (split_node_metric(v.name, &id, &suffix) != nodes) continue;
    if (!first) out += ", ";
    first = false;
    append_key(out, v.name);
    append_metric_value(out, v);
  }
  out.push_back('}');
}

}  // namespace

std::string to_json(const Snapshot& snapshot, const std::vector<Snapshot>& samples,
                    const ExportMeta& meta, const Tracer* tracer,
                    bool include_trace_events) {
  std::string out;
  out.reserve(4096 + snapshot.values.size() * 48);
  out += "{\n  \"schema\": \"wile-telemetry-v1\",\n  \"bench\": \"";
  append_escaped(out, meta.bench);
  out += "\",\n  \"sim_time_us\": ";
  append_i64(out, snapshot.at.us());
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
  out += "},\n  \"aggregates\": ";
  {
    std::string agg;
    bool first_agg = true;
    std::uint64_t id = 0;
    std::string_view suffix;
    agg.push_back('{');
    for (const MetricValue& v : snapshot.values) {
      if (v.kind == MetricKind::HistogramKind) continue;
      if (split_node_metric(v.name, &id, &suffix)) continue;
      if (!first_agg) agg += ", ";
      first_agg = false;
      append_key(agg, v.name);
      append_metric_value(agg, v);
    }
    agg.push_back('}');
    out += agg;
  }

  out += ",\n  \"histograms\": {";
  first = true;
  for (const MetricValue& v : snapshot.values) {
    if (v.kind != MetricKind::HistogramKind) continue;
    if (!first) out += ", ";
    first = false;
    append_key(out, v.name);
    append_histogram(out, v.histogram);
  }
  out += "},\n  \"nodes\": [";

  // Group per-node metrics by id in one pass, preserving first-appearance
  // order (registration attaches nodes in ascending NodeId order) and,
  // within a node, snapshot order.
  {
    struct NodeMetrics {
      std::uint64_t id = 0;
      std::vector<std::pair<std::string_view, const MetricValue*>> metrics;
    };
    std::vector<NodeMetrics> nodes;
    std::unordered_map<std::uint64_t, std::size_t> slot_of;  // id -> index in nodes
    std::uint64_t id = 0;
    std::string_view suffix;
    for (const MetricValue& v : snapshot.values) {
      if (v.kind == MetricKind::HistogramKind) continue;
      if (!split_node_metric(v.name, &id, &suffix)) continue;
      const auto [it, added] = slot_of.try_emplace(id, nodes.size());
      if (added) nodes.push_back({id, {}});
      nodes[it->second].metrics.emplace_back(suffix, &v);
    }
    bool first_node = true;
    for (const NodeMetrics& node : nodes) {
      if (!first_node) out += ",";
      first_node = false;
      out += "\n    {\"node\": ";
      append_u64(out, node.id);
      out += ", \"metrics\": {";
      bool first_metric = true;
      for (const auto& [name, value] : node.metrics) {
        if (!first_metric) out += ", ";
        first_metric = false;
        append_key(out, name);
        append_metric_value(out, *value);
      }
      out += "}}";
    }
    if (!nodes.empty()) out += "\n  ";
  }
  out += "],\n  \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n    {\"t_us\": ";
    append_i64(out, samples[i].at.us());
    out += ", \"metrics\": ";
    append_metrics_object(out, samples[i], /*nodes=*/false);
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
