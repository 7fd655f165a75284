// Registry serialization: the BENCH_*.json telemetry schema.
//
// The JSON schema ("wile-telemetry-v1", checked in CI by
// tools/check_bench_schema.py) serializes every metric of a registry,
// read at one instant:
//
//   {
//     "schema": "wile-telemetry-v1",
//     "bench": "<name>",
//     "sim_time_us": <final snapshot clock>,
//     "meta": { ... caller-supplied run parameters ... },
//     "aggregates": { "<metric>": <int|float>, ... },   // non-node metrics
//     "histograms": { "<metric>": {"count","sum","min","max","mean",
//                                  "buckets": {"<log2 bucket>": n}} },
//     "nodes": [ {"node": <id>, "metrics": { "<suffix>": <value> }} ],
//     "samples": [ {"t_us": <t>, "metrics": { ... }} ],
//     "trace": {"recorded": n, "dropped": n [, "events": [...]]}
//   }
//
// Formatting is deterministic: metrics appear in registration order,
// integers as integers, doubles via %.17g (round-trip exact), so two
// same-seed runs export byte-identical files — pinned by
// tests/test_telemetry.cpp and the scenario exports in tests/golden/.
// Names are written piece by piece as they are formatted; no per-node
// name is ever built.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace wile::telemetry {

/// Caller-supplied run parameters, emitted under "meta".
struct ExportMeta {
  std::string bench;
  std::vector<std::pair<std::string, std::int64_t>> ints;
  std::vector<std::pair<std::string, double>> doubles;
};

/// Serialize every metric of `registry`, read now and stamped with the
/// simulated time `at` (+ optional time-series samples and trace), to
/// the wile-telemetry-v1 JSON document.
[[nodiscard]] std::string to_json(const MetricsRegistry& registry, TimePoint at,
                                  const std::vector<Snapshot>& samples,
                                  const ExportMeta& meta,
                                  const Tracer* tracer = nullptr,
                                  bool include_trace_events = false);

/// Write `content` to `path`; false (with errno intact) on failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace wile::telemetry
