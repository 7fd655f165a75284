#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {

using namespace wile;

namespace {

// name, devices, spacing, period, gateway_every, sim s, threads, wur,
// rules, telemetry, timeline_max_segments
const std::array<Workload, 4> kWorkloads = {{
    {"fleet_serial", 100'000, 5.0, seconds(60), 2500, 600, 0, false, false, false, 64},
    {"fleet_sharded", 100'000, 5.0, seconds(60), 2500, 600, 2, false, false, false, 64},
    {"hall_wur", 1000, 0.5, seconds(10), 0, 120, 0, true, false, false, 16},
    {"telemetry_rules", 3000, 5.0, seconds(5), 100, 600, 0, false, true, true, 64},
}};

constexpr std::size_t kShards = 8;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Workload oracle_workload(unsigned threads) {
  Workload w = kWorkloads[0];
  w.name = threads > 0 ? "oracle_sharded" : "oracle_serial";
  w.devices = 10'000;
  w.threads = threads;
  return w;
}

std::vector<rules::RuleSpec> rule_chain() {
  std::vector<rules::RuleSpec> specs(3);
  specs[0].name = "hot-held";
  specs[0].when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 40000.0};
  specs[0].hold = seconds(10);
  specs[1].name = "burst";
  specs[1].aggregate =
      rules::AggregateSpec{rules::AggOp::Count, seconds(30), rules::Cmp::Ge, 8.0};
  specs[2].name = "weak-signal";
  specs[2].when = rules::ConditionSpec{rules::Field::RssiDbm, rules::Cmp::Lt, -85.0};
  specs[2].cooldown = seconds(60);
  return specs;
}

Bytes payload_for(std::uint64_t seed, int device, std::uint32_t cycle) {
  // 16 bytes like ScenarioBuilder's default payload; the first two are the
  // u16le sensor value the rules extractor reads.
  Bytes b(16);
  std::uint64_t h = splitmix64(seed ^ (static_cast<std::uint64_t>(device) << 32) ^ cycle);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i % 8 == 0 && i > 0) h = splitmix64(h);
    b[i] = static_cast<std::uint8_t>(h >> (8 * (i % 8)));
  }
  return b;
}

sim::ScenarioBuilder make_builder(const Workload& w, std::uint64_t seed, Probes* probes) {
  if (probes != nullptr) {
    probes->provider_calls.assign(static_cast<std::size_t>(w.devices), 0);
  }
  const std::uint64_t payload_seed = splitmix64(seed ^ 0x9A710ADull);
  sim::ScenarioBuilder b;
  b.devices(w.devices)
      .grid_spacing_m(w.spacing_m)
      .duty_cycle(w.period)
      .seed(splitmix64(seed ^ 0xF1EE7C0DEull))
      .medium_seed(splitmix64(seed ^ 0xF1EE7ull))
      .timeline_max_segments(w.timeline_max_segments)
      .telemetry(w.telemetry)
      .per_node_metrics(w.telemetry)
      .payload_provider([payload_seed, probes](int i) -> core::Sender::PayloadProvider {
        std::uint64_t* calls =
            probes != nullptr ? &probes->provider_calls[static_cast<std::size_t>(i)]
                              : nullptr;
        return [payload_seed, i, calls, cycle = std::uint32_t{0}]() mutable {
          if (calls != nullptr) ++*calls;
          return payload_for(payload_seed, i, cycle++);
        };
      });
  if (w.gateway_every > 0) {
    b.gateway_every(w.gateway_every);
  } else {
    b.gateways(1);
  }
  if (w.threads > 0) b.threads(w.threads).shards(kShards);
  if (w.wur) b.wur(sim::WurFleetOptions{});
  if (w.rules) b.rules(rule_chain()).rules_poll_every(seconds(1));
  if (w.telemetry) b.sample_every(seconds(10));
  if (probes != nullptr && probes->record_delivered) {
    b.on_message([probes](const core::Message& m, const core::RxMeta& meta) {
      rules::Reading r;
      r.device_id = m.device_id;
      r.sequence = m.sequence;
      r.type = m.type;
      r.rssi_dbm = meta.rssi_dbm;
      if (m.data.size() >= 2) r.value = static_cast<double>(m.data[0] | (m.data[1] << 8));
      r.at = meta.received_at;
      probes->delivered.push_back(r);
    });
  }
  return b;
}

std::vector<sim::Position> device_positions(const Workload& w) {
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(w.devices))));
  std::vector<sim::Position> out;
  out.reserve(static_cast<std::size_t>(w.devices));
  for (int i = 0; i < w.devices; ++i) {
    out.push_back({(i % side) * w.spacing_m, (i / side) * w.spacing_m});
  }
  return out;
}

std::vector<sim::Position> gateway_positions(const Workload& w) {
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(w.devices))));
  const double extent = side * w.spacing_m;
  const int n_gw = w.gateway_every > 0 ? std::max(1, w.devices / w.gateway_every) : 1;
  std::vector<sim::Position> out;
  for (int k = 0; k < n_gw; ++k) {
    const double c = (k + 0.5) * extent / n_gw;
    out.push_back({c, c});
  }
  return out;
}

}  // namespace perfbench
