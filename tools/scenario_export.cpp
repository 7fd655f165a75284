// scenario_export — the wile-telemetry-v1 export of one small fixed scenario.
//
// Each scenario is built, run and exported exactly the same way on every
// run, so the JSON it writes is a byte-for-byte record of what the
// telemetry pipeline exports: every metric name, value and section in
// order. Between them the four scenarios publish the metrics of every
// component that has any, on both engines:
//
//   serial      Wi-LE fleet on the serial engine with per-node metrics:
//               harvesting and FEC devices (through configure_sender), a
//               rules chain, a periodic sampler, and a fault schedule set
//               up after build(), so the fault aggregates register after
//               the fleet's per-node metrics;
//   hand_wired  the examples' nodes built beside a scenario fleet: an AP
//               under node.<id>.ap, a bridging Gateway under "gateway"
//               (with its monitor receiver and its station) and a
//               two-way Controller under node.<id>.controller;
//   wur         an 802.11ba wake-up fleet (per-device wur.* metrics and
//               the AP wake scheduler's aggregates);
//   sharded     a fleet on the sharded engine with per-node metrics, on
//               one worker thread: parallel.shard<k>.barrier_stalls counts
//               how often a worker waited at the window barrier, which
//               with two threads depends on the host's scheduling.
//
// Usage: scenario_export <serial|hand_wired|wur|sharded> --out <file>
// Prints the registry's metric count and the export's size; the export
// itself goes to <file>.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ap/access_point.hpp"
#include "wile/controller.hpp"
#include "wile/gateway.hpp"
#include "wile/scenario.hpp"

using namespace wile;

namespace {

struct Export {
  std::size_t metrics = 0;  // MetricsRegistry::size() at export time
  std::string json;
};

Export export_of(sim::Scenario& scenario, const char* bench) {
  telemetry::ExportMeta meta;
  meta.bench = bench;
  return {scenario.metrics().size(), scenario.export_json(meta)};
}

std::vector<rules::RuleSpec> rule_chain() {
  std::vector<rules::RuleSpec> specs(3);
  specs[0].name = "hot-held";
  specs[0].when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 30000.0};
  specs[0].hold = seconds(10);
  specs[1].name = "burst";
  specs[1].aggregate =
      rules::AggregateSpec{rules::AggOp::Count, seconds(30), rules::Cmp::Ge, 4.0};
  specs[2].name = "weak-signal";
  specs[2].when = rules::ConditionSpec{rules::Field::RssiDbm, rules::Cmp::Lt, -60.0};
  specs[2].cooldown = seconds(60);
  return specs;
}

/// A 16-byte payload whose first two bytes (the rules' u16le value) vary
/// per device and cycle.
core::Sender::PayloadProvider varying_payload(int i) {
  return [i, cycle = std::uint32_t{0}]() mutable {
    Bytes b(16, static_cast<std::uint8_t>(i));
    const auto value = static_cast<std::uint16_t>((i * 7919u + cycle++ * 104729u) & 0xFFFF);
    b[0] = static_cast<std::uint8_t>(value & 0xFF);
    b[1] = static_cast<std::uint8_t>(value >> 8);
    return b;
  };
}

Export export_serial() {
  core::HarvestingConfig harvesting;
  harvesting.harvester.capacitance_f = 1e-3;
  harvesting.harvester.initial_charge_fraction = 0.25;
  harvesting.harvester.harvest_power = microwatts(200);
  harvesting.harvester.leakage = microwatts(0.1);
  harvesting.wake_margin = 1.1;
  auto scenario = sim::ScenarioBuilder{}
                      .devices(24)
                      .gateways(2)
                      .grid_spacing_m(3.0)
                      .duty_cycle(seconds(10))
                      .configure_sender([harvesting](core::SenderConfig& cfg, int i) {
                        if (i % 4 == 1) {
                          cfg.harvesting = harvesting;
                          cfg.power = power::harvesting_class_profile();
                        }
                        if (i % 6 == 2) cfg.redundancy.recovery_k = 4;
                      })
                      .payload_provider(varying_payload)
                      .rules(rule_chain())
                      .rules_poll_every(seconds(1))
                      .sample_every(seconds(20))
                      .build();
  // The first faults() call builds the injector and registers fault.*:
  // here, after the fleet's per-node metrics.
  sim::FaultInjector& faults = scenario->faults();
  faults.noise_floor_rise(TimePoint{seconds(15)}, seconds(10), 6.0);
  faults.brown_out_all(TimePoint{seconds(40)});
  faults.harvest_fade(TimePoint{seconds(50)}, seconds(20), 0.5);
  scenario->run_until(TimePoint{seconds(90)});
  return export_of(*scenario, "scenario_export_serial");
}

Export export_hand_wired() {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(4)
                      .gateways(1)
                      .duty_cycle(seconds(20))
                      .wake_jitter(msec(200))
                      .medium_seed(321)
                      .configure_sender([](core::SenderConfig& cfg, int i) {
                        cfg.device_id = 0x2000 + static_cast<std::uint32_t>(i);
                        if (i % 2 == 0) cfg.rx_window = core::RxWindow{msec(2), msec(20)};
                      })
                      .place_device([](int i) { return sim::Position{6.0 + i, 2.0}; })
                      .place_gateway([](int) { return sim::Position{7.0, 0.0}; })
                      .build();
  sim::Scheduler& scheduler = scenario->scheduler();

  ap::AccessPoint access_point{scheduler, scenario->medium(), {0, 0}, ap::AccessPointConfig{},
                               Rng{1}};
  access_point.set_uplink_handler(
      [](const MacAddress&, const net::Ipv4Header&, const net::UdpDatagram&) {});
  access_point.start();
  access_point.publish_metrics(scenario->metrics(), access_point.node_id());

  core::GatewayConfig gw_cfg;
  gw_cfg.station.mac = MacAddress::from_seed(0x6A7E);
  core::Gateway gateway{scheduler, scenario->medium(), {4, 0}, gw_cfg, Rng{2}};
  gateway.start([](bool) {});
  gateway.publish_metrics(scenario->metrics(), "gateway");

  core::Controller hub{scheduler, scenario->medium(), {6, 3}, core::ControllerConfig{}, Rng{3}};
  hub.publish_metrics(scenario->metrics(), hub.node_id());
  scheduler.schedule_at(TimePoint{seconds(30)},
                        [&hub] { hub.queue_downlink(0x2000, Bytes{1, 2}); });

  scenario->run_until(TimePoint{minutes(3)});
  return export_of(*scenario, "scenario_export_hand_wired");
}

Export export_wur() {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(16)
                      .gateways(1)
                      .grid_spacing_m(2.0)
                      .duty_cycle(seconds(10))
                      .wur(sim::WurFleetOptions{})
                      .build();
  scenario->run_until(TimePoint{seconds(60)});
  return export_of(*scenario, "scenario_export_wur");
}

Export export_sharded() {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(32)
                      .gateways(2)
                      .grid_spacing_m(4.0)
                      .duty_cycle(seconds(10))
                      .threads(1)  // barrier stalls count thread timing
                      .shards(4)
                      .build();
  scenario->run_until(TimePoint{seconds(60)});
  return export_of(*scenario, "scenario_export_sharded");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = nullptr;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  if (argc < 2 || out == nullptr) {
    std::fprintf(stderr, "usage: scenario_export <serial|hand_wired|wur|sharded> --out <file>\n");
    return 2;
  }
  const std::string_view name = argv[1];
  Export e;
  if (name == "serial") {
    e = export_serial();
  } else if (name == "hand_wired") {
    e = export_hand_wired();
  } else if (name == "wur") {
    e = export_wur();
  } else if (name == "sharded") {
    e = export_sharded();
  } else {
    std::fprintf(stderr, "scenario_export: unknown scenario %s\n", argv[1]);
    return 2;
  }
  if (!telemetry::write_file(out, e.json)) {
    std::fprintf(stderr, "scenario_export: cannot write %s\n", out);
    return 1;
  }
  std::printf("%s: %zu metrics, %zu bytes exported\n", argv[1], e.metrics, e.json.size());
  return 0;
}
