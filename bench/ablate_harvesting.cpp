// Harvesting feasibility frontier: distance-from-AP vs. report rate.
//
// BEH and "Powering the Next Billion Devices with Wi-Fi" (PAPERS.md)
// power beacon-class senders from ambient RF; how often such a device
// can report is set by how much power its rectenna pulls out of the
// air, which falls off with the same log-distance path loss the data
// channel uses. This bench sweeps the sender's distance from a 30 dBm
// RF source and measures the achieved report rate of a
// harvesting-class sender (power::Harvester + the Sender's
// EnergyGovernor wake gate):
//
//   * close in, the capacitor refills faster than the duty cycle
//     spends it — every wake runs, rate == the configured period;
//   * further out the wake gate starts skipping cycles to let charge
//     build — the rate degrades smoothly, not by mid-cycle death;
//   * past the feasibility edge the harvest cannot even cover sleep
//     current + leakage, and the device lives only off its initial
//     stored charge — the BEH cliff.
//
// Every distance runs twice with the same seeds; the digests of the
// delivered/medium/energy counters must match (determinism oracle).
// The frontier must be monotone: report rate never increases with
// distance. Both checks gate the exit code and are recorded in
// BENCH_ablate_harvesting.json for tools/check_bench_schema.py.
//
// Usage: ablate_harvesting [--quick] [--out PATH]
//   --quick   600 simulated seconds per run (CI-sized); default 3600
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "power/devices.hpp"
#include "power/harvester.hpp"
#include "util/fnv1a.hpp"
#include "wile/scenario.hpp"

using namespace wile;

namespace {

const Duration kPeriod = seconds(5);

struct RunResult {
  double distance_m = 0.0;
  double harvest_uw = 0.0;
  std::uint64_t cycles_run = 0;
  std::uint64_t cycles_skipped = 0;
  std::uint64_t brown_outs = 0;
  std::uint64_t cycles_resumed = 0;
  std::uint64_t messages = 0;
  double reports_per_hour = 0.0;
  std::uint64_t digest = 0;
};

RunResult run_once(double distance_m, int sim_seconds) {
  const phy::Channel channel{phy::ChannelConfig{}};
  const Watts harvest =
      power::rf_harvest_power(channel, /*source_tx_dbm=*/30.0, distance_m,
                              /*efficiency=*/0.3);

  core::HarvestingConfig harvesting;
  harvesting.harvester.capacitance_f = 1e-3;  // 1 mF: ~5.4 mJ at 3.3 V
  harvesting.harvester.initial_charge_fraction = 0.25;
  harvesting.harvester.harvest_power = harvest;
  harvesting.harvester.leakage = microwatts(0.1);
  harvesting.wake_margin = 1.1;
  harvesting.resume_margin = 1.5;

  auto scenario = sim::ScenarioBuilder{}
                      .devices(1)
                      .duty_cycle(kPeriod)
                      .wake_jitter(Duration{0})
                      .stagger_starts(false)
                      .harvesting(harvesting)
                      .configure_sender([](core::SenderConfig& cfg, int) {
                        cfg.power = power::harvesting_class_profile();
                      })
                      .place_gateway([](int) { return sim::Position{2, 0}; })
                      .payload([] { return Bytes(16, 0x42); }())
                      .build();

  scenario->run_until(TimePoint{seconds(sim_seconds)});
  scenario->stop_all();
  scenario->run_for(seconds(1));

  const core::Sender& dev = *scenario->devices().front();
  RunResult r;
  r.distance_m = distance_m;
  r.harvest_uw = in_microwatts(harvest);
  r.cycles_run = dev.cycles_run();
  r.cycles_skipped = dev.cycles_skipped_energy();
  r.brown_outs = dev.brown_outs();
  r.cycles_resumed = dev.cycles_resumed();
  r.messages = scenario->messages();
  r.reports_per_hour =
      3600.0 * static_cast<double>(r.messages) / static_cast<double>(sim_seconds);

  // FNV-1a over the counters that must be seed-determined.
  util::Fnv1a d{util::Fnv1a::kTruncatedBasis};
  d.add(r.cycles_run);
  d.add(r.cycles_skipped);
  d.add(r.brown_outs);
  d.add(r.cycles_resumed);
  d.add(r.messages);
  d.add(dev.beacons_sent());
  d.add(scenario->medium().stats().transmissions);
  d.add(scenario->medium().stats().deliveries);
  d.add(scenario->scheduler().events_run());
  r.digest = d.value();
  return r;
}

void write_json(const std::vector<RunResult>& rows, int sim_seconds, bool quick,
                bool monotone, bool deterministic, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("ablate_harvesting: fopen");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ablate_harvesting\",\n  \"quick\": %s,\n"
               "  \"sim_seconds\": %d,\n  \"period_seconds\": %lld,\n"
               "  \"source_tx_dbm\": 30.0,\n  \"rectenna_efficiency\": 0.3,\n"
               "  \"runs\": [\n",
               quick ? "true" : "false", sim_seconds,
               static_cast<long long>(kPeriod.count() / 1'000'000));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::fprintf(f,
                 "    {\"distance_m\": %.2f, \"harvest_uw\": %.3f,\n"
                 "     \"cycles_run\": %llu, \"cycles_skipped\": %llu,\n"
                 "     \"brown_outs\": %llu, \"cycles_resumed\": %llu,\n"
                 "     \"messages\": %llu, \"reports_per_hour\": %.1f,\n"
                 "     \"digest\": \"%016llx\"}%s\n",
                 r.distance_m, r.harvest_uw,
                 static_cast<unsigned long long>(r.cycles_run),
                 static_cast<unsigned long long>(r.cycles_skipped),
                 static_cast<unsigned long long>(r.brown_outs),
                 static_cast<unsigned long long>(r.cycles_resumed),
                 static_cast<unsigned long long>(r.messages), r.reports_per_hour,
                 static_cast<unsigned long long>(r.digest),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"monotone_frontier\": %s,\n  \"determinism_ok\": %s\n}\n",
               monotone ? "true" : "false", deterministic ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_ablate_harvesting.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  const int sim_seconds = quick ? 600 : 3600;
  const double distances[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0};

  std::printf("=== harvesting feasibility frontier (distance vs report rate) ===\n");
  std::printf("    30 dBm source, eta=0.3 rectenna, 1 mF cap, %llds period, %ds sim%s\n\n",
              static_cast<long long>(kPeriod.count() / 1'000'000), sim_seconds,
              quick ? " [quick]" : "");
  std::printf("  %-6s | %-11s | %-7s | %-8s | %-7s | %-8s | %-9s\n", "dist", "harvest",
              "cycles", "skipped", "brnouts", "messages", "rep/hour");
  std::printf("  -------+-------------+---------+----------+---------+----------+----------\n");

  std::vector<RunResult> rows;
  bool deterministic = true;
  for (const double d : distances) {
    RunResult r = run_once(d, sim_seconds);
    const RunResult replay = run_once(d, sim_seconds);
    if (replay.digest != r.digest) deterministic = false;
    rows.push_back(r);
    std::printf("  %4.1fm | %8.3f uW | %7llu | %8llu | %7llu | %8llu | %8.1f\n", d,
                r.harvest_uw, static_cast<unsigned long long>(r.cycles_run),
                static_cast<unsigned long long>(r.cycles_skipped),
                static_cast<unsigned long long>(r.brown_outs),
                static_cast<unsigned long long>(r.messages), r.reports_per_hour);
  }

  // The frontier: moving away from the source never raises the rate.
  bool monotone = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].reports_per_hour > rows[i - 1].reports_per_hour) monotone = false;
  }
  // And it must actually be a frontier, not a flat line: the nearest
  // point must beat the farthest.
  const bool degrades = rows.front().reports_per_hour > rows.back().reports_per_hour;

  write_json(rows, sim_seconds, quick, monotone && degrades, deterministic, out_path);
  std::printf("\nwrote %s\n", out_path.c_str());
  std::printf("  frontier %s, determinism %s\n",
              monotone && degrades ? "OK" : "MISMATCH", deterministic ? "OK" : "BROKEN");
  return (monotone && degrades && deterministic) ? 0 : 1;
}
