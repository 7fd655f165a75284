// Chaos soak: N seeded fault campaigns against Wi-LE fleets, with the
// full invariant catalog armed and minimal-repro shrinking on failure.
//
// Each campaign is drawn from a single seed over the whole fault
// vocabulary (AP outages, jammers, loss floors, per-device floors,
// clock-drift steps, brown-outs, harvest fades, RF droughts) and thrown
// at a harvesting FEC fleet while the InvariantMonitor sweeps the
// oracles: scheduler monotonicity, frame-buffer leak accounting,
// per-gateway sequence uniqueness and reassembler bounds, per-device
// sequence monotonicity and energy conservation. A violation triggers
// ddmin shrinking (fresh scenario per probe) and a replayable
// chaos_repro_<seed>.json; the soak's exit code and the
// zero-violations flag in BENCH_chaos_soak.json gate CI
// (tools/check_bench_schema.py).
//
// Campaign 0 additionally runs twice with identical seeds; digest
// mismatch fails the determinism oracle the same way a violation does.
//
// Usage: chaos_soak [--quick] [--campaigns N] [--seed-base N]
//                   [--shrink-budget N] [--out PATH]
//   --quick   32 campaigns, 30 s horizon, small fleets only (CI-sized);
//             default 200 campaigns, 120 s horizon, alternating
//             small/medium fleets
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "power/devices.hpp"
#include "power/harvester.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "util/fnv1a.hpp"
#include "wile/scenario.hpp"

using namespace wile;

namespace {

struct SoakOptions {
  bool quick = false;
  int campaigns = 200;
  std::uint64_t seed_base = 0xC7A05;
  std::size_t shrink_budget = 64;
  std::string out_path = "BENCH_chaos_soak.json";
};

struct FleetSpec {
  const char* label;
  int devices;
  Duration horizon;
};

/// Even seeds soak a small fleet, odd seeds a medium one; --quick keeps
/// everything small and short.
FleetSpec fleet_for(std::uint64_t seed, bool quick) {
  if (quick) return {"small-fleet", 6, seconds(30)};
  if (seed % 2 == 0) return {"small-fleet", 6, seconds(120)};
  return {"medium-fleet", 40, seconds(120)};
}

std::unique_ptr<sim::Scenario> build_fleet(const FleetSpec& spec,
                                           std::uint64_t seed) {
  core::HarvestingConfig harvesting;
  harvesting.harvester.capacitance_f = 1e-3;  // 1 mF: ~5.4 mJ at 3.3 V
  harvesting.harvester.initial_charge_fraction = 0.5;
  harvesting.harvester.harvest_power = microwatts(250);
  harvesting.harvester.leakage = microwatts(0.1);
  harvesting.wake_margin = 1.1;
  harvesting.resume_margin = 1.5;

  return sim::ScenarioBuilder{}
      .devices(spec.devices)
      .gateways(1)
      .grid_spacing_m(4.0)
      .duty_cycle(seconds(5))
      .seed(seed)
      .harvesting(harvesting)
      .configure_sender([](core::SenderConfig& cfg, int) {
        // The microwatt-budget platform ablate_harvesting measures: the
        // fleet browns out under droughts instead of coasting on an
        // ESP32-sized battery.
        cfg.power = power::harvesting_class_profile();
        // Cross-cycle FEC: recovery beacons are exactly the machinery a
        // brown-out resume can race, which is what we're hunting.
        cfg.redundancy.recovery_k = 4;
        cfg.redundancy.recovery_stride = 2;
      })
      .payload(Bytes(16, 0x42))
      .build();
}

struct CampaignResult {
  std::uint64_t seed = 0;
  const char* fleet = "";
  std::size_t generated = 0;
  std::size_t armed = 0;
  std::uint64_t violations = 0;
  sim::Violation first;  // valid when violations > 0
  std::uint64_t messages = 0;
  std::uint64_t digest = 0;
};

/// Run one campaign against a fresh fleet; `only` replaces the
/// generated campaign when non-null (shrink probes).
CampaignResult run_campaign(std::uint64_t seed, const SoakOptions& opt,
                            const sim::Campaign* only = nullptr) {
  const FleetSpec spec = fleet_for(seed, opt.quick);
  auto scenario = build_fleet(spec, seed);
  sim::InvariantMonitor monitor;
  scenario->attach_invariants(monitor);
  monitor.start(scenario->scheduler(), msec(250));

  sim::ChaosConfig config;
  config.horizon = spec.horizon;
  config.n_devices = spec.devices;
  const sim::Campaign campaign =
      only != nullptr ? *only : sim::generate_campaign(seed, config);

  CampaignResult result;
  result.seed = seed;
  result.fleet = spec.label;
  result.generated = campaign.actions.size();
  result.armed = sim::schedule_campaign(campaign, scenario->chaos_targets());

  scenario->run_until(TimePoint{spec.horizon});
  scenario->stop_all();
  scenario->run_for(seconds(2));  // drain in-flight cycles and unwinds
  monitor.run_checks(scenario->scheduler().now());
  monitor.stop();

  result.violations = monitor.stats().violations;
  if (!monitor.violations().empty()) result.first = monitor.violations().front();
  result.messages = scenario->messages();

  // FNV-1a over the counters that must be seed-determined.
  util::Fnv1a d{util::Fnv1a::kTruncatedBasis};
  d.add(result.messages);
  d.add(scenario->medium().stats().transmissions);
  d.add(scenario->medium().stats().deliveries);
  d.add(scenario->medium().stats().collision_losses);
  d.add(scenario->medium().stats().channel_losses);
  d.add(scenario->scheduler().events_run());
  d.add(monitor.stats().checks_run);
  d.add(monitor.stats().violations);
  result.digest = d.value();
  return result;
}

struct ShrinkRecord {
  std::uint64_t seed = 0;
  std::string invariant;
  std::size_t original_actions = 0;
  std::size_t minimal_actions = 0;
  std::size_t runs = 0;
  std::string repro_path;
};

/// Shrink a failing campaign to a minimal repro and write the repro
/// file. The predicate demands the *same invariant* re-fires, so the
/// minimal script reproduces the original failure, not just any noise.
ShrinkRecord shrink_and_write(std::uint64_t seed, const CampaignResult& failed,
                              const SoakOptions& opt) {
  const FleetSpec spec = fleet_for(seed, opt.quick);
  sim::ChaosConfig config;
  config.horizon = spec.horizon;
  config.n_devices = spec.devices;
  const sim::Campaign original = sim::generate_campaign(seed, config);

  const std::string invariant = failed.first.invariant;
  const sim::ShrinkResult shrunk = sim::shrink_campaign(
      original,
      [&](const sim::Campaign& candidate) {
        const CampaignResult probe = run_campaign(seed, opt, &candidate);
        return probe.violations > 0 && probe.first.invariant == invariant;
      },
      opt.shrink_budget);

  sim::ReproFile repro;
  repro.campaign = shrunk.minimal;
  repro.scenario = spec.label;
  repro.scenario_seed = seed;
  repro.invariant = failed.first.invariant;
  repro.detail = failed.first.detail;
  repro.violation_at_us = failed.first.at.us();
  repro.node = failed.first.node;

  ShrinkRecord record;
  record.seed = seed;
  record.invariant = failed.first.invariant;
  record.original_actions = shrunk.original_actions;
  record.minimal_actions = shrunk.minimal.actions.size();
  record.runs = shrunk.runs;
  record.repro_path = "chaos_repro_" + std::to_string(seed) + ".json";
  if (!sim::write_repro_file(record.repro_path, repro)) {
    std::fprintf(stderr, "chaos_soak: failed to write %s\n",
                 record.repro_path.c_str());
  }
  return record;
}

void write_json(const SoakOptions& opt, std::uint64_t faults_generated,
                std::uint64_t faults_armed, std::uint64_t violations,
                int campaigns_with_violations, bool determinism_ok,
                const std::vector<ShrinkRecord>& shrinks) {
  std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
  if (f == nullptr) {
    std::perror("chaos_soak: fopen");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"chaos_soak\",\n  \"quick\": %s,\n"
               "  \"campaigns\": %d,\n  \"seed_base\": %" PRIu64 ",\n"
               "  \"faults_generated\": %" PRIu64 ",\n"
               "  \"faults_armed\": %" PRIu64 ",\n"
               "  \"violations\": %" PRIu64 ",\n"
               "  \"campaigns_with_violations\": %d,\n"
               "  \"determinism_ok\": %s,\n  \"shrinks\": [\n",
               opt.quick ? "true" : "false", opt.campaigns, opt.seed_base,
               faults_generated, faults_armed, violations,
               campaigns_with_violations, determinism_ok ? "true" : "false");
  for (std::size_t i = 0; i < shrinks.size(); ++i) {
    const ShrinkRecord& s = shrinks[i];
    std::fprintf(f,
                 "    {\"seed\": %" PRIu64 ", \"invariant\": \"%s\", "
                 "\"original_actions\": %zu, \"minimal_actions\": %zu, "
                 "\"runs\": %zu, \"repro\": \"%s\"}%s\n",
                 s.seed, s.invariant.c_str(), s.original_actions,
                 s.minimal_actions, s.runs, s.repro_path.c_str(),
                 i + 1 < shrinks.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions opt;
  bool campaigns_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--campaigns") == 0 && i + 1 < argc) {
      opt.campaigns = std::atoi(argv[++i]);
      campaigns_set = true;
    } else if (std::strcmp(argv[i], "--seed-base") == 0 && i + 1 < argc) {
      opt.seed_base = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--shrink-budget") == 0 && i + 1 < argc) {
      opt.shrink_budget = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--campaigns N] [--seed-base N] "
                   "[--shrink-budget N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opt.quick && !campaigns_set) opt.campaigns = 32;

  std::printf("=== chaos soak: %d seeded campaigns (seed base 0x%" PRIx64 ")%s ===\n\n",
              opt.campaigns, opt.seed_base, opt.quick ? " [quick]" : "");

  std::uint64_t faults_generated = 0;
  std::uint64_t faults_armed = 0;
  std::uint64_t total_violations = 0;
  int campaigns_with_violations = 0;
  bool determinism_ok = true;
  std::vector<ShrinkRecord> shrinks;

  for (int i = 0; i < opt.campaigns; ++i) {
    const std::uint64_t seed = opt.seed_base + static_cast<std::uint64_t>(i);
    const CampaignResult r = run_campaign(seed, opt);
    faults_generated += r.generated;
    faults_armed += r.armed;
    total_violations += r.violations;

    if (i == 0) {
      const CampaignResult replay = run_campaign(seed, opt);
      if (replay.digest != r.digest) {
        determinism_ok = false;
        std::printf("  [%3d] seed %" PRIu64 ": DETERMINISM BROKEN "
                    "(digest %016" PRIx64 " vs %016" PRIx64 ")\n",
                    i, seed, r.digest, replay.digest);
      }
    }

    if (r.violations > 0) {
      ++campaigns_with_violations;
      std::printf("  [%3d] seed %" PRIu64 " (%s): %" PRIu64
                  " violation(s), first: %s — %s\n",
                  i, seed, r.fleet, r.violations, r.first.invariant.c_str(),
                  r.first.detail.c_str());
      shrinks.push_back(shrink_and_write(seed, r, opt));
      const ShrinkRecord& s = shrinks.back();
      std::printf("        shrunk %zu -> %zu action(s) in %zu run(s): %s\n",
                  s.original_actions, s.minimal_actions, s.runs,
                  s.repro_path.c_str());
    } else if ((i + 1) % 50 == 0 || i + 1 == opt.campaigns) {
      std::printf("  [%3d] ... clean through seed %" PRIu64 " (%s, %" PRIu64
                  " msgs, %zu faults)\n",
                  i, seed, r.fleet, r.messages, r.armed);
    }
  }

  write_json(opt, faults_generated, faults_armed, total_violations,
             campaigns_with_violations, determinism_ok, shrinks);

  std::printf("\nwrote %s\n", opt.out_path.c_str());
  std::printf("  %d campaigns, %" PRIu64 " faults armed, %" PRIu64
              " violations across %d campaign(s), determinism %s\n",
              opt.campaigns, faults_armed, total_violations,
              campaigns_with_violations, determinism_ok ? "OK" : "BROKEN");
  return (total_violations == 0 && determinism_ok) ? 0 : 1;
}
