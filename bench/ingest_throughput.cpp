// Gateway ingest throughput: batched drain vs the single-send drain,
// plus the CPU rate of flat-table dispatch and the rules engine.
//
// Three measured sections, one JSON verdict (tools/check_bench_schema.py
// gates the drain speedup and determinism):
//
// 1. DRAIN (the headline, simulated): a real AP + Gateway + sensor
//    fleet on the simulated medium, ingest saturated well past the
//    uplink's capacity. The gateway's power-save send cycle costs
//    ~155 ms of airtime/protocol per wake regardless of payload, so the
//    pre-PR one-reading-per-cycle drain caps at ~6 readings/s/gateway.
//    Batching batch_max readings per cycle multiplies sustained
//    frames/s/gateway by the achieved batch fill. Both configurations
//    run the SAME shipped Gateway code — batch_max=1 reproduces the
//    pre-PR single-send drain exactly (one record per datagram, one
//    send cycle per reading). speedup = sustained_fps(batch=16) /
//    sustained_fps(batch=1), gated >= 3x.
//
// 2. DISPATCH (CPU): a pre-generated 10k-device uplink fragment stream
//    pushed through what the controller does per fragment (a flat-table
//    lookup of the DeviceState record when the fragment announces an RX
//    window, then the downlink-queue check; wile/controller.hpp) +
//    ForwardedBatch arena encode (wile/gateway.hpp). Reported as an
//    absolute dispatch_pipeline_fps row, not gated: the BENCH history
//    carries the trend. dispatch_sends counts the batches it flushed.
//
// 3. RULES (CPU): the same stream through a 3-rule engine chain.
//
// Determinism oracle: every configuration runs twice with the same
// seeds; simulation counters and the FNV-1a digest of every uplink byte
// must match run-to-run. Any mismatch fails the JSON gate.
//
// Writes BENCH_ingest_throughput.json.
//
// Usage: ingest_throughput [--quick] [--out PATH] [--devices N]
//                          [--frames N] [--batch N] [--best-of N]
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ap/access_point.hpp"
#include "util/flat_table.hpp"
#include "util/fnv1a.hpp"
#include "util/rng.hpp"
#include "wile/controller.hpp"
#include "wile/gateway.hpp"
#include "wile/rules/engine.hpp"
#include "wile/sender.hpp"

using namespace wile;

namespace {

// --- section 1: simulated sustained drain ------------------------------------

struct DrainResult {
  double sustained_fps = 0.0;  // forwarded readings per simulated second
  std::uint64_t received = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t batches = 0;
  std::uint64_t dropped = 0;
  std::uint64_t digest = 0;
};

/// One saturated-ingest run: `n_senders` Wi-LE sensors beaconing every
/// `period` around the gateway for `sim_seconds`, a real WPA2/UDP
/// uplink behind it. Everything is seeded — same args, same result.
DrainResult run_drain(std::size_t batch_max, int n_senders, Duration period,
                      int sim_seconds) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};

  ap::AccessPoint ap{scheduler, medium, {0, 0}, ap::AccessPointConfig{}, Rng{10}};
  util::Fnv1a server_digest;
  std::uint64_t server_readings = 0;
  ap.set_uplink_handler([&](const MacAddress&, const net::Ipv4Header&,
                            const net::UdpDatagram& udp) {
    server_digest.add(udp.payload);
    if (const auto batch = core::ForwardedBatch::decode(udp.payload)) {
      server_readings += batch->readings.size();
    }
  });
  ap.start();

  core::GatewayConfig gw_cfg;
  gw_cfg.station.mac = MacAddress::from_seed(0x6A7E);
  gw_cfg.batch_max = batch_max;
  gw_cfg.max_queue = 64;
  core::Gateway gateway{scheduler, medium, {3, 0}, gw_cfg, Rng{20}};
  bool ready = false;
  gateway.start([&](bool ok) { ready = ok; });
  scheduler.run_until(scheduler.now() + seconds(10));
  if (!ready) {
    std::fprintf(stderr, "ingest_throughput: gateway failed to associate\n");
    std::exit(1);
  }

  // The fleet: short-period duty cycles, heavy enough to keep the
  // uplink queue non-empty at every batch size under test.
  std::vector<std::unique_ptr<core::Sender>> sensors;
  for (int i = 0; i < n_senders; ++i) {
    core::SenderConfig cfg;
    cfg.device_id = 0x5000 + static_cast<std::uint32_t>(i);
    cfg.period = period;
    cfg.wake_jitter = msec(20);
    sensors.push_back(std::make_unique<core::Sender>(
        scheduler, medium, sim::Position{5.0 + 0.5 * i, 2.0}, cfg,
        Rng{static_cast<std::uint64_t>(100 + i)}));
    std::uint8_t tag = static_cast<std::uint8_t>(i);
    sensors.back()->start_duty_cycle([tag] { return Bytes{tag, 0x17, 0xC0}; });
  }
  const TimePoint t_start = scheduler.now();
  scheduler.run_until(t_start + seconds(sim_seconds));
  for (auto& s : sensors) s->stop_duty_cycle();

  const core::GatewayStats& s = gateway.stats();
  DrainResult r;
  r.received = s.received;
  r.forwarded = s.forwarded;
  r.batches = s.batches_sent;
  r.dropped = s.dropped_total;
  r.sustained_fps = static_cast<double>(s.forwarded) / sim_seconds;
  util::Fnv1a d = server_digest;
  d.add(s.received);
  d.add(s.forwarded);
  d.add(s.batches_sent);
  d.add(s.dropped_total);
  d.add(server_readings);
  r.digest = d.value();
  return r;
}

// --- section 2: CPU dispatch -------------------------------------------------

/// One synthetic uplink fragment, pre-generated so both paths pay zero
/// generation cost inside the timed region.
struct Frame {
  std::uint32_t device_id = 0;
  std::uint32_t sequence = 0;
  bool rx_window = false;  // device announced a listen window
  std::int8_t rssi_dbm = -60;
  std::array<std::uint8_t, 8> payload{};
};

/// Deterministic fan-in stream: uniform device pick, ~3% sequence gaps
/// (loss), ~2% stale re-deliveries (reorder), RX window every 8th frame
/// per device on average.
std::vector<Frame> make_stream(std::uint32_t n_devices, std::size_t n_frames,
                               std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint32_t> next_seq(n_devices, 0);
  std::vector<Frame> frames;
  frames.reserve(n_frames);
  for (std::size_t i = 0; i < n_frames; ++i) {
    Frame f;
    f.device_id = static_cast<std::uint32_t>(rng.below(n_devices));
    const std::uint64_t roll = rng.below(100);
    if (roll < 3) next_seq[f.device_id] += 1 + static_cast<std::uint32_t>(rng.below(4));
    f.sequence = (roll >= 97 && next_seq[f.device_id] > 2)
                     ? next_seq[f.device_id] - 2  // stale re-delivery
                     : next_seq[f.device_id]++;
    f.rx_window = rng.below(8) == 0;
    f.rssi_dbm = static_cast<std::int8_t>(-40 - static_cast<int>(rng.below(50)));
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.below(256));
    frames.push_back(f);
  }
  return frames;
}

struct PathResult {
  double fps = 0.0;  // frames ingested per wall second (best run)
  std::uint64_t digest = 0;
  bool deterministic = true;
  std::uint64_t sends = 0;  // uplink send cycles (dispatch)
  std::uint64_t fired = 0;  // rule firings (rules)
};

// Dispatch starts from the device records of a long-running controller:
// every 5th device was commanded once and drained, and only those have
// a record (the controller creates one per queued downlink).
constexpr std::uint32_t kCommandedEvery = 5;

std::pair<std::uint64_t, PathResult> run_pipeline_once(const std::vector<Frame>& frames,
                                                       std::uint32_t n_devices,
                                                       std::size_t batch_max) {
  util::FlatTable<core::DeviceState> table;
  for (std::uint32_t id = 0; id < n_devices; id += kCommandedEvery) {
    core::DeviceState& dev = table.find_or_insert(id);
    dev.downlink_seq = 1;
    (void)dev.queue();
  }
  util::Fnv1a digest;
  PathResult r;
  core::ForwardedReading reading;
  Bytes arena;
  std::size_t in_batch = 0;

  const auto t0 = std::chrono::steady_clock::now();
  core::ForwardedBatch::begin(arena);
  for (const Frame& f : frames) {
    // The controller's one lookup, for fragments that announce a window.
    if (f.rx_window) {
      const core::DeviceState* dev = table.find(f.device_id);
      if (dev != nullptr && dev->has_queued()) {
        digest.add(dev->queued_downlinks->front());
      }
    }
    // Forward: append into the arena batch; flush every batch_max.
    reading.device_id = f.device_id;
    reading.sequence = f.sequence;
    reading.rssi_dbm = f.rssi_dbm;
    reading.data.assign(f.payload.begin(), f.payload.end());
    core::ForwardedBatch::append(arena, reading);
    if (++in_batch == batch_max) {
      core::ForwardedBatch::finish(arena, in_batch);
      digest.add(arena);
      ++r.sends;
      core::ForwardedBatch::begin(arena);
      in_batch = 0;
    }
  }
  if (in_batch > 0) {
    core::ForwardedBatch::finish(arena, in_batch);
    digest.add(arena);
    ++r.sends;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.fps = static_cast<double>(frames.size()) / wall;
  r.digest = digest.value();
  return {r.digest, r};
}

// --- section 3: rules engine eval rate ---------------------------------------

std::pair<std::uint64_t, PathResult> run_rules_once(const std::vector<Frame>& frames) {
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
  rules::Engine engine{std::move(specs)};

  rules::Reading reading;
  util::Fnv1a digest;
  PathResult r;
  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t t_us = 0;
  for (const Frame& f : frames) {
    t_us += 100;  // 10k readings/s of simulated time
    reading.device_id = f.device_id;
    reading.sequence = f.sequence;
    reading.rssi_dbm = f.rssi_dbm;
    reading.value = static_cast<double>(f.payload[0] | (f.payload[1] << 8));
    reading.at = TimePoint{Duration{t_us}};
    engine.on_reading(reading);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  digest.add(engine.fired_total());
  r.fps = static_cast<double>(frames.size()) / wall;
  r.digest = digest.value();
  r.fired = engine.fired_total();
  return {r.digest, r};
}

/// Run `once` best_of times: best fps wins, digests must all agree.
template <typename Fn>
PathResult best_of_runs(int best_of, Fn&& once) {
  PathResult best;
  std::uint64_t first_digest = 0;
  for (int i = 0; i < best_of; ++i) {
    auto [digest, r] = once();
    if (i == 0) {
      first_digest = digest;
      best = r;
    } else {
      best.deterministic = best.deterministic && digest == first_digest;
      if (r.fps > best.fps) {
        const bool det = best.deterministic;
        best = r;
        best.deterministic = det;
      }
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t n_devices = 10'000;
  std::size_t n_frames = 2'000'000;
  std::size_t batch_max = 16;
  int best_of = 3;
  int drain_sim_seconds = 30;
  std::string out_path = "BENCH_ingest_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      n_frames = 300'000;
      drain_sim_seconds = 10;
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      n_devices = static_cast<std::uint32_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      n_frames = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch_max = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--best-of") == 0 && i + 1 < argc) {
      best_of = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--devices N] [--frames N] "
                   "[--batch N] [--best-of N]\n",
                   argv[0]);
      return 2;
    }
  }

  // --- drain: sustained frames/s/gateway, pre-PR vs batched ---------------
  // 12 sensors beaconing every 100 ms = ~120 readings/s offered, far
  // past the ~6/s the single-send drain can carry.
  const int n_senders = 16;
  const Duration period = msec(100);
  std::printf("ingest_throughput: drain %d senders @ %lld ms for %ds, batch 1 vs %zu%s\n",
              n_senders, static_cast<long long>(period.count() / 1000),
              drain_sim_seconds, batch_max, quick ? " [quick]" : "");
  const DrainResult drain_base_a = run_drain(1, n_senders, period, drain_sim_seconds);
  const DrainResult drain_base_b = run_drain(1, n_senders, period, drain_sim_seconds);
  const DrainResult drain_pipe_a =
      run_drain(batch_max, n_senders, period, drain_sim_seconds);
  const DrainResult drain_pipe_b =
      run_drain(batch_max, n_senders, period, drain_sim_seconds);
  const bool drain_deterministic = drain_base_a.digest == drain_base_b.digest &&
                                   drain_pipe_a.digest == drain_pipe_b.digest;
  const double drain_speedup = drain_pipe_a.sustained_fps / drain_base_a.sustained_fps;
  std::printf("  batch=1:   %.1f readings/s sustained (received=%llu forwarded=%llu "
              "batches=%llu dropped=%llu)\n",
              drain_base_a.sustained_fps,
              static_cast<unsigned long long>(drain_base_a.received),
              static_cast<unsigned long long>(drain_base_a.forwarded),
              static_cast<unsigned long long>(drain_base_a.batches),
              static_cast<unsigned long long>(drain_base_a.dropped));
  std::printf("  batch=%-2zu:  %.1f readings/s sustained (received=%llu forwarded=%llu "
              "batches=%llu dropped=%llu)\n",
              batch_max, drain_pipe_a.sustained_fps,
              static_cast<unsigned long long>(drain_pipe_a.received),
              static_cast<unsigned long long>(drain_pipe_a.forwarded),
              static_cast<unsigned long long>(drain_pipe_a.batches),
              static_cast<unsigned long long>(drain_pipe_a.dropped));
  std::printf("  drain speedup: %.2fx, determinism %s\n", drain_speedup,
              drain_deterministic ? "ok" : "FAILED");

  // --- dispatch: CPU cost of the per-fragment bookkeeping -----------------
  std::printf("dispatch: %u devices, %zu frames, best of %d\n", n_devices, n_frames,
              best_of);
  const std::vector<Frame> frames = make_stream(n_devices, n_frames, 0x1276E57);
  const PathResult pipeline =
      best_of_runs(best_of, [&] { return run_pipeline_once(frames, n_devices, batch_max); });
  std::printf("  flat table + arena:  %.2fM frames/s (sends=%llu)\n", pipeline.fps / 1e6,
              static_cast<unsigned long long>(pipeline.sends));

  const PathResult rules = best_of_runs(best_of, [&] { return run_rules_once(frames); });
  std::printf("rules: %.2fM readings/s through a 3-rule chain (fired=%llu)\n",
              rules.fps / 1e6, static_cast<unsigned long long>(rules.fired));

  const bool determinism_ok =
      drain_deterministic && pipeline.deterministic && rules.deterministic;
  std::printf("speedup: %.2fx sustained; determinism_ok: %s\n", drain_speedup,
              determinism_ok ? "true" : "false");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::perror("ingest_throughput: fopen");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"ingest_throughput\",\n"
      "  \"quick\": %s,\n"
      "  \"batch_max\": %zu,\n"
      "  \"drain_senders\": %d,\n"
      "  \"drain_sim_seconds\": %d,\n"
      "  \"baseline_fps\": %.2f,\n"
      "  \"pipeline_fps\": %.2f,\n"
      "  \"speedup\": %.3f,\n"
      "  \"baseline_forwarded\": %llu,\n"
      "  \"pipeline_forwarded\": %llu,\n"
      "  \"pipeline_batches\": %llu,\n"
      "  \"baseline_digest\": \"%016llx\",\n"
      "  \"pipeline_digest\": \"%016llx\",\n"
      "  \"n_devices\": %u,\n"
      "  \"frames\": %zu,\n"
      "  \"best_of\": %d,\n"
      "  \"dispatch_pipeline_fps\": %.0f,\n"
      "  \"dispatch_sends\": %llu,\n"
      "  \"dispatch_pipeline_digest\": \"%016llx\",\n"
      "  \"rules_eval_fps\": %.0f,\n"
      "  \"rules_fired\": %llu,\n"
      "  \"determinism_ok\": %s\n"
      "}\n",
      quick ? "true" : "false", batch_max, n_senders, drain_sim_seconds,
      drain_base_a.sustained_fps, drain_pipe_a.sustained_fps, drain_speedup,
      static_cast<unsigned long long>(drain_base_a.forwarded),
      static_cast<unsigned long long>(drain_pipe_a.forwarded),
      static_cast<unsigned long long>(drain_pipe_a.batches),
      static_cast<unsigned long long>(drain_base_a.digest),
      static_cast<unsigned long long>(drain_pipe_a.digest), n_devices, n_frames,
      best_of, pipeline.fps, static_cast<unsigned long long>(pipeline.sends),
      static_cast<unsigned long long>(pipeline.digest), rules.fps,
      static_cast<unsigned long long>(rules.fired),
      determinism_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return determinism_ok && drain_speedup >= 3.0 ? 0 : 1;
}
