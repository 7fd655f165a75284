// perfbench — one process per measured run of a benchmark workload.
//
//   perfbench run <workload> <seed>     build, run, read results; then
//                                       rebuild a few times for setup_s,
//                                       timing a calibration kernel
//                                       between the steps
//   perfbench trace <workload> <seed>   an untraced and a traced run plus
//                                       the layer replays
//   perfbench oracle                    serial vs sharded engine check
//
// `run` and `trace` print one JSON object on their last stdout line;
// perfbench/run.py aggregates them. Everything here observes the
// simulator from outside: spans around the calls this file makes, public
// counters read after the run, and replays of single layers.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "replay.hpp"
#include "workloads.hpp"

using namespace wile;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Current resident set in bytes, from /proc/self/statm (0 if unavailable).
double current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size_pages = 0;
  long resident_pages = 0;
  const int matched = std::fscanf(f, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0.0;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
  }
};

/// One JSON object on one line, keys in insertion order.
class JsonLine {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void str(const char* key, const std::string& v) { field(key, "\"" + v + "\""); }
  void boolean(const char* key, bool v) { field(key, v ? "true" : "false"); }
  void list(const char* key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? ", " : "", vs[i]);
      s += buf;
    }
    field(key, s + "]");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void field(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": " + v;
  }
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What a finished run exposes through the simulator's public API.
struct Results {
  sim::Medium::Stats medium;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t beacons = 0;
  std::uint64_t cycles = 0;
  std::uint64_t wakes_sent = 0;
  double fleet_energy_j = 0.0;
  double settle_s = 0.0;  // span around energy_between for the fleet
  std::size_t export_bytes = 0;
  double export_s = 0.0;  // span around export_json
  std::uint64_t digest = 0;
  bool consistent = true;
  std::string why;
};

Results read_results(const Workload& w, sim::Scenario& s) {
  Results r;
  r.medium = s.medium_stats();
  r.events = s.events_run();
  r.messages = s.messages();
  const TimePoint end = s.now();
  const auto t_settle = Clock::now();
  for (const auto& d : s.devices()) {
    r.fleet_energy_j += d->timeline().energy_between(TimePoint{}, end).value;
  }
  r.settle_s = seconds_since(t_settle);
  for (const auto& d : s.devices()) {
    r.beacons += d->beacons_sent();
    r.cycles += d->cycles_run();
  }
  if (s.wur_ap() != nullptr) r.wakes_sent = s.wur_ap()->wakes_sent();

  Fnv d;
  d.add(r.medium.transmissions);
  d.add(r.medium.deliveries);
  d.add(r.medium.collision_losses);
  d.add(r.medium.channel_losses);
  d.add(r.events);
  d.add(r.messages);
  d.add(static_cast<std::uint64_t>(std::llround(r.fleet_energy_j * 1e9)));  // nJ
  if (s.rules() != nullptr) d.add(s.rules()->fired_total());
  if (w.telemetry) {
    telemetry::ExportMeta meta;
    meta.bench = "perfbench";
    meta.ints = {{"sim_seconds", w.sim_seconds}};
    const auto t_export = Clock::now();
    const std::string json = s.export_json(meta);
    r.export_s = seconds_since(t_export);
    r.export_bytes = json.size();
    d.add(json);
  }
  r.digest = d.h;

  // Output checks that hold for every seed. Each beacon and each wake
  // frame is one medium transmission; both are counted when queued to
  // CSMA, so the few still deferring at the deadline (at most one per
  // thousand devices plus 16) are not on the air yet. A message needs a
  // delivered frame, and the fleet spent energy.
  const std::uint64_t queued = r.beacons + r.wakes_sent;
  const auto deferring_max = static_cast<std::uint64_t>(16 + w.devices / 1000);
  if (r.medium.transmissions > queued || queued - r.medium.transmissions > deferring_max) {
    r.consistent = false;
    r.why = "transmissions do not match queued beacons and wakes";
  } else if (r.messages == 0 || r.messages > r.medium.deliveries) {
    r.consistent = false;
    r.why = "messages outside (0, deliveries]";
  } else if (!(r.fleet_energy_j > 0.0) || !std::isfinite(r.fleet_energy_j)) {
    r.consistent = false;
    r.why = "fleet energy not positive";
  } else if (w.telemetry && r.export_bytes == 0) {
    r.consistent = false;
    r.why = "empty telemetry export";
  }
  return r;
}

void add_results(JsonLine& j, const Results& r) {
  j.str("digest", hex(r.digest));
  j.boolean("consistent", r.consistent);
  j.str("why", r.why);
  j.num("transmissions", static_cast<double>(r.medium.transmissions));
  j.num("deliveries", static_cast<double>(r.medium.deliveries));
  j.num("messages", static_cast<double>(r.messages));
  j.num("events", static_cast<double>(r.events));
}

/// Advance to `sim_seconds` in `slice`-second run_until calls; returns
/// the host seconds each slice took.
std::vector<double> sliced_run(sim::Scenario& s, int sim_seconds, int slice) {
  std::vector<double> host_s;
  for (int t = slice; t <= sim_seconds; t += slice) {
    const auto t0 = Clock::now();
    s.run_until(TimePoint{seconds(t)});
    host_s.push_back(seconds_since(t0));
  }
  return host_s;
}

// --- calibration ---------------------------------------------------------------

/// Calibration kernel for host speed that shares no code with the
/// simulator: a heap-ordered event loop over a 64 MiB node table in which
/// each event reads random nodes and computes a log-distance path loss. It
/// loads caches, memory and cores the way the simulator does, so its speed
/// shows how fast the host runs at that moment, and no change to the
/// simulator can make it faster. A measured run times one chunk before
/// its first slice and one after every slice.
class Calibration {
 public:
  Calibration() : nodes_(kNodes) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      nodes_[i].x_m = static_cast<double>(i & 1023u) * 5.0;
      nodes_[i].y_m = static_cast<double>(i >> 10) * 5.0;
    }
    for (std::uint32_t i = 0; i < kPending; ++i) {
      queue_.emplace_back(next() % 60'000'000u, i);
      std::push_heap(queue_.begin(), queue_.end(), later);
    }
  }

  /// Host ns per event over one chunk of events.
  double chunk_ns() {
    const auto t0 = Clock::now();
    for (int k = 0; k < kEventsPerChunk; ++k) {
      std::pop_heap(queue_.begin(), queue_.end(), later);
      Event& e = queue_.back();
      Node& n = nodes_[next() & (kNodes - 1)];
      for (int r = 0; r < kReads; ++r) {
        const Node& m = nodes_[next() & (kNodes - 1)];
        const double d_m = std::hypot(n.x_m - m.x_m, n.y_m - m.y_m) + 1.0;
        const double rx_dbm = 20.0 - 40.0 - 30.0 * std::log10(d_m);
        if (rx_dbm > -82.0) {
          n.acc_dbm += rx_dbm;
          ++n.hits;
        }
      }
      e.first += 60'000'000u + next() % 1'000'000u;
      std::push_heap(queue_.begin(), queue_.end(), later);
    }
    return seconds_since(t0) * 1e9 / kEventsPerChunk;
  }

 private:
  struct Node {
    double x_m = 0.0;
    double y_m = 0.0;
    double acc_dbm = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t pad[4] = {};  // one 64-byte cache line per node
  };
  using Event = std::pair<std::uint64_t, std::uint32_t>;

  static bool later(const Event& a, const Event& b) { return a.first > b.first; }
  std::uint64_t next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  static constexpr std::uint32_t kNodes = 1u << 20;
  static constexpr std::uint32_t kPending = 100'000;
  static constexpr int kReads = 16;
  static constexpr int kEventsPerChunk = 4000;  // ~10 ms
  std::vector<Node> nodes_;
  std::vector<Event> queue_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

/// One chunk on each calibration at once, one thread each, as many as the
/// workload runs: a sharded run is slowed by whichever of its cores the
/// host slows. Returns the mean ns per event.
class HostCalibration {
 public:
  explicit HostCalibration(unsigned threads) : kernels_(std::max(1u, threads)) {}

  double chunk_ns() {
    std::vector<double> ns(kernels_.size());
    std::vector<std::thread> helpers;
    for (std::size_t i = 1; i < kernels_.size(); ++i) {
      helpers.emplace_back([this, &ns, i] { ns[i] = kernels_[i].chunk_ns(); });
    }
    ns[0] = kernels_[0].chunk_ns();
    for (std::thread& t : helpers) t.join();
    double sum = 0.0;
    for (const double v : ns) sum += v;
    return sum / static_cast<double>(ns.size());
  }

 private:
  std::vector<Calibration> kernels_;
};

/// Confine this process to the first `n` CPUs it may use, so that the
/// calibration threads run on the same vCPUs as the engine's workers.
void pin_to_first_cpus(unsigned n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  unsigned taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  if (taken == n) sched_setaffinity(0, sizeof chosen, &chosen);
}

// --- run -----------------------------------------------------------------------

/// Slices per measured run: the median slice rate shrugs off a burst of
/// host contention that would skew the mean over the whole run.
constexpr int kRunSlices = 60;

int cmd_run(const Workload& w, std::uint64_t seed) {
  if (w.threads > 0) pin_to_first_cpus(w.threads);
  const sim::ScenarioBuilder builder = perfbench::make_builder(w, seed, nullptr);
  HostCalibration calibration{w.threads};  // before rss0: not the run's growth
  std::vector<double> calibration_ns = {calibration.chunk_ns()};
  const double rss0 = current_rss_bytes();
  const auto t_build = Clock::now();
  auto scenario = builder.build();
  const double setup_s = seconds_since(t_build);
  const int slice = std::max(1, w.sim_seconds / kRunSlices);
  std::vector<double> slices;
  for (int t = slice; t <= w.sim_seconds; t += slice) {
    const auto t0 = Clock::now();
    scenario->run_until(TimePoint{seconds(t)});
    slices.push_back(seconds_since(t0));
    calibration_ns.push_back(calibration.chunk_ns());
  }
  const double rss1 = current_rss_bytes();
  const auto t_results = Clock::now();
  const Results r = read_results(w, *scenario);
  const double results_s = seconds_since(t_results);
  scenario.reset();
  const double after_results_ns = calibration.chunk_ns();

  // Set-up time alone is short and noisy: rebuild until about half a
  // second of builds has been timed, in groups of at least 20 ms with a
  // calibration chunk after each group. Each build is reported with the
  // mean of the two chunks around its group.
  std::vector<double> setups = {setup_s};
  std::vector<double> setup_calibration_ns = {calibration_ns.front()};
  double before_ns = after_results_ns;
  double timed_s = 0.0;
  while (setups.size() < 3 || (timed_s < 0.5 && setups.size() <= 200)) {
    double group_s = 0.0;
    while (group_s < 0.02 && setups.size() <= 200) {
      const auto t = Clock::now();
      auto again = builder.build();
      setups.push_back(seconds_since(t));
      group_s += setups.back();
    }
    timed_s += group_s;
    const double after_ns = calibration.chunk_ns();
    setup_calibration_ns.resize(setups.size(), (before_ns + after_ns) / 2);
    before_ns = after_ns;
  }

  JsonLine j;
  j.str("mode", "run");
  j.num("sim_s", w.sim_seconds);
  j.num("slice_sim_s", slice);
  j.list("slice_host_s", slices);
  j.list("calibration_ns", calibration_ns);
  j.num("results_s", results_s);
  j.num("results_calibration_ns", (calibration_ns.back() + after_results_ns) / 2);
  j.list("setup_s", setups);
  j.list("setup_calibration_ns", setup_calibration_ns);
  j.num("rss_growth_bytes", rss1 - rss0);
  j.num("devices", w.devices);
  add_results(j, r);
  j.print();
  return 0;
}

// --- trace ---------------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int cmd_trace(const Workload& w, std::uint64_t seed) {
  // Untraced reference run: its wall time prices the tracing overhead
  // and its digest must equal the traced run's.
  double untraced_s = 0.0;
  Results plain;
  {
    auto s = perfbench::make_builder(w, seed, nullptr).build();
    const auto t0 = Clock::now();
    s->run_until(TimePoint{seconds(w.sim_seconds)});
    untraced_s = seconds_since(t0);
    plain = read_results(w, *s);
  }

  perfbench::Probes probes;
  probes.record_delivered = w.rules;
  auto s = perfbench::make_builder(w, seed, &probes).build();
  const auto t_run = Clock::now();
  const std::vector<double> slices = sliced_run(*s, w.sim_seconds, 1);
  const double traced_s = seconds_since(t_run);
  const Results traced = read_results(w, *s);

  core::ReceiverStats rx;
  for (const auto& g : s->gateways()) {
    const core::ReceiverStats& st = g->stats();
    rx.beacons_seen += st.beacons_seen;
    rx.fragments += st.fragments;
    rx.messages += st.messages;
    rx.duplicates += st.duplicates;
    rx.crc_failures += st.crc_failures;
  }
  std::uint64_t wur_wakes = 0;
  std::uint64_t wur_ignored = 0;
  double segments = 0.0;
  for (const auto& d : s->devices()) {
    wur_wakes += d->wur_wakes();
    wur_ignored += d->wur_frames_ignored();
    segments += static_cast<double>(d->timeline().segments().size());
  }
  std::uint64_t provider_calls = 0;
  for (const std::uint64_t c : probes.provider_calls) provider_calls += c;
  std::uint64_t windows = 0;
  std::uint64_t stalls = 0;
  std::uint64_t boundary = 0;
  if (const sim::ParallelEngine* e = s->parallel_engine()) {
    for (const sim::ShardStats& st : e->shard_stats()) {
      windows = std::max(windows, st.windows);
      stalls += st.barrier_stalls;
      boundary += st.boundary_tx_out;
    }
  }
  const double registry_metrics = static_cast<double>(s->metrics().size());
  const double samples = static_cast<double>(s->samples().size());
  const double rules_readings = s->rules() != nullptr ? static_cast<double>(traced.messages) : 0.0;
  const double rules_fired =
      s->rules() != nullptr ? static_cast<double>(s->rules()->fired_total()) : 0.0;
  s.reset();

  // Layer replays, shaped like this workload.
  const double tx = static_cast<double>(traced.medium.transmissions);
  const perfbench::SchedulerReplay sched = perfbench::replay_scheduler(w, seed);
  const std::uint64_t medium_frames =
      std::min<std::uint64_t>(traced.medium.transmissions, 300'000);
  const perfbench::MediumReplay med = perfbench::replay_medium(
      w, seed, medium_frames, ratio(static_cast<double>(traced.wakes_sent), tx));
  const double power_ns = perfbench::replay_power(w, 2'000'000);
  const perfbench::CodecReplay codec = perfbench::replay_codec(seed, 200'000);
  const double rules_ns = perfbench::replay_rules(probes.delivered, 3);

  // Replayed cost per operation x the run's exact operation counts. A
  // sender cycle makes six set_current calls (see replay_power).
  constexpr double kPowerCallsPerCycle = 6.0;
  const double attributed_ns =
      sched.ns_per_event * static_cast<double>(traced.events) + med.ns_per_tx * tx +
      power_ns * kPowerCallsPerCycle * static_cast<double>(traced.cycles) +
      codec.ns_per_encode * static_cast<double>(traced.cycles) +
      codec.ns_per_decode * static_cast<double>(rx.beacons_seen) +
      rules_ns * rules_readings;

  JsonLine j;
  j.str("mode", "trace");
  j.str("digest_untraced", hex(plain.digest));
  j.str("digest_traced", hex(traced.digest));
  j.boolean("consistent", plain.consistent && traced.consistent);
  j.str("why", plain.why.empty() ? traced.why : plain.why);
  j.num("untraced_run_s", untraced_s);
  j.num("traced_run_s", traced_s);

  j.num("sim.scheduler.events", static_cast<double>(traced.events));
  j.num("sim.scheduler.ns_per_event", sched.ns_per_event);
  j.num("sim.run.slice_ms_p50", percentile(slices, 0.50) * 1e3);
  j.num("sim.run.slice_ms_p99", percentile(slices, 0.99) * 1e3);

  j.num("sim.medium.transmissions", tx);
  j.num("sim.medium.deliveries", static_cast<double>(traced.medium.deliveries));
  j.num("sim.medium.collision_losses", static_cast<double>(traced.medium.collision_losses));
  j.num("sim.medium.channel_losses", static_cast<double>(traced.medium.channel_losses));
  j.num("sim.medium.rx_per_tx", ratio(static_cast<double>(traced.medium.deliveries +
                                                         traced.medium.collision_losses +
                                                         traced.medium.channel_losses),
                                      tx));
  j.num("sim.medium.polls_per_tx",
        ratio(static_cast<double>(med.polls), static_cast<double>(medium_frames)));
  j.num("sim.medium.useful_poll_ratio",
        ratio(static_cast<double>(med.rx_work), static_cast<double>(med.polls)));
  j.num("sim.medium.ns_per_tx", med.ns_per_tx);

  j.num("sim.parallel.windows", static_cast<double>(windows));
  j.num("sim.parallel.barrier_stalls", static_cast<double>(stalls));
  j.num("sim.parallel.boundary_tx", static_cast<double>(boundary));
  j.num("sim.parallel.boundary_share", ratio(static_cast<double>(boundary), tx));

  j.num("power.ns_per_transition", power_ns);
  j.num("power.segments_per_device", ratio(segments, w.devices));
  j.num("power.settle_s", traced.settle_s);

  j.num("wile.sender.cycles", static_cast<double>(traced.cycles));
  j.num("wile.sender.beacons", static_cast<double>(traced.beacons));
  j.num("wile.sender.provider_calls", static_cast<double>(provider_calls));
  j.num("wile.codec.ns_per_encode", codec.ns_per_encode);
  j.num("wile.codec.ns_per_decode", codec.ns_per_decode);

  j.num("wile.receiver.beacons_seen", static_cast<double>(rx.beacons_seen));
  j.num("wile.receiver.fragments", static_cast<double>(rx.fragments));
  j.num("wile.receiver.messages", static_cast<double>(rx.messages));
  j.num("wile.receiver.duplicates", static_cast<double>(rx.duplicates));
  j.num("wile.receiver.crc_failures", static_cast<double>(rx.crc_failures));

  j.num("ap.wur.wakes_sent", static_cast<double>(traced.wakes_sent));
  j.num("wile.sender.wur_wakes", static_cast<double>(wur_wakes));
  j.num("wile.sender.wur_frames_ignored", static_cast<double>(wur_ignored));
  j.num("ap.wur.useful_wake_ratio",
        ratio(static_cast<double>(wur_wakes), static_cast<double>(traced.wakes_sent)));

  j.num("wile.rules.readings", rules_readings);
  j.num("wile.rules.fired", rules_fired);
  j.num("wile.rules.ns_per_reading", rules_ns);

  j.num("telemetry.export_s", traced.export_s);
  j.num("telemetry.export_bytes", static_cast<double>(traced.export_bytes));
  j.num("telemetry.registry_metrics", registry_metrics);
  j.num("telemetry.samples", samples);

  j.num("trace.overhead_share", ratio(traced_s - untraced_s, untraced_s));
  // The replays run on one thread; a sharded run has `threads` of them.
  j.num("trace.attributed_share",
        ratio(attributed_ns * 1e-9, traced_s * std::max(1u, w.threads)));
  j.print();
  return 0;
}

// --- oracle --------------------------------------------------------------------

/// Serial and sharded engines on the same small fleet and seed: the
/// transmission counts must be equal (duty cycles do not depend on the
/// engine). Deliveries may differ through two effects only: each shard
/// draws its PER losses from its own medium stream, and a cross-stripe
/// frame reaches its neighbours up to one window late, which can move a
/// collision. The bound is four standard deviations of the difference
/// of two independent binomial loss draws over the serial run's decode
/// attempts, plus every collision loss either run saw.
int cmd_oracle() {
  int failures = 0;
  for (const std::uint64_t seed : {1ull, 2ull}) {
    Results r[2];
    for (const unsigned threads : {0u, 4u}) {
      const Workload w = perfbench::oracle_workload(threads);
      auto s = perfbench::make_builder(w, seed, nullptr).build();
      s->run_until(TimePoint{seconds(w.sim_seconds)});
      r[threads > 0 ? 1 : 0] = read_results(w, *s);
    }
    const auto d_serial = static_cast<double>(r[0].medium.deliveries);
    const auto d_sharded = static_cast<double>(r[1].medium.deliveries);
    const double attempts = d_serial + static_cast<double>(r[0].medium.channel_losses);
    const double p = ratio(d_serial, attempts);
    const double bound = 4.0 * std::sqrt(2.0 * attempts * p * (1.0 - p)) +
                         static_cast<double>(r[0].medium.collision_losses +
                                             r[1].medium.collision_losses);
    const bool tx_equal = r[0].medium.transmissions == r[1].medium.transmissions;
    const bool within = std::fabs(d_serial - d_sharded) <= bound;
    const bool ok = tx_equal && within && r[0].consistent && r[1].consistent;
    std::printf("seed %llu: transmissions %llu vs %llu, deliveries %.0f vs %.0f "
                "(bound %.0f): %s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r[0].medium.transmissions),
                static_cast<unsigned long long>(r[1].medium.transmissions), d_serial,
                d_sharded, bound, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s run|trace <workload> <seed>\n       %s oracle\n", argv0,
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "oracle") == 0) return cmd_oracle();
  if (argc != 4) return usage(argv[0]);
  const Workload* w = perfbench::find_workload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", argv[2]);
    return 2;
  }
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  try {
    if (std::strcmp(argv[1], "run") == 0) return cmd_run(*w, seed);
    if (std::strcmp(argv[1], "trace") == 0) return cmd_trace(*w, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
