// ScenarioBuilder — one setup API for every bench, example and test.
//
// Before this facade every entry point hand-wired the same ritual:
// Scheduler, Medium with a seeded Rng, a grid of Senders forked from a
// master Rng, staggered duty-cycle starts, gateway Receivers, and (since
// the telemetry subsystem) a MetricsRegistry with per-component
// publish_metrics calls. ScenarioBuilder owns that ritual once:
//
//   auto scenario = sim::ScenarioBuilder{}
//                       .devices(1000)
//                       .grid_spacing_m(5)
//                       .gateway_every(2500)
//                       .duty_cycle(seconds(60))
//                       .seed(0xF1EE7C0DE)
//                       .build();
//   scenario->run_for(seconds(600));
//   std::string json = scenario->export_json({.bench = "my_bench"});
//
// The default build() replicates bench/scale_fleet.cpp's historical
// wiring *exactly* — same construction order, same Rng fork sequence,
// same staggered start times — so scenarios are bit-identical to the
// hand-wired setups they replaced (tests/test_telemetry.cpp pins this).
//
// The builder lives in namespace wile::sim because it assembles the
// simulation environment; it is compiled into wile_core because the
// nodes it owns (Sender/Receiver) live there.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ap/wur_scheduler.hpp"
#include "ble/advertiser.hpp"
#include "sim/chaos.hpp"
#include "sim/fault.hpp"
#include "sim/invariants.hpp"
#include "sim/medium.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "wile/receiver.hpp"
#include "wile/rules/engine.hpp"
#include "wile/sender.hpp"
#include "wile/tx_mode.hpp"

namespace wile::sim {

class ScenarioBuilder;

/// Mode-preset options for TxMode::Wur fleets. The preset gives every
/// device a WUR companion receiver, arms it instead of starting a duty
/// cycle, and stands up one AP-side WurScheduler at the centre of the
/// device grid that owns the wake cadence: a unicast round robin over
/// the fleet's WUR IDs.
struct WurFleetOptions {
  ap::WurSchedulerConfig scheduler{};
  /// Wake cadence: one full unicast sweep of the fleet per this period.
  /// Zero = the builder's duty_cycle() period.
  Duration cadence{};
  /// Companion-receiver model applied to every device.
  power::WurReceiverModel receiver{};
};

/// Mode-preset options for TxMode::Ble fleets: every device becomes a
/// BleAdvertiser on the builder's duty_cycle() period and every gateway
/// slot becomes a BleScanner.
struct BleFleetOptions {
  /// Template advertiser config; the preset overrides address (derived
  /// per device), adv_interval (duty_cycle) and adv_delay_max (below).
  ble::BleAdvertiserConfig advertiser{};
  /// Spec advDelay bound (see BleAdvertiserConfig::adv_delay_max).
  /// The preset default keeps the full 10 ms the spec prescribes —
  /// pure-ALOHA contention is dishonest without it.
  Duration adv_delay_max = msec(10);
};

/// A fully assembled simulation: scheduler, medium, Wi-LE device fleet,
/// gateway receivers, and the telemetry pipeline bound over all of them.
/// Non-movable (components hold references into each other); created via
/// ScenarioBuilder::build() behind a unique_ptr.
class Scenario {
 public:
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
  ~Scenario();

  // --- environment -----------------------------------------------------------
  /// The serial engine's one scheduler/medium. Throws std::logic_error
  /// in parallel mode (threads(n>0)): there is no single event core
  /// there — use the aggregate accessors events_run()/medium_stats()/
  /// now()/messages(), which sum over every core on both engines.
  [[nodiscard]] Scheduler& scheduler();
  [[nodiscard]] Medium& medium();
  /// Lazily constructed on first use (so scenarios that never inject
  /// faults pay nothing and schedule nothing). Serial mode only.
  [[nodiscard]] FaultInjector& faults();

  // --- engine-agnostic aggregates --------------------------------------------
  // Valid in both modes; benches and tests read these instead of
  // scheduler()/medium() so the same code drives serial and sharded runs.
  [[nodiscard]] std::uint64_t events_run() const;
  [[nodiscard]] Medium::Stats medium_stats() const;
  [[nodiscard]] TimePoint now() const;
  /// True when built with threads(n>0): the sharded engine is driving.
  [[nodiscard]] bool parallel() const { return engine_ != nullptr; }
  /// Null in serial mode.
  [[nodiscard]] const ParallelEngine* parallel_engine() const { return engine_.get(); }

  // --- chaos harness ---------------------------------------------------------
  /// Wire the standard invariant catalog over this fleet: scheduler
  /// monotonicity, FrameBuffer accounting (live buffers equal those in
  /// flight, in CSMA queues and in device trains), per-gateway
  /// reassembler bounds and per-device sequence uniqueness (the gateway
  /// callbacks report every delivery to the monitor), per-device
  /// monotone sequence counters, and — for harvesting fleets — energy
  /// conservation via the governor's non-perturbing projected charge.
  /// The monitor must outlive every event this scenario runs. Call
  /// monitor.start() separately to sweep.
  void attach_invariants(InvariantMonitor& monitor);

  /// Binding for chaos campaigns: the injector plus every device and
  /// gateway node, per-device clock-drift appliers and energy targets.
  /// The generated jammer sits at the first gateway (worst case for
  /// uplink delivery).
  [[nodiscard]] ChaosTargets chaos_targets();

  // --- nodes -----------------------------------------------------------------
  [[nodiscard]] std::vector<std::unique_ptr<core::Sender>>& devices() {
    return senders_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<core::Receiver>>& gateways() {
    return receivers_;
  }
  /// The transmission mode this scenario was built with.
  [[nodiscard]] TxMode tx_mode() const { return mode_; }
  /// BLE fleets (mode(TxMode::Ble)): advertisers replace devices() and
  /// scanners replace gateways(). Empty in the other modes.
  [[nodiscard]] std::vector<std::unique_ptr<ble::BleAdvertiser>>& ble_devices() {
    return ble_advertisers_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<ble::BleScanner>>& ble_scanners() {
    return ble_scanners_;
  }
  /// WUR fleets (mode(TxMode::Wur)): the AP-side wake scheduler that owns
  /// the fleet cadence. Null in the other modes.
  [[nodiscard]] ap::WurScheduler* wur_ap() { return wur_ap_.get(); }
  /// Messages delivered across all gateway receivers (deduplicated per
  /// receiver, summed over receivers — matches the legacy benches'
  /// shared counter). Each event core counts its own gateways (no
  /// cross-thread counter contention on the sharded engine) and this
  /// sums them.
  [[nodiscard]] std::uint64_t messages() const;
  /// The fleet rules engine, or nullptr unless ScenarioBuilder::rules()
  /// configured one. Fed every message each gateway delivers.
  [[nodiscard]] rules::Engine* rules() { return rules_engine_.get(); }

  // --- telemetry -------------------------------------------------------------
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return registry_; }
  [[nodiscard]] telemetry::Tracer& tracer() { return tracer_; }
  [[nodiscard]] bool telemetry_enabled() const { return telemetry_enabled_; }
  /// Snapshots collected by the periodic sampler (empty unless
  /// sample_every() was configured).
  [[nodiscard]] const std::vector<telemetry::Snapshot>& samples() const;
  /// Whole-registry snapshot at the current simulated time.
  [[nodiscard]] telemetry::Snapshot snapshot() {
    return registry_.snapshot(now());
  }
  /// Serialize the scenario's full telemetry state (snapshot + sampler
  /// series + trace summary) in the wile-telemetry-v1 schema.
  [[nodiscard]] std::string export_json(telemetry::ExportMeta meta,
                                        bool include_trace_events = false);

  // --- running ---------------------------------------------------------------
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(now() + d); }
  /// Stop every device's duty cycle (drain before reading final stats).
  void stop_all();

 private:
  friend class ScenarioBuilder;
  Scenario(const ScenarioBuilder& b);
  void require_serial(const char* what) const;

  /// One event core plus its message tally: the serial engine has one,
  /// the sharded engine one per shard. The schedulers and mediums live
  /// behind unique_ptrs because Medium holds a Scheduler& and neither is
  /// movable.
  struct EventCore {
    std::unique_ptr<Scheduler> scheduler;
    std::unique_ptr<Medium> medium;
    /// Written only by the core's owning thread (its gateways' message
    /// callbacks), read after run — no atomics needed.
    std::uint64_t messages = 0;
  };

  std::vector<EventCore> cores_;
  std::unique_ptr<ParallelEngine> engine_;
  telemetry::MetricsRegistry registry_;
  telemetry::Tracer tracer_;
  bool telemetry_enabled_ = true;
  std::unique_ptr<telemetry::PeriodicSampler<Scheduler>> sampler_;
  std::unique_ptr<FaultInjector> faults_;
  std::uint64_t fault_seed_ = 0;
  std::vector<std::unique_ptr<core::Sender>> senders_;
  std::vector<std::unique_ptr<core::Receiver>> receivers_;
  TxMode mode_ = TxMode::WiLeBeacon;
  std::vector<std::unique_ptr<ble::BleAdvertiser>> ble_advertisers_;
  std::vector<std::unique_ptr<ble::BleScanner>> ble_scanners_;
  std::unique_ptr<ap::WurScheduler> wur_ap_;
  std::unique_ptr<rules::Engine> rules_engine_;
  /// Set by attach_invariants(): every gateway delivery is reported to it.
  InvariantMonitor* monitor_ = nullptr;
  core::Receiver::MessageCallback user_on_message_;
  std::function<void(int, const ble::AdvertisingPdu&, double)> user_on_adv_;

  void schedule_rules_poll(Duration every);
};

/// Fluent builder. Every knob has the scale_fleet default, so
/// `.devices(n).build()` reproduces the historical bench wiring.
class ScenarioBuilder {
 public:
  /// Number of Wi-LE sender devices (grid-placed, ids 1..n by default).
  ScenarioBuilder& devices(int n) { n_devices_ = n; return *this; }
  // --- transmission mode ------------------------------------------------------
  /// The unified mode preset (default TxMode::WiLeBeacon, which keeps
  /// every pre-existing scenario bit-identical). The preset owns the
  /// cross-cutting defaults for its fleet:
  ///   WiLeBeacon — Senders on local duty-cycle timers + gateway
  ///                Receivers (the historical wiring, unchanged).
  ///   Ble        — BleAdvertisers on the same duty-cycle period (plus
  ///                spec advDelay) + BleScanners at the gateway slots.
  ///   Wur        — Senders with WUR companion receivers, armed and
  ///                deep-sleeping; one AP WurScheduler drives the wake
  ///                cadence; gateway Receivers unchanged.
  ScenarioBuilder& mode(TxMode m) { mode_ = m; return *this; }
  /// Tune the Wur preset (implies mode(TxMode::Wur)).
  ScenarioBuilder& wur(WurFleetOptions opts) {
    mode_ = TxMode::Wur;
    wur_opts_ = std::move(opts);
    return *this;
  }
  /// Tune the Ble preset (implies mode(TxMode::Ble)).
  ScenarioBuilder& ble(BleFleetOptions opts) {
    mode_ = TxMode::Ble;
    ble_opts_ = std::move(opts);
    return *this;
  }
  /// Ble mode: callback for every advertising PDU a scanner accepts
  /// (scanner index, PDU, RSSI). The aggregate messages() counter counts
  /// accepted PDUs regardless.
  ScenarioBuilder& on_adv(
      std::function<void(int, const ble::AdvertisingPdu&, double)> cb) {
    on_adv_ = std::move(cb);
    return *this;
  }
  /// Grid pitch for default placement (square grid, row-major).
  ScenarioBuilder& grid_spacing_m(double m) { spacing_m_ = m; return *this; }
  /// One gateway receiver per this many devices (min 1 gateway), placed
  /// along the grid diagonal.
  ScenarioBuilder& gateway_every(int n) { gateway_every_ = n; return *this; }
  /// Explicit gateway count (overrides gateway_every).
  ScenarioBuilder& gateways(int n) { n_gateways_ = n; return *this; }
  /// Duty-cycle period for every device. build() rejects a period <= 0
  /// in the Wi-LE and BLE modes.
  ScenarioBuilder& duty_cycle(Duration period) { period_ = period; return *this; }
  /// Uniform per-wake jitter (± this amount) of every Wi-LE sender.
  /// build() rejects a jitter >= duty_cycle() in the Wi-LE mode.
  ScenarioBuilder& wake_jitter(Duration j) { wake_jitter_ = j; return *this; }
  /// Master RNG seed; each device gets master.fork() in construction
  /// order (the scale_fleet discipline).
  ScenarioBuilder& seed(std::uint64_t s) { master_seed_ = s; return *this; }
  /// Medium (propagation/loss) RNG seed, independent of the master.
  ScenarioBuilder& medium_seed(std::uint64_t s) { medium_seed_ = s; return *this; }
  ScenarioBuilder& channel(phy::ChannelConfig cfg) { channel_ = cfg; return *this; }
  /// SNR-independent injected loss floor on the medium (ablations).
  ScenarioBuilder& loss_floor(double p) { loss_floor_ = p; return *this; }
  /// Fixed payload every device sends each cycle.
  ScenarioBuilder& payload(Bytes fixed);
  /// Per-device payload provider factory: called once per device index,
  /// returns that device's per-cycle provider. Overrides payload().
  ScenarioBuilder& payload_provider(
      std::function<core::Sender::PayloadProvider(int)> make) {
    make_provider_ = std::move(make);
    return *this;
  }
  /// Hook to adjust each device's SenderConfig after the defaults are
  /// applied (rx windows, keys, FEC, CSMA, ...).
  ScenarioBuilder& configure_sender(
      std::function<void(core::SenderConfig&, int)> fn) {
    configure_sender_ = std::move(fn);
    return *this;
  }
  /// Intermittent power for the whole fleet: every device runs off this
  /// harvested-capacitor config (configure_sender can still override or
  /// clear it per device — it runs after this default is applied).
  /// Scenario::faults() auto-registers every harvesting device's
  /// EnergyGovernor as an energy-fault target, in device order.
  ScenarioBuilder& harvesting(core::HarvestingConfig cfg) {
    harvesting_ = cfg;
    return *this;
  }
  /// Fault schedule hook: runs once against the scenario's lazily-built
  /// FaultInjector at build time, after every device is constructed and
  /// its energy target registered. Keeps fault wiring inside the
  /// builder so a scripted scenario is one self-contained expression.
  ScenarioBuilder& configure_faults(std::function<void(FaultInjector&)> fn) {
    configure_faults_ = std::move(fn);
    return *this;
  }
  /// Hook to adjust each gateway's ReceiverConfig.
  ScenarioBuilder& configure_gateway(
      std::function<void(core::ReceiverConfig&, int)> fn) {
    configure_gateway_ = std::move(fn);
    return *this;
  }
  /// Override default grid placement.
  ScenarioBuilder& place_device(std::function<Position(int)> fn) {
    place_device_ = std::move(fn);
    return *this;
  }
  /// Override default diagonal gateway placement.
  ScenarioBuilder& place_gateway(std::function<Position(int)> fn) {
    place_gateway_ = std::move(fn);
    return *this;
  }
  /// Override the per-device RNG (default: master.fork() per device).
  /// Legacy setups that pinned explicit per-node seeds use this to stay
  /// bit-identical.
  ScenarioBuilder& device_rng(std::function<Rng(int)> fn) {
    device_rng_ = std::move(fn);
    return *this;
  }
  // --- sharded parallel engine ----------------------------------------------
  /// Run on the sharded parallel engine with this many worker threads.
  /// 0 (default) = the serial engine: the one-shard case of the same
  /// wiring, with no ParallelEngine, the unforked medium_seed() and
  /// run_until() calling the single scheduler inline — bit-identical to
  /// every pre-sharding build. With threads > 0 the fleet is striped
  /// across shards() per-shard schedulers/mediums and advanced in
  /// window() conservative time windows; results depend on the SHARD
  /// count, not the thread count (see sim/parallel.hpp). Parallel
  /// scenarios reject faults()/attach_invariants()/chaos_targets()/
  /// trace()/sample_every()/configure_faults()/rules() — those
  /// subsystems still assume one event core.
  ScenarioBuilder& threads(unsigned t) { threads_ = t; return *this; }
  /// Spatial stripes (and independent event cores) for the parallel
  /// engine. Fixed default of 8 so digests are comparable across thread
  /// counts out of the box. Ignored when threads() is 0: the serial
  /// engine is always one core.
  ScenarioBuilder& shards(std::size_t s) { shards_ = s; return *this; }
  /// Conservative window length for cross-shard commit (see
  /// sim/parallel.hpp for what this trades away). Ignored when serial.
  ScenarioBuilder& window(Duration w) { window_ = w; return *this; }

  /// Stagger duty-cycle starts uniformly across one period (default on —
  /// avoids the t=0 thundering herd). Off = all devices start at t=0.
  ScenarioBuilder& stagger_starts(bool on) { stagger_ = on; return *this; }
  /// Power-timeline retention per device (see PowerTimeline).
  ScenarioBuilder& timeline_max_segments(std::size_t n) {
    timeline_max_segments_ = n;
    return *this;
  }
  /// Schedule every device's duty cycle at build time (default). Off =
  /// the caller starts devices manually.
  ScenarioBuilder& auto_start(bool on) { auto_start_ = on; return *this; }
  /// Callback for every message any gateway delivers (the scenario's
  /// aggregate messages() counter is maintained regardless).
  ScenarioBuilder& on_message(core::Receiver::MessageCallback cb) {
    on_message_ = std::move(cb);
    return *this;
  }
  /// Per-cycle send report callback (device index, report).
  ScenarioBuilder& on_send_report(
      std::function<void(int, const core::SendReport&)> fn) {
    on_send_report_ = std::move(fn);
    return *this;
  }

  // --- rules engine ----------------------------------------------------------
  /// Declarative fleet rules, evaluated over every message any gateway
  /// delivers (see wile/rules/engine.hpp). Serial engine only, and not
  /// with mode(TxMode::Ble), whose scanners deliver no messages (build()
  /// throws). Telemetry lands under "rules.*" (rules.fired, per-rule/node
  /// counters).
  ScenarioBuilder& rules(std::vector<rules::RuleSpec> specs) {
    rules_ = std::move(specs);
    return *this;
  }
  /// Period of the staleness sweep (Engine::poll). Without this,
  /// stale_after rules never fire.
  ScenarioBuilder& rules_poll_every(Duration period) {
    rules_poll_period_ = period;
    return *this;
  }

  // --- telemetry knobs -------------------------------------------------------
  /// Master switch. Disabled = no metrics are registered at all: zero
  /// registry entries, zero snapshots, zero sampler events — the
  /// simulation is byte-identical to a pre-telemetry build.
  ScenarioBuilder& telemetry(bool on) { telemetry_ = on; return *this; }
  /// Register per-node metrics (node.<id>.sender.* / .receiver.*) in
  /// addition to aggregates. <id> is the fleet-wide index (devices, then
  /// gateways) — each node's NodeId on the serial engine, and the same
  /// name on the sharded one. A node costs one registry row plus its
  /// histograms' buckets; what grows with the fleet is the export, about
  /// 450 B of JSON per node. Default on; scale_fleet turns it off above
  /// 10k nodes, since its last run's export (1M devices) is a committed
  /// file.
  ScenarioBuilder& per_node_metrics(bool on) { per_node_ = on; return *this; }
  /// Enable protocol-phase tracing with the given event-buffer bound.
  ScenarioBuilder& trace(bool on,
                         std::size_t max_events = telemetry::Tracer::kDefaultMaxEvents) {
    trace_ = on;
    trace_max_events_ = max_events;
    return *this;
  }
  /// Periodically snapshot aggregate metrics on a scheduler timer.
  ScenarioBuilder& sample_every(Duration period) {
    sample_period_ = period;
    return *this;
  }

  [[nodiscard]] std::unique_ptr<Scenario> build() const;

 private:
  friend class Scenario;

  int n_devices_ = 0;
  TxMode mode_ = TxMode::WiLeBeacon;
  WurFleetOptions wur_opts_{};
  BleFleetOptions ble_opts_{};
  std::function<void(int, const ble::AdvertisingPdu&, double)> on_adv_;
  double spacing_m_ = 5.0;
  int gateway_every_ = 2500;
  std::optional<int> n_gateways_;
  Duration period_ = seconds(60);
  Duration wake_jitter_ = msec(500);
  std::uint64_t master_seed_ = 0xF1EE7C0DE;
  std::uint64_t medium_seed_ = 0xF1EE7;
  phy::ChannelConfig channel_{};
  std::optional<double> loss_floor_;
  std::function<core::Sender::PayloadProvider(int)> make_provider_;
  std::function<void(core::SenderConfig&, int)> configure_sender_;
  std::optional<core::HarvestingConfig> harvesting_;
  std::function<void(FaultInjector&)> configure_faults_;
  std::function<void(core::ReceiverConfig&, int)> configure_gateway_;
  std::function<Position(int)> place_device_;
  std::function<Position(int)> place_gateway_;
  std::function<Rng(int)> device_rng_;
  unsigned threads_ = 0;
  std::size_t shards_ = 8;
  Duration window_ = msec(10);
  bool stagger_ = true;
  std::size_t timeline_max_segments_ = 64;
  bool auto_start_ = true;
  core::Receiver::MessageCallback on_message_;
  std::function<void(int, const core::SendReport&)> on_send_report_;
  std::vector<rules::RuleSpec> rules_;
  std::optional<Duration> rules_poll_period_;
  bool telemetry_ = true;
  bool per_node_ = true;
  bool trace_ = false;
  std::size_t trace_max_events_ = telemetry::Tracer::kDefaultMaxEvents;
  std::optional<Duration> sample_period_;
};

}  // namespace wile::sim
