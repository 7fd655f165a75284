#include "wile/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace wile::sim {

namespace {

/// Run `go` now, or at `at` on `scheduler` when starts are staggered.
template <typename F>
void start_node(Scheduler& scheduler, bool stagger, TimePoint at, F go) {
  if (stagger) {
    scheduler.schedule_at(at, std::move(go));
  } else {
    go();
  }
}

}  // namespace

ScenarioBuilder& ScenarioBuilder::payload(Bytes fixed) {
  make_provider_ = [fixed = std::move(fixed)](int) -> core::Sender::PayloadProvider {
    return [fixed] { return fixed; };
  };
  return *this;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() const {
  if (n_devices_ < 0) throw std::invalid_argument("ScenarioBuilder: devices < 0");
  if (mode_ == TxMode::Wur && n_devices_ > static_cast<int>(phy::WurPhy::kMaxId)) {
    // Unicast WUR IDs are 12-bit; a bigger fleet would alias wake frames.
    throw std::invalid_argument(
        "ScenarioBuilder: a WUR fleet supports at most 4095 devices "
        "(12-bit WUR ID space)");
  }
  if (mode_ != TxMode::Wur && period_.count() <= 0) {
    // A zero period re-arms every wake timer at the same instant forever
    // (Wi-LE) or overlaps advertising events on one radio (BLE). WUR
    // fleets run on the AP's cadence, which rejects zero itself.
    throw std::invalid_argument("ScenarioBuilder: duty_cycle must be > 0");
  }
  if (mode_ == TxMode::WiLeBeacon && wake_jitter_ >= period_) {
    // The jitter could then schedule a wake at or before the current one.
    throw std::invalid_argument(
        "ScenarioBuilder: wake_jitter must be shorter than duty_cycle");
  }
  if (mode_ == TxMode::Ble && !rules_.empty()) {
    // BleScanners accept advertising PDUs, not Wi-LE messages: nothing
    // would ever feed the engine, yet its staleness poll would still run.
    throw std::invalid_argument(
        "ScenarioBuilder: rules need gateway Receivers; mode(TxMode::Ble) has none");
  }
  if (threads_ > 0) {
    // These subsystems hold a reference to THE scheduler/medium and run
    // unsynchronized callbacks; the sharded engine has neither a single
    // core nor a single thread. Reject at build time, loudly.
    if (trace_ || sample_period_ || configure_faults_ || !rules_.empty()) {
      throw std::invalid_argument(
          "ScenarioBuilder: trace/sample_every/configure_faults/rules require "
          "the serial engine (threads(0))");
    }
    if (shards_ == 0) throw std::invalid_argument("ScenarioBuilder: shards == 0");
  }
  // Scenario's constructor is private; go through new directly.
  return std::unique_ptr<Scenario>(new Scenario(*this));
}

// One wiring path for every mode and engine. The serial engine is the
// one-core case: its core draws the unforked medium seed and run_until
// calls its scheduler inline. Every node attaches to the core its
// position falls in, so the only thing the engine choice changes is
// WHICH core that is. Shard assignment is a pure function of position
// and shard count, never of thread count, which is what makes sharded
// digests comparable across threads={1,2,4}.
Scenario::Scenario(const ScenarioBuilder& b)
    : telemetry_enabled_(b.telemetry_),
      // Derived, not equal to any seed the medium/devices use: the fault
      // injector's rng must not alias theirs.
      fault_seed_(b.master_seed_ ^ 0x0FA1'7000),
      mode_(b.mode_),
      user_on_message_(b.on_message_),
      user_on_adv_(b.on_adv_) {
  const int n = b.n_devices_;
  const int side =
      n > 0 ? static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) : 1;
  const double extent = side * b.spacing_m_;
  const auto period_us =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     b.period_)
                                     .count());

  // --- event cores -----------------------------------------------------------
  // Sharded: the medium RNG master forks once per shard in shard order,
  // so every shard draws an independent loss/PER stream and the set of
  // streams depends only on the shard count.
  const bool sharded = b.threads_ > 0;
  const std::size_t n_cores = sharded ? b.shards_ : 1;
  Rng medium_master{b.medium_seed_};
  cores_.reserve(n_cores);  // gateway callbacks hold pointers into cores_
  for (std::size_t s = 0; s < n_cores; ++s) {
    EventCore core;
    core.scheduler = std::make_unique<Scheduler>();
    core.medium = std::make_unique<Medium>(*core.scheduler, phy::Channel{b.channel_},
                                           sharded ? medium_master.fork()
                                                   : Rng{b.medium_seed_});
    if (b.loss_floor_) core.medium->set_loss_floor(*b.loss_floor_);
    cores_.push_back(std::move(core));
  }
  if (sharded) {
    std::vector<ParallelEngine::Shard> shards;
    shards.reserve(n_cores);
    for (auto& core : cores_) {
      shards.push_back(ParallelEngine::Shard{core.scheduler.get(), core.medium.get()});
    }
    // The router needs a non-empty span; node placement keeps the true
    // extent, so narrow grids place gateways the same on both engines.
    engine_ = std::make_unique<ParallelEngine>(std::move(shards), 0.0,
                                               std::max(extent, 1.0), b.window_,
                                               b.threads_);
  }
  const auto core_at = [this](const Position& pos) -> EventCore& {
    return engine_ ? cores_[engine_->router().shard_of(pos.x_m)] : cores_.front();
  };

  tracer_.set_max_events(b.trace_max_events_);
  tracer_.set_enabled(b.trace_);
  if (!b.rules_.empty()) {
    rules_engine_ = std::make_unique<rules::Engine>(b.rules_);
    if (b.rules_poll_period_) schedule_rules_poll(*b.rules_poll_period_);
  }

  // --- devices: exact scale_fleet wiring order -------------------------------
  // Master fork per device and the staggered-start schedule_at are
  // interleaved inside one loop, in this order, because that is the
  // historical construction sequence the determinism oracle pinned.
  // Device i draws the same fork in every mode, so a BLE fleet shares
  // the Wi-LE grid, stagger and RNG streams but none of its node types.
  const auto make_provider = [&b](int i) -> core::Sender::PayloadProvider {
    if (b.make_provider_) return b.make_provider_(i);
    return [] { return Bytes(16, 0xA5); };
  };
  const auto device_position = [&b, side](int i) {
    return b.place_device_ ? b.place_device_(i)
                           : Position{(i % side) * b.spacing_m_, (i / side) * b.spacing_m_};
  };
  Rng master{b.master_seed_};
  // Devices share a profile while their configs differ only in identity:
  // each device is offered the previous device's profile, which its
  // constructor takes when it fits (one SenderProfile::fits per device).
  std::shared_ptr<const core::SenderProfile> profile;
  if (mode_ == TxMode::Ble) {
    ble_advertisers_.reserve(static_cast<std::size_t>(n));
  } else {
    senders_.reserve(static_cast<std::size_t>(n));
  }
  for (int i = 0; i < n; ++i) {
    // Stagger starts uniformly across one period so the fleet doesn't
    // wake in a single thundering herd at t=0.
    const TimePoint start{usec(static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(i) * period_us) / static_cast<std::uint64_t>(n)))};

    if (mode_ == TxMode::Ble) {
      ble::BleAdvertiserConfig cfg = b.ble_opts_.advertiser;
      cfg.address = MacAddress::from_seed(0xB1E0'0000u + static_cast<std::uint64_t>(i) + 1);
      cfg.adv_interval = b.period_;
      cfg.adv_delay_max = b.ble_opts_.adv_delay_max;
      const Position pos = device_position(i);
      Rng rng = master.fork();  // advDelay stream
      EventCore& core = core_at(pos);
      ble_advertisers_.push_back(std::make_unique<ble::BleAdvertiser>(
          *core.scheduler, *core.medium, pos, cfg, std::move(rng)));
      if (!b.auto_start_) continue;
      start_node(*core.scheduler, b.stagger_, start,
                 [a = ble_advertisers_.back().get(), provider = make_provider(i)] {
                   a->start(std::move(provider));
                 });
      continue;
    }

    core::SenderConfig cfg;
    cfg.device_id = static_cast<std::uint32_t>(i + 1);
    cfg.period = b.period_;
    cfg.wake_jitter = b.wake_jitter_;
    cfg.timeline_max_segments = b.timeline_max_segments_;
    if (b.harvesting_) cfg.harvesting = b.harvesting_;
    if (mode_ == TxMode::Wur) {
      // Mode-preset default; configure_sender below can still override
      // any of it per device (e.g. a custom receiver model).
      cfg.wur = core::WurCompanionConfig{b.wur_opts_.receiver};
    }
    if (b.configure_sender_) b.configure_sender_(cfg, i);

    const Position pos = device_position(i);
    // The fork happens whether or not device_rng overrides it, so
    // toggling the override never shifts the master sequence for later
    // consumers.
    Rng forked = master.fork();
    Rng rng = b.device_rng_ ? b.device_rng_(i) : std::move(forked);
    EventCore& core = core_at(pos);
    senders_.push_back(std::make_unique<core::Sender>(*core.scheduler, *core.medium, pos,
                                                      profile, cfg, std::move(rng)));
    core::Sender* s = senders_.back().get();
    profile = s->shared_profile();
    if (b.trace_) s->set_tracer(&tracer_);

    if (!b.auto_start_) continue;
    core::Sender::PayloadProvider provider = make_provider(i);
    core::Sender::SendCallback per_cycle;
    if (b.on_send_report_) {
      per_cycle = [fn = b.on_send_report_, i](const core::SendReport& r) {
        fn(i, r);
      };
    }
    if (cfg.wur) {
      // The AP owns the cadence: arm the companion receiver instead of
      // scheduling a local duty-cycle timer (no stagger — the device
      // transmits only when woken).
      s->arm_wur(std::move(provider), std::move(per_cycle));
    } else {
      start_node(*core.scheduler, b.stagger_, start,
                 [s, provider = std::move(provider), per_cycle = std::move(per_cycle)] {
                   s->start_duty_cycle(std::move(provider), std::move(per_cycle));
                 });
    }
  }

  // --- gateways --------------------------------------------------------------
  // Environment-only scenarios (devices(0)) get no implicit gateway;
  // any fleet gets at least one. Each gateway counts into its own core's
  // tally: on the sharded engine the callback runs on that core's worker
  // thread, and per-core counters need no atomics.
  const int n_gw = b.n_gateways_
                       ? *b.n_gateways_
                       : (n > 0 ? std::max(1, n / std::max(1, b.gateway_every_)) : 0);
  const auto gateway_position = [&b, extent, n_gw](int k) {
    const double c = (k + 0.5) * extent / n_gw;  // along the diagonal
    return b.place_gateway_ ? b.place_gateway_(k) : Position{c, c};
  };
  if (mode_ == TxMode::Ble) {
    ble_scanners_.reserve(static_cast<std::size_t>(n_gw));
  } else {
    receivers_.reserve(static_cast<std::size_t>(n_gw));
  }
  for (int k = 0; k < n_gw; ++k) {
    if (mode_ == TxMode::Ble) {
      const Position pos = gateway_position(k);
      EventCore& core = core_at(pos);
      ble_scanners_.push_back(
          std::make_unique<ble::BleScanner>(*core.scheduler, *core.medium, pos));
      ble_scanners_.back()->set_callback(
          [this, k, counter = &core.messages](const ble::AdvertisingPdu& pdu,
                                              double rssi) {
            ++*counter;
            if (user_on_adv_) user_on_adv_(k, pdu, rssi);
          });
      continue;
    }

    core::ReceiverConfig cfg;
    if (b.configure_gateway_) b.configure_gateway_(cfg, k);
    const Position pos = gateway_position(k);
    EventCore& core = core_at(pos);
    receivers_.push_back(
        std::make_unique<core::Receiver>(*core.scheduler, *core.medium, pos, cfg));
    receivers_.back()->set_message_callback(
        [this, counter = &core.messages,
         key = static_cast<std::uint32_t>(receivers_.back()->node_id())](
            const core::Message& msg, const core::RxMeta& meta) {
          ++*counter;
          // A delivery is reported as it happens: received_at is now.
          if (monitor_) monitor_->on_delivery(key, msg.device_id, msg.sequence, meta.received_at);
          if (rules_engine_) rules_engine_->on_message(msg, meta.rssi_dbm, meta.received_at);
          if (user_on_message_) user_on_message_(msg, meta);
        });
  }

  // --- WUR access point ------------------------------------------------------
  // Built after the fleet so round-robin can collect the derived WUR
  // IDs in device order. Transmit-only (rx_enabled false, and out of
  // the medium's listener index), so attaching it never adds medium RNG
  // draws for frames it merely overhears. On the sharded engine, wake
  // frames to devices on other shards ride the boundary-transmission
  // phantoms like any other cross-shard traffic.
  if (mode_ == TxMode::Wur && n > 0) {
    const Position ap_pos{extent / 2.0, extent / 2.0};
    EventCore& core = core_at(ap_pos);
    // Derived seed: the AP's CSMA backoff stream must alias neither the
    // device forks nor the medium stream.
    wur_ap_ = std::make_unique<ap::WurScheduler>(*core.scheduler, *core.medium, ap_pos,
                                                 Rng{b.master_seed_ ^ 0x11BA'0000},
                                                 b.wur_opts_.scheduler);
    if (b.auto_start_) {
      const Duration cadence =
          b.wur_opts_.cadence.count() > 0 ? b.wur_opts_.cadence : b.period_;
      std::vector<std::uint16_t> ids;
      ids.reserve(senders_.size());
      for (auto& s : senders_) ids.push_back(s->wur_id());
      wur_ap_->start_round_robin(std::move(ids), cadence);
    }
  }

  // --- fault schedule --------------------------------------------------------
  // Runs after every device exists (so the injector already holds the
  // fleet's energy targets) and before telemetry, matching the hand
  // wiring order the bit-identity tests pin.
  if (b.configure_faults_) b.configure_faults_(faults());

  // --- telemetry bindings ----------------------------------------------------
  // Everything above ran without touching the registry, so a disabled
  // scenario is byte-identical to a pre-telemetry build: zero registry
  // entries, zero extra events, zero extra RNG draws. Aggregates keep
  // one set of names on both engines, so every consumer (export schema,
  // dashboards) reads sharded runs unchanged.
  if (!telemetry_enabled_) return;

  registry_.bind_counter_fn("scheduler.events_run", [this] { return events_run(); });
  registry_.bind_gauge_fn("scheduler.pending_events", [this] {
    std::size_t pending = 0;
    for (const auto& core : cores_) pending += core.scheduler->pending_events();
    return static_cast<double>(pending);
  });
  registry_.bind_gauge_fn("sim.time_us", [this] {
    return static_cast<double>(now().since_epoch().count());
  });
  registry_.bind_counter_fn("medium.transmissions",
                            [this] { return medium_stats().transmissions; });
  registry_.bind_counter_fn("medium.deliveries", [this] { return medium_stats().deliveries; });
  registry_.bind_counter_fn("medium.collision_losses",
                            [this] { return medium_stats().collision_losses; });
  registry_.bind_counter_fn("medium.channel_losses",
                            [this] { return medium_stats().channel_losses; });
  registry_.bind_counter_fn("medium.nodes", [this] {
    std::uint64_t nodes = 0;
    for (const auto& core : cores_) nodes += core.medium->node_count();
    return nodes;
  });
  // Impairment gauges: the largest setting on any core. Faults set them
  // on the serial engine only, so the sharded cores all read the default.
  const auto bind_impairment = [this](const char* name, double (Medium::*knob)() const) {
    registry_.bind_gauge_fn(name, [this, knob] {
      double worst = (cores_.front().medium.get()->*knob)();
      for (const auto& core : cores_) worst = std::max(worst, (core.medium.get()->*knob)());
      return worst;
    });
  };
  bind_impairment("medium.noise_offset_db", &Medium::noise_offset_db);
  bind_impairment("medium.per_multiplier", &Medium::per_multiplier);
  bind_impairment("medium.loss_floor", &Medium::loss_floor);
  registry_.bind_counter_fn("fleet.messages", [this] { return messages(); });
  // One of each pair is empty: the mode picks the node types.
  registry_.bind_gauge_fn("fleet.devices", [this] {
    return static_cast<double>(senders_.size() + ble_advertisers_.size());
  });
  registry_.bind_gauge_fn("fleet.gateways", [this] {
    return static_cast<double>(receivers_.size() + ble_scanners_.size());
  });
  if (wur_ap_) {
    registry_.bind_counter_fn("wur.ap.wakes_sent",
                              [this] { return wur_ap_->wakes_sent(); });
    registry_.bind_gauge_fn("wur.ap.tx_airtime_us", [this] {
      return static_cast<double>(wur_ap_->tx_airtime_total().count());
    });
  }
  if (rules_engine_) rules_engine_->publish_metrics(registry_, "rules");

  if (engine_) {
    registry_.bind_gauge_fn("parallel.threads", [this] {
      return static_cast<double>(engine_->threads());
    });
    registry_.bind_gauge_fn("parallel.shards", [this] {
      return static_cast<double>(cores_.size());
    });
    registry_.bind_gauge_fn("parallel.window_us", [this] {
      return static_cast<double>(engine_->window().count());
    });
    for (std::size_t s = 0; s < cores_.size(); ++s) {
      const std::string prefix = "parallel.shard" + std::to_string(s);
      registry_.bind_counter_fn(prefix + ".windows",
                                [this, s] { return engine_->shard_stats()[s].windows; });
      registry_.bind_counter_fn(prefix + ".barrier_stalls", [this, s] {
        return engine_->shard_stats()[s].barrier_stalls;
      });
      registry_.bind_counter_fn(prefix + ".boundary_tx_in", [this, s] {
        return engine_->shard_stats()[s].boundary_tx_in;
      });
      registry_.bind_counter_fn(prefix + ".boundary_tx_out", [this, s] {
        return engine_->shard_stats()[s].boundary_tx_out;
      });
    }
  }

  if (b.per_node_) {
    // Numbered by fleet-wide index (devices, then gateways): the serial
    // engine's NodeIds, which shards would repeat, since each numbers
    // its own nodes from 0.
    NodeId id = 0;
    for (auto& s : senders_) s->publish_metrics(registry_, id++);
    for (auto& r : receivers_) r->publish_metrics(registry_, id++);
  }

  if (b.sample_period_) {
    sampler_ = std::make_unique<telemetry::PeriodicSampler<Scheduler>>(
        scheduler(), registry_, *b.sample_period_);
    sampler_->start();
  }
}

Scenario::~Scenario() = default;

void Scenario::require_serial(const char* what) const {
  if (engine_) {
    throw std::logic_error(std::string("Scenario: ") + what +
                           " requires the serial engine (built with threads(0))");
  }
}

Scheduler& Scenario::scheduler() {
  require_serial("scheduler()");
  return *cores_.front().scheduler;
}

Medium& Scenario::medium() {
  require_serial("medium()");
  return *cores_.front().medium;
}

std::uint64_t Scenario::events_run() const {
  std::uint64_t n = 0;
  for (const auto& core : cores_) n += core.scheduler->events_run();
  return n;
}

Medium::Stats Scenario::medium_stats() const {
  Medium::Stats total;
  for (const auto& core : cores_) {
    const Medium::Stats& m = core.medium->stats();
    total.transmissions += m.transmissions;
    total.deliveries += m.deliveries;
    total.collision_losses += m.collision_losses;
    total.channel_losses += m.channel_losses;
  }
  return total;
}

TimePoint Scenario::now() const {
  TimePoint t{};
  for (const auto& core : cores_) t = std::max(t, core.scheduler->now());
  return t;
}

std::uint64_t Scenario::messages() const {
  std::uint64_t total = 0;
  for (const auto& core : cores_) total += core.messages;
  return total;
}

void Scenario::run_until(TimePoint deadline) {
  if (engine_) {
    engine_->run_until(deadline);
  } else {
    cores_.front().scheduler->run_until(deadline);
  }
}

FaultInjector& Scenario::faults() {
  require_serial("faults()");
  if (!faults_) {
    faults_ = std::make_unique<FaultInjector>(scheduler(), medium(), Rng{fault_seed_});
    if (telemetry_enabled_) faults_->publish_metrics(registry_);
    // Every harvesting device is an energy-fault target, in device
    // order, so fleet-wide brown-outs / droughts hit the whole fleet
    // without per-scenario wiring.
    for (auto& s : senders_) {
      if (auto* governor = s->energy_governor()) {
        faults_->attach_energy_target(governor);
      }
    }
  }
  return *faults_;
}

void Scenario::attach_invariants(InvariantMonitor& monitor) {
  require_serial("attach_invariants()");
  Scheduler* sched = &scheduler();
  const Medium* med = &medium();
  // Scheduler: simulated time and the event counter only move forward.
  monitor.add_monotone_counter("scheduler.time_us", [sched] {
    return static_cast<std::uint64_t>(sched->now().since_epoch().count());
  });
  monitor.add_monotone_counter("scheduler.events_run",
                               [sched] { return sched->events_run(); });

  // Frame-buffer accounting: a frame moves train -> CSMA slot -> medium,
  // so every payload allocation alive has exactly one owner, and each
  // owner is counted here: an in-flight transmission, a CSMA queue (a
  // device's or the WUR AP's), or a device's train of beacons not yet
  // handed on. A component keeping a frame past its contract (an
  // RxFrame held after on_frame) leaves more live buffers than owners;
  // two owners of one allocation leave fewer. Sweeps run as scheduler
  // events, so no delivery is mid-flight when this is sampled.
  monitor.add_check("medium.frame_buffer_leak", [this, med]() -> std::optional<std::string> {
    const std::uint64_t live = FrameBuffer::live_buffers();
    std::uint64_t owned = med->active_transmissions();
    for (const auto& s : senders_) owned += s->frames_held();
    if (wur_ap_) owned += wur_ap_->frames_held();
    if (live != owned) {
      return std::to_string(live) + " live frame buffers but " + std::to_string(owned) +
             " owned by transmissions, CSMA queues and trains";
    }
    return std::nullopt;
  });

  // Gateways: reassembler partial tables stay bounded, and no (device,
  // sequence) pair is ever delivered twice by the same gateway. Every
  // gateway's message callback reports its deliveries to monitor_.
  monitor_ = &monitor;
  for (auto& r : receivers_) {
    core::Receiver* gw = r.get();
    monitor.add_bounded_gauge(
        "receiver.partial_table_bound",
        [gw] { return static_cast<double>(gw->reassembler_partials()); }, 0.0,
        static_cast<double>(gw->config().max_partials), gw->node_id());
  }

  for (auto& s : senders_) {
    const core::Sender* dev = s.get();
    // Sequence numbers never run backwards — a brown-out resume that
    // rewound the counter would replay sequences the gateway has seen.
    monitor.add_monotone_counter(
        "sender.sequence_monotone", [dev] { return std::uint64_t{dev->next_sequence()}; },
        dev->node_id());

    if (const power::EnergyGovernor* gov = dev->energy_governor()) {
      // Energy conservation: stored charge can never exceed what the
      // initial charge plus an unfaded harvest could have supplied, nor
      // leave [0, capacity]. projected_charge is const — the oracle
      // never perturbs settlement, so attaching it cannot change a run.
      const auto& hcfg = gov->harvester().config();
      const double capacity = gov->harvester().capacity().value;
      const double initial = capacity * hcfg.initial_charge_fraction;
      const double harvest_w = hcfg.harvest_power.value;
      const double tol = 1e-9 + 1e-6 * capacity;
      monitor.add_check(
          "sender.energy_conservation",
          [sched, gov, capacity, initial, harvest_w, tol]() -> std::optional<std::string> {
            const TimePoint now = sched->now();
            const double q = gov->projected_charge(now).value;
            const double elapsed_s =
                static_cast<double>(now.since_epoch().count()) / 1e6;
            const double upper =
                std::min(capacity, initial + harvest_w * elapsed_s) + tol;
            if (q < -tol) {
              return "stored energy negative: " + std::to_string(q) + " J";
            }
            if (q > upper) {
              return "stored energy " + std::to_string(q) +
                     " J exceeds harvestable bound " + std::to_string(upper) + " J";
            }
            return std::nullopt;
          },
          dev->node_id());
    }
  }
}

ChaosTargets Scenario::chaos_targets() {
  require_serial("chaos_targets()");
  ChaosTargets targets;
  targets.faults = &faults();
  targets.device_nodes.reserve(senders_.size());
  targets.clock_drift.reserve(senders_.size());
  targets.energy.reserve(senders_.size());
  for (auto& s : senders_) {
    targets.device_nodes.push_back(s->node_id());
    targets.clock_drift.push_back(
        [dev = s.get()](double ppm) { dev->apply_clock_drift_ppm(ppm); });
    targets.energy.push_back(s->energy_governor());
  }
  for (auto& r : receivers_) targets.gateway_nodes.push_back(r->node_id());
  if (!receivers_.empty()) {
    targets.jammer_position = medium().position(receivers_.front()->node_id());
  }
  return targets;
}

const std::vector<telemetry::Snapshot>& Scenario::samples() const {
  static const std::vector<telemetry::Snapshot> kEmpty;
  return sampler_ ? sampler_->samples() : kEmpty;
}

std::string Scenario::export_json(telemetry::ExportMeta meta,
                                  bool include_trace_events) {
  return telemetry::to_json(registry_, now(), samples(), meta, &tracer_, include_trace_events);
}

void Scenario::schedule_rules_poll(Duration every) {
  scheduler().schedule_in(every, [this, every] {
    rules_engine_->poll(now());
    schedule_rules_poll(every);
  });
}

void Scenario::stop_all() {
  for (auto& s : senders_) {
    s->stop_duty_cycle();
    s->disarm_wur();
  }
  for (auto& a : ble_advertisers_) a->stop();
  if (wur_ap_) wur_ap_->stop();
}

}  // namespace wile::sim
