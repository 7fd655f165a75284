#include "wile/sender.hpp"

#include <algorithm>
#include <tuple>

#include "crypto/crc.hpp"
#include "dot11/mgmt.hpp"

namespace wile::core {

using power::PhaseId;

namespace {

SenderConfig without_identity(SenderConfig config) {
  config.device_id = 0;
  config.mac = MacAddress::zero();
  config.clock_ppm_error = 0.0;
  return config;
}

// Every field of `c` but the identity ones, in place. The binding names
// all fields, so a new one fails to compile here until it is listed.
auto shared_fields(const SenderConfig& c) {
  const auto& [device_id, mac, rate, band, tx_power_dbm, key, period, clock_ppm_error, wake_jitter,
               use_csma, beacon_interval_tu, spoofed_ssid, ssid_stuffing, rx_window, reliable,
               reliable_max_attempts, initial_sequence, redundancy, harvesting, wur, power,
               timeline_max_segments] = c;
  return std::tie(rate, band, tx_power_dbm, key, period, wake_jitter, use_csma, beacon_interval_tu,
                  spoofed_ssid, ssid_stuffing, rx_window, reliable, reliable_max_attempts,
                  initial_sequence, redundancy, harvesting, wur, power, timeline_max_segments);
}

Bytes beacon_body_prefix(const SenderConfig& config) {
  // The timestamp placeholder is patched per beacon; SSID (hidden unless
  // spoofed), rates and channel never change for a device.
  dot11::Beacon prototype;
  prototype.beacon_interval_tu = config.beacon_interval_tu;
  prototype.capability = dot11::Capability::kEss | dot11::Capability::kShortSlot;
  prototype.ies.add(dot11::make_ssid_ie(config.spoofed_ssid));  // "" = hidden
  prototype.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  prototype.ies.add(dot11::make_ds_param_ie(6));
  return prototype.encode();
}

/// `candidate` when the device set up by `config` can run on it, else a
/// profile of the device's own: the one SenderProfile::fits per device.
std::shared_ptr<const SenderProfile> fitted(std::shared_ptr<const SenderProfile> candidate,
                                            const SenderConfig& config) {
  if (candidate != nullptr && candidate->fits(config)) return candidate;
  return std::make_shared<const SenderProfile>(config);
}

sim::CsmaConfig csma_config(const SenderConfig& config) {
  sim::CsmaConfig csma;
  csma.tx_power_dbm = config.tx_power_dbm;
  csma.band = config.band;
  return csma;
}

}  // namespace

SenderProfile::SenderProfile(SenderConfig from)
    : config(without_identity(std::move(from))),
      body_prefix(beacon_body_prefix(this->config)),
      codec(this->config.key ? Codec{*this->config.key} : Codec{}) {}

bool SenderProfile::fits(const SenderConfig& other) const {
  return shared_fields(config) == shared_fields(other);
}

Sender::Sender(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
               SenderConfig config, Rng rng)
    : Sender(scheduler, medium, position, nullptr, config, rng) {}

Sender::Sender(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
               std::shared_ptr<const SenderProfile> candidate, const SenderConfig& config,
               Rng rng)
    : scheduler_(scheduler),
      medium_(medium),
      profile_(fitted(std::move(candidate), config)),
      device_id_(config.device_id),
      node_id_(medium_.attach(this, position)),
      clock_ppm_error_(config.clock_ppm_error),
      mac_(config.mac.is_zero() ? MacAddress::from_seed(0xB13C000ULL + config.device_id)
                                : config.mac),
      wur_(config.wur.has_value()),
      rng_(rng),
      // After the attach, as the device's first draw.
      csma_(scheduler_, medium_, node_id_, rng_.fork(), csma_config(config)),
      timeline_(config.power.supply),
      tracker_(scheduler, timeline_, config.power.radio_tx, config.power.tx_ramp) {
  sequence_ = config.initial_sequence;
  timeline_.set_max_segments(config.timeline_max_segments);
  csma_.set_tx_listener([this](Duration airtime, phy::WifiRate) {
    tracker_.on_tx_start(airtime);
    trace_end(telemetry::Phase::Csma);  // deferral over, frame on the air
  });

  if (config.reliable || config.harvesting || config.redundancy.recovery_k > 0) {
    extras_ = std::make_unique<Extras>();
  }
  if (config.harvesting) {
    extras_->governor = std::make_unique<power::EnergyGovernor>(scheduler_, timeline_,
                                                                config.harvesting->harvester);
    extras_->governor->set_brown_out_handler([this] { on_brown_out(); });
    extras_->governor->set_harvest_changed_handler([this] {
      // A lifted fade turns "never" into a finite recharge time, and a
      // fresh fade invalidates a scheduled one — re-derive the resume.
      if (recovering_) schedule_resume();
    });
  }

  if (config.wur) {
    // Companion receiver: hang the always-on listen draw over every
    // future timeline segment.
    tracker_.set_overlay(config.wur->receiver.listen);
    tracker_.set_phase(config.power.deep_sleep, PhaseId::WurListen);
  } else {
    timeline_.set_current(scheduler_.now(), config.power.deep_sleep, PhaseId::Sleep);
  }
  // A sleeping Wi-LE sender is deaf: keep it out of the medium's
  // listener index until its RX window opens.
  publish_listening();
}

bool Sender::listens() const {
  if (wur_ && phase_ == Phase::DeepSleep) {
    // The uW companion receiver listens whenever the main radio sleeps —
    // unless a brown-out darkened the whole board.
    return !recovering_;
  }
  return phase_ == Phase::RxWindow;
}

bool Sender::rx_enabled() const { return listens() && !medium_.transmitting(node_id_); }

bool Sender::demodulates(const std::optional<phy::WifiRate>& rate) const {
  const bool companion = wur_ && phase_ == Phase::DeepSleep;
  return companion ? !rate.has_value() : rate.has_value();
}

void Sender::send_now(Bytes data, SendCallback done) {
  if (!may_start_cycle()) {
    throw std::logic_error("wile::Sender: send_now requires a powered board in deep sleep");
  }
  begin_cycle(std::move(data), std::move(done));
}

void Sender::start_duty_cycle(PayloadProvider provider, SendCallback per_cycle) {
  if (!provider) throw std::invalid_argument("wile::Sender: null payload provider");
  // A period the jitter can drive to zero or below would re-arm the wake
  // timer at (or before) the current instant.
  if (config().period.count() <= 0) {
    throw std::invalid_argument("wile::Sender: duty-cycle period must be > 0");
  }
  if (config().wake_jitter >= config().period) {
    throw std::invalid_argument("wile::Sender: wake_jitter must be shorter than period");
  }
  duty_cycling_ = true;
  provider_ = std::move(provider);
  per_cycle_ = std::move(per_cycle);
  schedule_next_cycle();
}

void Sender::stop_duty_cycle() { duty_cycling_ = false; }

void Sender::arm_wur(PayloadProvider provider, SendCallback per_cycle) {
  if (!config().wur) {
    throw std::logic_error("wile::Sender: arm_wur requires SenderConfig::wur");
  }
  if (!provider) throw std::invalid_argument("wile::Sender: null payload provider");
  wur_armed_ = true;
  provider_ = std::move(provider);
  per_cycle_ = std::move(per_cycle);
}

void Sender::on_wakeup_frame(const phy::WakeUpFrame& wake) {
  if (wake.group_addressed || wake.address != wur_id() || !wur_armed_ ||
      (last_wake_seq_ && *last_wake_seq_ == wake.seq)) {
    // A group wake, someone else's wake, a disarmed companion, or a
    // reliability repeat of a frame this device already acted on.
    ++wur_frames_ignored_;
    return;
  }
  last_wake_seq_ = wake.seq;
  if (!wake_gate()) return;
  ++wur_wakes_total_;
  // Companion decode + wake-interrupt latency, then the start rule: the
  // board may have browned out, or a cycle started, in the meantime.
  // The epoch strands a wake whose gap saw a cycle brown out.
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(config().wur->receiver.wake_latency, [this, epoch] {
    if (epoch == cycle_epoch_ && may_start_cycle()) sample_and_begin();
  });
}

Duration Sender::jittered_period() {
  double period_us = static_cast<double>(config().period.count());
  period_us *= 1.0 + clock_ppm_error_ * 1e-6;
  if (config().wake_jitter.count() > 0) {
    period_us += static_cast<double>(
        rng_.range(-config().wake_jitter.count(), config().wake_jitter.count()));
  }
  return Duration{static_cast<std::int64_t>(period_us)};
}

void Sender::schedule_next_cycle() {
  scheduler_.schedule_in(jittered_period(), [this] {
    if (!duty_cycling_) return;
    // Maintain the wake cadence: the next timer runs from this wake-up,
    // not from cycle completion (the deep-sleep timer on the ESP32 is
    // armed before sleeping, so the period is wake-to-wake).
    schedule_next_cycle();
    // A previous cycle still busy, or a browned-out board whose resume
    // path owns the restart, skips this tick.
    if (may_start_cycle() && wake_gate()) sample_and_begin();
  });
}

bool Sender::wake_gate() {
  power::EnergyGovernor* gov = governor();
  if (gov == nullptr) return true;
  // A cycle the capacitor cannot fund would brown out mid-flight;
  // cheaper to stay asleep and let the charge build.
  const Joules need{config().harvesting->wake_margin * estimated_cycle_cost().value};
  if (gov->can_afford(need)) return true;
  ++extras_->cycles_skipped_energy;
  return false;
}

void Sender::sample_and_begin() {
  // Reliable mode: don't consume fresh sensor data while a
  // retransmission is pending.
  Bytes data;
  if (!will_retransmit()) {
    trace_instant(telemetry::Phase::Sample);
    data = provider_();
  }
  SendCallback done;
  if (per_cycle_) done = [this](const SendReport& report) { per_cycle_(report); };
  begin_cycle(std::move(data), std::move(done));
}

dot11::MacHeader Sender::next_beacon_header() {
  dot11::MacHeader h;
  h.fc = dot11::FrameControl::mgmt(dot11::MgmtSubtype::Beacon);
  h.addr1 = MacAddress::broadcast();
  h.addr2 = mac_;
  h.addr3 = mac_;  // the device itself is the (fake) BSSID
  h.set_sequence(seq_ctl_++ & 0x0fff);
  return h;
}

void Sender::append_beacon(const Message& message, std::size_t element,
                           std::string_view stuffed_ssid) {
  const std::size_t offset = train_.size();
  next_beacon_header().write_to(train_);
  // The precomputed body prefix, its timestamp (the first 8 bytes)
  // patched to the encode instant.
  train_.u64le(static_cast<std::uint64_t>(scheduler_.now().us()));
  const BytesView prefix = BytesView{profile_->body_prefix}.subspan(8);
  if (config().ssid_stuffing) {
    // Beacon stuffing (§2): the data-bearing SSID element replaces the
    // prefix's own, which follows the interval and capability fields.
    // The prefix's other elements follow it, and no vendor element.
    constexpr std::size_t kSsidAt = 4;
    train_.bytes(prefix.first(kSsidAt));
    train_.u8(static_cast<std::uint8_t>(dot11::IeId::Ssid));
    train_.u8(static_cast<std::uint8_t>(stuffed_ssid.size()));
    train_.str(stuffed_ssid);
    train_.bytes(prefix.subspan(kSsidAt + 2 + prefix[kSsidAt + 1]));
  } else {
    train_.bytes(prefix);
    profile_->codec.write_element(train_, message, element);  // the data-bearing element
  }
  train_.u32le(crypto::crc32(train_.view().subspan(offset)));  // FCS over the MPDU
  train_entries_.push_back({static_cast<std::uint32_t>(offset),
                            static_cast<std::uint32_t>(train_.size() - offset)});
}

std::optional<Message> Sender::maybe_recovery_message() {
  const RedundancyTier& tier = config().redundancy;
  const auto k = static_cast<std::size_t>(
      std::clamp<int>(tier.recovery_k, 0, static_cast<int>(kMaxRecoveryGroup)));
  if (k == 0) return std::nullopt;
  Extras& fec = *extras_;
  if (fec.recent_sent.size() < k) return std::nullopt;
  const int stride = tier.recovery_stride > 0 ? tier.recovery_stride
                                              : std::max<int>(1, static_cast<int>(k) / 2);
  if (fec.msgs_since_recovery < stride) return std::nullopt;
  fec.msgs_since_recovery = 0;

  const std::size_t n = fec.recent_sent.size();
  RecoveryPayload payload;
  payload.base_sequence = fec.recent_sent[n - k].sequence;
  for (std::size_t i = n - k; i < n; ++i) {
    const auto& r = fec.recent_sent[i];
    payload.entries.push_back(
        {r.type, static_cast<std::uint16_t>(std::min<std::size_t>(r.data.size(), 0xffff))});
    if (r.data.size() > payload.xor_block.size()) payload.xor_block.resize(r.data.size());
  }
  for (std::size_t i = n - k; i < n; ++i) {
    const Bytes& d = fec.recent_sent[i].data;
    for (std::size_t b = 0; b < d.size(); ++b) payload.xor_block[b] ^= d[b];
  }

  Message m;
  m.device_id = device_id_;
  m.sequence = fec.recovery_sequence++;
  m.type = MessageType::Recovery;
  m.data = encode_recovery_payload(payload);
  return m;
}

void Sender::open_cycle(bool resumed) {
  cycle_ = Cycle{};
  cycle_.wake_time = scheduler_.now();
  cycle_.resumed = resumed;
  timeline_.open_sum(cycle_.wake_time);
  trace_begin(telemetry::Phase::Cycle);
  trace_begin(telemetry::Phase::Wake);
}

void Sender::begin_cycle(Bytes data, SendCallback done) {
  ++cycles_;
  cycle_done_ = std::move(done);
  open_cycle(/*resumed=*/false);

  Message message;
  bool fresh = false;
  if (will_retransmit()) {
    // Reliable mode: repeat the unacknowledged message, same sequence.
    message = *extras_->unacked;
    cycle_.retransmission = true;
  } else {
    if (config().reliable && extras_->unacked) {
      // Retry budget exhausted: abandon and move on.
      ++extras_->dropped_unacked;
      extras_->unacked.reset();
      extras_->unacked_attempts = 0;
    }
    message.device_id = device_id_;
    message.sequence = sequence_++;
    message.type = MessageType::Telemetry;
    message.data = std::move(data);
    message.rx_window = config().rx_window;
    fresh = true;
  }
  if (config().reliable) {
    extras_->unacked = message;
    ++extras_->unacked_attempts;
  }

  const bool fec_usable = !config().ssid_stuffing;
  if (fresh && fec_usable && config().redundancy.recovery_k > 0) {
    extras_->recent_sent.push(message);
    ++extras_->msgs_since_recovery;
  }
  cycle_.sequence = message.sequence;

  // Intermittent power: checkpoint the cycle into the persistent region
  // before any risky phase. The sequence is already assigned and the FEC
  // accumulator already booked the sample, so a post-brown-out resume
  // replays the identical train instead of minting a duplicate.
  if (governor() != nullptr) extras_->checkpoint = Checkpoint{message, scheduler_.now()};

  encode_and_transmit(message, fresh && fec_usable);
}

void Sender::encode_and_transmit(const Message& message, bool include_recovery) {
  // The whole train is built now, at the encode instant, into storage
  // kept from earlier cycles.
  train_.clear();
  train_entries_.clear();
  trace_instant(telemetry::Phase::Encode);
  try {
    if (config().ssid_stuffing) {
      if (const auto stuffed = encode_ssid_stuffed(message)) {
        append_beacon(message, 0, *stuffed);
      } else {
        cycle_.failed = true;  // message does not fit the SSID field
      }
    } else {
      const std::size_t elements = profile_->codec.element_count(message);
      for (std::size_t i = 0; i < elements; ++i) append_beacon(message, i);
    }
    // Open-loop reliability: repeat the whole fragment train. Receivers
    // drop the duplicates by (device, sequence).
    const std::size_t once = train_entries_.size();
    for (int r = 1; r < std::max(config().redundancy.repeats, 1); ++r) {
      for (std::size_t i = 0; i < once; ++i) train_entries_.push_back(train_entries_[i]);
    }
    // Cross-cycle FEC: one (unrepeated) recovery beacon when due.
    if (include_recovery) {
      if (auto recovery = maybe_recovery_message()) {
        const std::size_t elements = profile_->codec.element_count(*recovery);
        for (std::size_t i = 0; i < elements; ++i) append_beacon(*recovery, i);
        ++extras_->recovery_beacons_sent;
      }
    }
  } catch (const std::invalid_argument&) {
    cycle_.failed = true;
  }

  enter_phase(Phase::Init);
  tracker_.set_phase(config().power.cpu_active, PhaseId::Init);
  const Duration init =
      config().power.boot_from_deep_sleep + config().power.wifi_inject_init;
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(init, [this, epoch] {
    if (epoch != cycle_epoch_) return;  // browned out during init
    trace_end(telemetry::Phase::Wake);
    if (maybe_brown_out()) return;  // the init phase outran the charge
    if (cycle_.failed || train_entries_.empty()) {
      finish_cycle();
      return;
    }
    enter_phase(Phase::Tx);
    tracker_.set_phase(config().power.cpu_active, PhaseId::Tx);
    trace_begin(telemetry::Phase::Tx);
    inject_fragments(0);
  });
}

void Sender::inject_fragments(std::size_t index) {
  // Organic brown-out check at every fragment boundary: a capacitor
  // that ran dry during the previous fragment kills the train here.
  if (maybe_brown_out()) return;
  if (index >= train_entries_.size()) {
    trace_end(telemetry::Phase::Tx);
    after_last_beacon();
    return;
  }
  const TrainEntry& beacon = train_entries_[index];
  const BytesView mpdu = train_.view().subspan(beacon.offset, beacon.size);
  const Duration airtime = phy::frame_airtime(mpdu.size(), config().rate, config().band);
  cycle_.airtime += airtime;
  ++cycle_.beacons;
  ++beacons_sent_total_;
  tx_airtime_total_ += airtime;

  // The continuation carries only {this, epoch, index}: the train stays
  // in train_, and a stranded epoch never reads it again.
  const std::uint64_t epoch = cycle_epoch_;
  if (config().use_csma) {
    trace_begin(telemetry::Phase::Csma);
    csma_.send(mpdu, config().rate, /*expect_ack=*/false,
                [this, epoch, index](const sim::Csma::Result&) {
                  if (epoch != cycle_epoch_) return;  // browned out mid-train
                  inject_fragments(index + 1);
                });
  } else {
    // Raw injection: fire immediately, no carrier sense (E7 ablation).
    sim::TxRequest req;
    req.mpdu = FrameBuffer{mpdu};
    req.airtime = airtime;
    req.tx_power_dbm = config().tx_power_dbm;
    req.rate = config().rate;
    req.on_complete = [this, epoch, index] {
      if (epoch != cycle_epoch_) return;  // browned out mid-train
      inject_fragments(index + 1);
    };
    tracker_.on_tx_start(airtime);
    medium_.transmit(node_id_, std::move(req));
  }
}

void Sender::after_last_beacon() {
  // The train is on the air: the sample has been transmitted, so the
  // checkpoint has nothing left to protect. A brown-out from here on
  // costs only the RX window / report, never the reading.
  if (extras_) extras_->checkpoint.reset();
  if (!config().rx_window) {
    finish_cycle();
    return;
  }
  // Two-way extension: idle briefly, then listen for the announced
  // window. The radio draws RX current for the whole window — this is
  // the energy cost E8 measures against always-on listening.
  enter_phase(Phase::Tx);  // offset gap: radio on but not yet listening
  tracker_.set_phase(config().power.cpu_active, PhaseId::RxWindow);
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(config().rx_window->offset, [this, epoch] {
    if (epoch != cycle_epoch_) return;
    if (maybe_brown_out()) return;
    enter_phase(Phase::RxWindow);
    tracker_.set_phase(config().power.radio_rx, PhaseId::RxWindow);
    trace_begin(telemetry::Phase::RxWindow);
    scheduler_.schedule_in(config().rx_window->duration, [this, epoch] {
      if (epoch != cycle_epoch_) return;
      trace_end(telemetry::Phase::RxWindow);
      finish_cycle();
    });
  });
}

void Sender::finish_cycle() {
  if (extras_) extras_->checkpoint.reset();  // cycle completed (or failed terminally)
  enter_phase(Phase::Shutdown);
  tracker_.set_phase(config().power.cpu_active, PhaseId::Init);
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(config().power.shutdown_time, [this, epoch] {
    if (epoch != cycle_epoch_) return;  // browned out during shutdown
    enter_phase(Phase::DeepSleep);
    tracker_.set_phase(config().power.deep_sleep,
                       config().wur ? PhaseId::WurListen : PhaseId::Sleep);
    // A capacitor that ran dry during shutdown browns out here; the
    // cycle's work is done, so only the recharge wait is at stake.
    maybe_brown_out();

    const Cycle& c = cycle_;
    const Duration ramp = config().power.tx_ramp;
    SendReport report;
    report.success = !c.failed && c.beacons > 0;
    report.sequence = c.sequence;
    report.resumed = c.resumed;
    report.beacons_sent = c.beacons;
    report.tx_airtime = c.airtime;
    report.tx_only_energy = tx_power_draw() * (c.airtime + Duration{ramp.count() * c.beacons});
    report.active_time = scheduler_.now() - c.wake_time;
    report.cycle_energy = timeline_.energy_since_mark(scheduler_.now());
    report.downlinks_received = c.downlinks;
    report.acked = c.acked;
    report.retransmission = c.retransmission;
    if (!report.success) ++cycles_failed_total_;
    if (cycle_active_hist_ != nullptr) {
      cycle_active_hist_->record(static_cast<std::uint64_t>(report.active_time.count()));
    }
    trace_instant(telemetry::Phase::Sleep);
    trace_end(telemetry::Phase::Cycle);
    if (cycle_done_) {
      auto cb = std::move(cycle_done_);
      cycle_done_ = {};
      cb(report);
    }
  });
}

// ---------------------------------------------------------------------------
// Intermittent power: gating, checkpointing, brown-out recovery.
// ---------------------------------------------------------------------------

Joules Sender::estimated_cycle_cost() const {
  const auto& p = config().power;
  const RedundancyTier& tier = config().redundancy;
  // Nominal cost of one cycle: init + a single-fragment train (typical
  // beacon size) + RX window + shutdown.
  // The HarvestingConfig margins absorb what this cannot see (CSMA
  // deferral, fragmentation, recovery beacons).
  constexpr std::size_t kNominalMpduBytes = 128;
  const Duration airtime =
      phy::frame_airtime(kNominalMpduBytes, config().rate, config().band);
  const int beacons = std::max(tier.repeats, 1) + (tier.recovery_k > 0 ? 1 : 0);
  const Watts cpu = p.supply * p.cpu_active;
  Joules cost = cpu * (p.boot_from_deep_sleep + p.wifi_inject_init + p.shutdown_time);
  cost += tx_power_draw() * Duration{(airtime.count() + p.tx_ramp.count()) * beacons};
  if (config().rx_window) {
    cost += cpu * config().rx_window->offset;
    cost += (p.supply * p.radio_rx) * config().rx_window->duration;
  }
  return cost;
}

bool Sender::maybe_brown_out() {
  power::EnergyGovernor* gov = governor();
  return gov != nullptr && gov->check_brown_out();
}

void Sender::on_brown_out() {
  ++extras_->brown_outs;
  trace_instant(telemetry::Phase::BrownOut);
  if (phase_ != Phase::DeepSleep) {
    // Kill the in-flight cycle: strand its scheduled continuations via
    // the epoch, flush the CSMA queue, power down. The checkpoint
    // written in begin_cycle survives in the persistent region.
    ++cycle_epoch_;
    csma_.drop_queued();
    phase_ = Phase::DeepSleep;  // published below, with recovering_
  }
  recovering_ = true;
  publish_listening();
  extras_->brown_out_at = scheduler_.now();
  // Dark: not even sleep current, and the WUR companion receiver dies
  // with the rest of the board (its overlay must not keep integrating).
  if (config().wur) tracker_.set_overlay(Amps{0.0});
  tracker_.set_phase(Amps{0.0}, PhaseId::BrownOut);
  schedule_resume();
}

Joules Sender::resume_target() const {
  // Clamped to capacity: a small capacitor must still be able to resume
  // even when the margin asks for more than it can ever hold.
  const double want = config().harvesting->resume_margin * estimated_cycle_cost().value;
  return Joules{std::min(want, extras_->governor->harvester().capacity().value)};
}

void Sender::schedule_resume() {
  std::optional<sim::EventId>& resume_event = extras_->resume_event;
  if (resume_event) {
    scheduler_.cancel(*resume_event);
    resume_event.reset();
  }
  if (!recovering_) return;
  const Duration wait = extras_->governor->time_until(resume_target());
  // During a drought the harvest can never reach the target; the
  // harvest-changed handler re-derives this when the fade lifts.
  if (wait == Duration::max()) return;
  resume_event = scheduler_.schedule_in(std::max<Duration>(wait, usec(1)), [this] {
    extras_->resume_event.reset();
    resume_cycle();
  });
}

void Sender::resume_cycle() {
  // A fade may have raced the recharge timer; re-derive if still short.
  Extras& x = *extras_;
  if (x.governor->charge() < resume_target()) {
    schedule_resume();
    return;
  }
  recovering_ = false;
  publish_listening();
  if (config().wur) tracker_.set_overlay(config().wur->receiver.listen);
  tracker_.set_phase(config().power.deep_sleep,
                     config().wur ? PhaseId::WurListen : PhaseId::Sleep);
  trace_instant(telemetry::Phase::Recharge);
  if (x.recharge_hist != nullptr) {
    x.recharge_hist->record(
        static_cast<std::uint64_t>((scheduler_.now() - x.brown_out_at).count()));
  }
  if (!x.checkpoint) return;  // browned out while asleep: nothing to replay

  Checkpoint cp = std::move(*x.checkpoint);
  x.checkpoint.reset();
  const Duration age = scheduler_.now() - cp.sampled_at;
  const Duration bound = config().harvesting->max_checkpoint_age;
  if (bound.count() > 0 && age > bound) {
    // Bounded staleness: the reading no longer describes the world.
    // Drop it (the sequence stays consumed — receivers see a gap, which
    // is the honest signal) instead of retransmitting it forever.
    ++x.cycles_aborted_stale;
    if (cycle_done_) {
      SendReport report;
      report.sequence = cp.message.sequence;
      auto cb = std::move(cycle_done_);
      cycle_done_ = {};
      cb(report);
    }
    return;
  }

  // Resume the interrupted cycle from the persistent region: identical
  // message, identical already-assigned sequence — receivers dedupe any
  // fragments that made it out before the lights went off. The FEC
  // accumulator already booked this sample, so no new recovery beacon.
  ++x.cycles_resumed;
  open_cycle(/*resumed=*/true);
  cycle_.sequence = cp.message.sequence;
  x.checkpoint = Checkpoint{cp.message, cp.sampled_at};  // survive repeated brown-outs
  encode_and_transmit(cp.message, /*include_recovery=*/false);
}

void Sender::on_frame(const sim::RxFrame& frame) {
  if (wur_ && phase_ == Phase::DeepSleep) {
    // Only the companion receiver is powered, and the medium hands it
    // only non-802.11 frames (demodulates): of those, the sole thing it
    // can decode is a 6-byte OOK wake-up frame.
    if (auto wake = phy::decode_wakeup_frame(frame.mpdu.view())) {
      on_wakeup_frame(*wake);
    }
    return;
  }
  if (phase_ != Phase::RxWindow) return;
  const BeaconView beacon = read_beacon(frame.mpdu);
  if (beacon.status != BeaconStatus::Ok) return;
  profile_->codec.for_each_fragment(beacon.elements, [this](std::optional<Fragment>&& f,
                                                            DecodeError) {
    if (!f || f->device_id != device_id_) return;
    if (f->type == MessageType::Ack) {
      // Reliable mode: match the acknowledged sequence number.
      if (config().reliable && extras_->unacked && f->data.size() == 4) {
        ByteReader r{f->data};
        if (r.u32le() == extras_->unacked->sequence) {
          cycle_.acked = true;
          extras_->unacked.reset();
          extras_->unacked_attempts = 0;
        }
      }
      return;
    }
    // A downlink fits one element (Controller::queue_downlink): the
    // device keeps no reassembler, so a fragment of a larger one is
    // dropped rather than delivered as a message of its own.
    if (f->type != MessageType::Downlink || f->frag_count > 1) return;
    const Message m{f->device_id, f->sequence, f->type, std::move(f->data), std::nullopt};
    ++cycle_.downlinks;
    ++downlinks_total_;
    if (downlink_cb_) downlink_cb_(m);
  });
}

void Sender::publish_metrics(telemetry::MetricsRegistry& registry, sim::NodeId node) {
  using S = Sender;
  constexpr auto has_wur = [](const S& s) { return s.wur_; };
  constexpr auto has_governor = [](const S& s) { return s.governor() != nullptr; };
  static constexpr telemetry::Row kRows[] = {
      telemetry::counter<S>("cycles", [](const S& s) { return s.cycles_; }),
      telemetry::counter<S>("cycles_failed", [](const S& s) { return s.cycles_failed_total_; }),
      telemetry::counter<S>("tx.beacons", [](const S& s) { return s.beacons_sent_total_; }),
      telemetry::counter<S>("tx.airtime_us",
                            [](const S& s) {
                              return static_cast<std::uint64_t>(s.tx_airtime_total_.count());
                            }),
      telemetry::counter<S>("rx.downlinks", [](const S& s) { return s.downlinks_total_; }),
      // Every sender exports these two; a plain device reads zero.
      telemetry::counter<S>("fec.recovery_beacons",
                            [](const S& s) { return s.recovery_beacons_sent(); }),
      telemetry::counter<S>("reliable.dropped_unacked",
                            [](const S& s) { return s.messages_dropped_unacked(); }),
      telemetry::counter<S>("wur.wakes", [](const S& s) { return s.wur_wakes_total_; }, has_wur),
      telemetry::counter<S>("wur.frames_ignored",
                            [](const S& s) { return s.wur_frames_ignored_; }, has_wur),
      // Integrated energy since simulation start. PowerTimeline folds old
      // segment history on fleet runs but keeps the from-zero integral
      // exact (see PowerTimeline::set_max_segments), so this gauge is
      // always the true lifetime energy.
      telemetry::gauge<S>("energy_j",
                          [](const S& s) {
                            return s.timeline_.energy_between(TimePoint{}, s.scheduler_.now())
                                .value;
                          }),
      telemetry::histogram<S>("cycle_active_us", [](const S& s) { return s.cycle_active_hist_; }),
      telemetry::counter<S>("energy.brown_outs", [](const S& s) { return s.brown_outs(); },
                            has_governor),
      telemetry::counter<S>("energy.cycles_resumed", [](const S& s) { return s.cycles_resumed(); },
                            has_governor),
      telemetry::counter<S>("energy.cycles_aborted_stale",
                            [](const S& s) { return s.cycles_aborted_stale(); }, has_governor),
      telemetry::counter<S>("energy.cycles_skipped",
                            [](const S& s) { return s.cycles_skipped_energy(); }, has_governor),
      // Charge gauge: a pure projection to the snapshot time. Reading it
      // never settles the governor, so attaching telemetry cannot perturb
      // the settlement sequence (same-seed runs stay bit-exact).
      telemetry::gauge<S>(
          "energy.charge_j",
          [](const S& s) { return s.governor()->projected_charge(s.scheduler_.now()).value; },
          has_governor),
      // Resumed-vs-aborted is in the counters above; this histogram adds
      // how long each outage lasted (brown-out to recharge).
      telemetry::histogram<S>("energy.recharge_us",
                              [](const S& s) { return s.extras_->recharge_hist; }, has_governor),
  };
  static constexpr telemetry::Schema kSchema{"sender", kRows};

  cycle_active_hist_ = registry.make_histogram();
  if (governor() != nullptr) extras_->recharge_hist = registry.make_histogram();
  registry.bind_node(node, kSchema, this);
}

}  // namespace wile::core
