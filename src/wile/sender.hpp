// The Wi-LE sender — the paper's core contribution (§4).
//
// An IoT device that never associates: it wakes from deep sleep,
// enables the radio just enough to inject one (or a few) fake 802.11
// beacon frames carrying its data in vendor-specific elements with a
// hidden SSID, and goes straight back to deep sleep. "When the
// microcontroller wakes up, it embeds its data in a beacon frame,
// transmits it immediately and goes back to sleep. Note that Wi-LE does
// not associate with an AP for transmission."
//
// The beacon's constant parts (MAC header template, SSID/rates/DS
// elements) are precomputed once, mirroring §5.4's observation that "the
// content of the packet including all of the headers can be pre-computed
// and then only the IoT device's data needs to be inserted"; a fleet
// computes them once for all its devices (SenderProfile). Each cycle
// builds its whole beacon train at encode time, each beacon straight
// into the FrameBuffer the medium will carry, so a steady-state cycle
// allocates only its payload and one buffer per transmission (DESIGN.md
// §9).
//
// Optional extensions implemented from §6:
//   * clock-jittered periods, so co-periodic devices drift apart;
//   * per-device payload encryption (see codec.hpp);
//   * two-way communication: a beacon can announce a short RX window
//     during which the device listens for Downlink messages.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dot11/mac_header.hpp"
#include "phy/airtime.hpp"
#include "phy/wur_phy.hpp"
#include "power/devices.hpp"
#include "power/harvester.hpp"
#include "power/radio_tracker.hpp"
#include "power/timeline.hpp"
#include "sim/csma.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/frame_buffer.hpp"
#include "util/mac_address.hpp"
#include "util/rng.hpp"
#include "wile/codec.hpp"

namespace wile::core {

/// The open-loop redundancy of the ack-less uplink: how many times each
/// beacon train is repeated, and how often a cross-cycle Recovery beacon
/// (XOR of the last `recovery_k` message payloads) is transmitted.
struct RedundancyTier {
  /// Inject each beacon this many times per cycle (1 = paper behaviour).
  /// Broadcast frames carry no ACK, so repetition is the standard
  /// open-loop reliability lever; receivers de-duplicate by sequence
  /// number. Energy per message scales linearly.
  int repeats = 1;
  /// Cross-cycle recovery group size; 0 disables recovery beacons.
  int recovery_k = 0;
  /// Send a recovery beacon every `stride` fresh messages, each covering
  /// the last `recovery_k`. 0 = recovery_k / 2 (min 1): overlapping
  /// groups, so every message is covered twice and two-loss patterns
  /// that fall across group boundaries remain recoverable.
  int recovery_stride = 0;

  friend bool operator==(const RedundancyTier&, const RedundancyTier&) = default;
};

/// Intermittent-power operation (see power/harvester.hpp): the sender
/// runs off a harvested capacitor instead of an infinite supply. Wakes
/// are gated on a charge budget, brown-outs checkpoint the in-flight
/// cycle, and recharged devices resume the cycle instead of restarting.
struct HarvestingConfig {
  power::HarvesterConfig harvester{};
  /// Wake gate: skip a duty cycle unless the settled charge covers
  /// `wake_margin * estimated_cycle_cost()` (headroom for CSMA
  /// deferral and fragment-count variance the estimate cannot see).
  double wake_margin = 1.5;
  /// Recharge target after a brown-out, as the same multiple of the
  /// estimated cycle cost (clamped to the capacitor's capacity).
  double resume_margin = 1.5;
  /// Bounded staleness: a checkpointed sample older than this when the
  /// device finally recharges is discarded, not retransmitted — the
  /// reading no longer describes the world. 0 = keep forever.
  Duration max_checkpoint_age = minutes(5);

  friend bool operator==(const HarvestingConfig&, const HarvestingConfig&) = default;
};

/// 802.11ba wake-up radio companion (the third transmission mode beside
/// Wi-LE duty cycles and BLE advertising). The main 802.11 radio stays
/// in deep sleep while a uW-class OOK companion receiver listens
/// continuously; a unicast AP wake-up frame addressed to this device's
/// WUR ID (the low 12 bits of device_id) triggers one full
/// wake->inject->sleep cycle. The companion ignores group-addressed
/// frames. The listen draw rides the power timeline as an always-on
/// overlay, so the Harvester/EnergyGovernor see it and a brown-out
/// darkens it.
struct WurCompanionConfig {
  power::WurReceiverModel receiver{};

  friend bool operator==(const WurCompanionConfig&, const WurCompanionConfig&) = default;
};

/// How one Wi-LE device is set up. device_id, mac and clock_ppm_error
/// are the device's identity; every other field can be shared by a fleet
/// (SenderProfile).
struct SenderConfig {
  std::uint32_t device_id = 1;
  /// Locally-administered MAC the fake beacons claim as their BSSID.
  /// Zero = derive from device_id.
  MacAddress mac = MacAddress::zero();
  phy::WifiRate rate = phy::WifiRate::Mcs7Sgi;  // 72 Mbps, §5.4
  /// §1 suggests 5 GHz to escape the crowded 2.4 GHz band; pair with a
  /// Medium built from phy::ChannelConfig::for_band(Band::G5).
  phy::Band band = phy::Band::G2_4;
  double tx_power_dbm = 0.0;                    // §5.4: 0 dBm, BLE-class range
  /// 16-byte device key enabling payload encryption (§6 "Security").
  std::optional<Bytes> key;

  /// Duty-cycle period (the paper sweeps 0-5 minutes in Fig. 4).
  Duration period = minutes(1);
  /// Systematic clock error in parts-per-million (±). Real sleep clocks
  /// have tens of ppm; §6 argues this drift un-synchronises colliding
  /// devices. Applied multiplicatively to every period.
  double clock_ppm_error = 0.0;
  /// Additional uniform per-wake jitter (± this amount).
  Duration wake_jitter = Duration{0};

  /// Defer to CSMA before injecting (polite: checks the channel). The
  /// off setting models the cheapest possible injector and is what the
  /// collision ablation (E7) exercises.
  bool use_csma = true;

  /// Advertised beacon interval field in the fake beacon (TUs).
  std::uint16_t beacon_interval_tu = 100;
  /// Non-empty = advertise this SSID openly instead of the hidden-SSID
  /// null element (the spam ablation; §4.1 explains why hidden wins).
  std::string spoofed_ssid;

  /// Related-work arm (§2, beacon-stuffing): carry the message in the
  /// SSID field itself instead of a vendor IE. Caps the payload at
  /// kSsidStuffingCapacity bytes, truncates the sequence number to 8
  /// bits, forgoes encryption/fragmentation/rx-windows — and spams every
  /// nearby scan list. Mutually exclusive with spoofed_ssid.
  bool ssid_stuffing = false;

  /// Two-way extension: announce an RX window on every beacon.
  std::optional<RxWindow> rx_window;

  /// Reliable mode (a §6-grade extension): retransmit a message — same
  /// sequence number — on subsequent cycles until a controller Ack
  /// arrives in the RX window, up to reliable_max_attempts per message.
  /// Requires rx_window; pair with ControllerConfig::auto_ack.
  bool reliable = false;
  int reliable_max_attempts = 3;

  /// First uplink sequence number (devices persisting their counter
  /// across reboots resume mid-space; also pins wraparound tests).
  std::uint32_t initial_sequence = 0;

  /// Beacon repeats and periodic cross-cycle Recovery beacons. The
  /// recovery part is ignored for the ssid_stuffing arm (no vendor
  /// elements to protect).
  RedundancyTier redundancy;

  /// Batteryless operation: run off a harvested capacitor (see
  /// HarvestingConfig). Absent = the legacy infinite supply.
  std::optional<HarvestingConfig> harvesting;

  /// 802.11ba wake-up radio companion receiver. Absent = no companion
  /// circuit; set, it enables arm_wur() and adds the uW listen draw to
  /// every power-timeline segment.
  std::optional<WurCompanionConfig> wur;

  power::Esp32PowerProfile power{};

  /// Bound on the power timeline's retained segment history (0 =
  /// unbounded). Fleet-scale simulations set a small bound so 100k
  /// devices don't each keep an hour of phase annotations; lifetime
  /// energy stays exact (power::PowerTimeline::set_max_segments), and so
  /// does a report's cycle_energy, which is a running sum from the wake.
  std::size_t timeline_max_segments = 0;
};

/// What the senders of a fleet share: a SenderConfig without the
/// identity fields, and what a sender derives from it once, namely the
/// beacon-body prefix (§5.4: the headers "can be pre-computed") and the
/// codec with its AES key schedule. Immutable once built, so the devices
/// of every shard read one copy concurrently; senders hold it through a
/// std::shared_ptr.
struct SenderProfile {
  /// Keeps `from` with device_id, mac and clock_ppm_error reset to
  /// zero, so no device reads another's identity from here.
  explicit SenderProfile(SenderConfig from);

  /// True when a device set up by `config` can run on this profile:
  /// every field but the identity ones is equal.
  [[nodiscard]] bool fits(const SenderConfig& config) const;

  const SenderConfig config;
  /// The beacon body before the vendor elements: timestamp placeholder
  /// (patched per beacon), interval, capability, SSID, rates, DS.
  const Bytes body_prefix;
  const Codec codec;
};

struct SendReport {
  bool success = false;
  std::uint32_t sequence = 0;
  int beacons_sent = 0;       // fragments transmitted
  Duration tx_airtime{};      // on-air time, all fragments
  /// Reliable mode: this cycle's message was acknowledged in its window.
  bool acked = false;
  /// Reliable mode: this cycle retransmitted a previously unacked message.
  bool retransmission = false;
  /// Harvesting: this cycle resumed from a brown-out checkpoint (same
  /// sequence as the interrupted attempt; receivers dedupe).
  bool resumed = false;
  /// Table-1 accounting: "we consider only the time required to transmit
  /// the packet" — (airtime + PA ramp) x TX power draw.
  Joules tx_only_energy{};
  /// Whole wake->sleep cycle energy, init and shutdown included.
  Joules cycle_energy{};
  Duration active_time{};
  std::size_t downlinks_received = 0;  // during this cycle's RX window
};

class Sender : public sim::MediumClient {
 public:
  /// A device on a profile of its own.
  Sender(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
         SenderConfig config, Rng rng);
  /// A device set up by `config`, on the shared `candidate` profile when
  /// that fits it (SenderProfile::fits, checked once here) and on a
  /// profile of its own otherwise (candidate may be null). A fleet hands
  /// each device the previous device's shared_profile().
  Sender(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
         std::shared_ptr<const SenderProfile> candidate, const SenderConfig& config, Rng rng);

  using SendCallback = std::function<void(const SendReport&)>;
  using PayloadProvider = std::function<Bytes()>;
  using DownlinkCallback = std::function<void(const Message&)>;

  /// One-shot: wake from deep sleep, inject, sleep, report. Throws
  /// std::logic_error mid-cycle or on a browned-out board.
  void send_now(Bytes data, SendCallback done);

  /// Periodic operation: every (jittered) period, wake and transmit
  /// whatever `provider` returns. `per_cycle` fires after each cycle.
  /// Throws std::invalid_argument unless 0 < config.period and
  /// config.wake_jitter < config.period.
  void start_duty_cycle(PayloadProvider provider, SendCallback per_cycle = {});
  void stop_duty_cycle();

  /// 802.11ba duty model: arm the wake-up companion receiver and stay in
  /// deep sleep. Every AP wake-up frame matching this device's WUR ID
  /// triggers one wake->inject->sleep cycle transmitting whatever
  /// `provider` returns (uplink rides the normal Wi-LE beacon path).
  /// Requires config.wur. There is no periodic timer — the AP owns the
  /// cadence.
  void arm_wur(PayloadProvider provider, SendCallback per_cycle = {});
  void disarm_wur() { wur_armed_ = false; }

  /// Deliver Downlink messages received during announced RX windows.
  void set_downlink_callback(DownlinkCallback cb);

  /// Step the sleep clock's systematic error at runtime (fault injection:
  /// a temperature excursion shifting the crystal). Takes effect from the
  /// next scheduled wake onward; jittered_period() reads it per cycle.
  void apply_clock_drift_ppm(double ppm) { clock_ppm_error_ = ppm; }

  [[nodiscard]] const power::PowerTimeline& timeline() const { return timeline_; }
  /// The profile's config: its identity fields read zero. device_id(),
  /// mac() and clock_ppm_error() give this device's.
  [[nodiscard]] const SenderConfig& config() const { return profile_->config; }
  [[nodiscard]] const SenderProfile& profile() const { return *profile_; }
  [[nodiscard]] const std::shared_ptr<const SenderProfile>& shared_profile() const {
    return profile_;
  }
  [[nodiscard]] std::uint32_t device_id() const { return device_id_; }
  /// The BSSID the beacons claim: the config's, or derived from
  /// device_id when that was zero.
  [[nodiscard]] MacAddress mac() const { return mac_; }
  /// The sleep clock's systematic error now, drift steps included.
  [[nodiscard]] double clock_ppm_error() const { return clock_ppm_error_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] std::uint32_t next_sequence() const { return sequence_; }
  [[nodiscard]] std::uint64_t cycles_run() const { return cycles_; }
  /// Beacons injected since construction (fragments, repeats and
  /// recovery beacons included).
  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_sent_total_; }
  /// Cumulative on-air time of everything this device transmitted.
  [[nodiscard]] Duration tx_airtime_total() const { return tx_airtime_total_; }
  /// Frames this device owns off the air: the beacons of its train not
  /// yet handed on, and those its CSMA queue holds. Zero in deep sleep.
  /// The leak oracle counts these.
  [[nodiscard]] std::size_t frames_held() const;

  // --- telemetry -------------------------------------------------------------
  /// Bind this device's metrics into a telemetry registry as node
  /// `node`'s ("node.<node>.sender.*"): TX counts/airtime, cycle
  /// counters, recovery beacons, an integrated-energy gauge over the
  /// power timeline, WUR and harvesting counters where the device has
  /// them, and registry-owned histograms of per-cycle active time and
  /// (harvesting) of recharge time. Non-const only because the histogram
  /// slots are cached for lookup-free recording.
  void publish_metrics(telemetry::MetricsRegistry& registry, sim::NodeId node);

  /// Attach a protocol-phase tracer (nullptr detaches). The sender emits
  /// wake/sample/encode/csma/tx/rx-window/sleep spans on the simulated
  /// clock only while the tracer is attached AND enabled.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }
  /// Reliable mode: messages abandoned after reliable_max_attempts.
  [[nodiscard]] std::uint64_t messages_dropped_unacked() const {
    return extras_ ? extras_->dropped_unacked : 0;
  }

  [[nodiscard]] std::uint64_t recovery_beacons_sent() const {
    return extras_ ? extras_->recovery_beacons_sent : 0;
  }

  // --- intermittent power observability --------------------------------------
  /// Non-null iff config.harvesting was set. The governor is also the
  /// sim::EnergyFaultTarget to hand FaultInjector::attach_energy_target.
  [[nodiscard]] power::EnergyGovernor* energy_governor() { return governor(); }
  [[nodiscard]] const power::EnergyGovernor* energy_governor() const { return governor(); }
  /// True between a brown-out and the recharge that clears it.
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] std::uint64_t brown_outs() const { return extras_ ? extras_->brown_outs : 0; }
  [[nodiscard]] std::uint64_t cycles_resumed() const {
    return extras_ ? extras_->cycles_resumed : 0;
  }
  [[nodiscard]] std::uint64_t cycles_aborted_stale() const {
    return extras_ ? extras_->cycles_aborted_stale : 0;
  }
  /// Wakes skipped because the capacitor could not fund a full cycle.
  [[nodiscard]] std::uint64_t cycles_skipped_energy() const {
    return extras_ ? extras_->cycles_skipped_energy : 0;
  }
  /// Charge budget the wake gate compares against (one nominal cycle,
  /// margins excluded). Exposed for benches/tests.
  [[nodiscard]] Joules estimated_cycle_cost() const;

  // --- WUR observability ------------------------------------------------------
  /// Wake-up frames that matched this device and triggered a cycle.
  [[nodiscard]] std::uint64_t wur_wakes() const { return wur_wakes_total_; }
  /// Decoded wake-up frames addressed elsewhere (or stale repeats).
  [[nodiscard]] std::uint64_t wur_frames_ignored() const {
    return wur_frames_ignored_;
  }
  /// The 12-bit WUR ID the companion answers to: device_id masked to 12
  /// bits. 0 when config.wur is absent.
  [[nodiscard]] std::uint16_t wur_id() const {
    return wur_ ? static_cast<std::uint16_t>(device_id_ & phy::WurPhy::kMaxId) : 0;
  }

  /// TX power draw (P_tx of Eq. 1) for this device profile.
  [[nodiscard]] Watts tx_power_draw() const {
    return config().power.supply * config().power.radio_tx;
  }
  /// Idle power draw (P_idle of Eq. 1): deep sleep.
  [[nodiscard]] Watts idle_power_draw() const {
    return config().power.supply * config().power.deep_sleep;
  }

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;
  /// The WUR companion (deep sleep) demodulates only non-802.11 frames,
  /// the main radio (RX window) only 802.11 PPDUs.
  [[nodiscard]] bool demodulates(const std::optional<phy::WifiRate>& rate) const override;

 private:
  enum class Phase { DeepSleep, Init, Tx, RxWindow, Shutdown };

  /// Whether the radio can hear in its current state: the main radio in
  /// its RX window, or the WUR companion while the board deep-sleeps and
  /// is not browned out. rx_enabled() adds "not transmitting right now".
  [[nodiscard]] bool listens() const;
  /// Publish listens() to the medium's listener index. Called at every
  /// phase_ and recovering_ change, so the index never drops a node
  /// whose rx_enabled() could be true.
  void publish_listening() { medium_.set_listening(node_id_, listens()); }
  void enter_phase(Phase phase) {
    phase_ = phase;
    publish_listening();
  }

  // --- the wake path ----------------------------------------------------------
  // Every wake (duty-cycle tick, decoded WUR frame, send_now) starts a
  // cycle only if may_start_cycle(). The timer runs it, wake_gate() and
  // sample_and_begin() at its tick; the WUR path gates at frame arrival
  // and runs the other two after the wake latency.

  /// The start rule: no cycle in flight and the board not browned out.
  [[nodiscard]] bool may_start_cycle() const { return phase_ == Phase::DeepSleep && !recovering_; }
  /// Harvesting wake gate: false (counted in cycles_skipped) when the
  /// capacitor cannot fund a full cycle. Always true on a mains supply.
  bool wake_gate();
  /// Sample the provider (unless a reliable-mode retransmission is
  /// pending) and begin a cycle that reports to Extras::per_cycle.
  void sample_and_begin();

  void begin_cycle(Bytes data, SendCallback done);
  /// Reset the cycle record for a fresh or resumed cycle starting now,
  /// and open its Cycle and Wake trace spans.
  void open_cycle(bool resumed);
  /// Shared back half of begin_cycle/resume_cycle: encode `message`
  /// into this cycle's beacon train and schedule the init->TX chain.
  void encode_and_transmit(const Message& message, bool include_recovery);
  /// Build one beacon and append it to train_: the MAC header, the body
  /// prefix (timestamp patched), then element `element` of `message` as
  /// a vendor element, or, for ssid_stuffing, `stuffed_ssid` in place of
  /// the prefix's SSID element. Advances seq_ctl_.
  void append_beacon(const Message& message, std::size_t element,
                     std::string_view stuffed_ssid = {});
  void inject_fragments(std::size_t index);
  void after_last_beacon();
  /// Build this cycle's Recovery beacon if one is due, else nullopt.
  [[nodiscard]] std::optional<Message> maybe_recovery_message();
  void finish_cycle();
  void schedule_next_cycle();
  /// The MAC header of this device's next beacon. Advances seq_ctl_.
  [[nodiscard]] dot11::MacHeader next_beacon_header();
  [[nodiscard]] Duration jittered_period();

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  std::shared_ptr<const SenderProfile> profile_;
  // The device's identity (SenderConfig's identity fields), and its node
  // on the medium.
  std::uint32_t device_id_;
  sim::NodeId node_id_;
  double clock_ppm_error_;
  MacAddress mac_;
  /// config().wur.has_value(), kept inline: the medium asks listens() and
  /// demodulates() of every listener in range for every frame, and a
  /// load through the profile there cost a 1000-station WUR hall about
  /// 3% of its speed.
  bool wur_;
  Rng rng_;
  sim::Csma csma_;
  power::PowerTimeline timeline_;
  power::RadioPowerTracker tracker_;

  /// This cycle's transmissions in order, each its own FrameBuffer
  /// built at encode time (a repeat too). inject_fragments() moves each
  /// into the CSMA queue, the first link of the chain train -> CSMA slot
  /// -> Medium::transmit, so the train holds only the beacons not yet
  /// handed on, and none in deep sleep. A brown-out clears it; a resume
  /// builds fresh buffers while a stranded cycle's frame in flight keeps
  /// its own. clear() keeps the vector's storage across cycles.
  std::vector<FrameBuffer> train_;

  // --- telemetry hooks (null/zero when no registry is attached) -------------
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::Histogram* cycle_active_hist_ = nullptr;
  void trace_begin(telemetry::Phase p) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->begin(scheduler_.now(), node_id_, p);
    }
  }
  void trace_end(telemetry::Phase p) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->end(scheduler_.now(), node_id_, p);
    }
  }
  void trace_instant(telemetry::Phase p) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant(scheduler_.now(), node_id_, p);
    }
  }

  Phase phase_ = Phase::DeepSleep;
  std::uint32_t sequence_ = 0;
  std::uint16_t seq_ctl_ = 0;
  std::uint64_t cycles_ = 0;
  // Lifetime totals surfaced through the metrics registry.
  std::uint64_t beacons_sent_total_ = 0;
  std::uint64_t downlinks_total_ = 0;
  std::uint64_t cycles_failed_total_ = 0;
  Duration tx_airtime_total_{};

  /// The cycle in flight, reset by open_cycle(); finish_cycle() reports
  /// it to Extras::cycle_done, which survives a brown-out resume.
  struct Cycle {
    TimePoint wake_time{};
    Duration airtime{};
    std::size_t downlinks = 0;
    std::uint32_t sequence = 0;  // the sequence this cycle carries
    int beacons = 0;
    bool failed = false;
    bool acked = false;
    bool retransmission = false;
    bool resumed = false;
  };
  Cycle cycle_;

  // --- intermittent power (harvesting) --------------------------------------
  // The persistent region an intermittent device keeps across
  // brown-outs: sequence_ above and the FEC state below (FRAM-class
  // state), plus the checkpoint of the in-flight cycle written before
  // the risky phases.
  struct Checkpoint {
    Message message;          // sequence already assigned
    TimePoint sampled_at{};   // staleness is measured from first sampling
  };
  void on_brown_out();
  void schedule_resume();
  void resume_cycle();
  [[nodiscard]] Joules resume_target() const;
  /// True (and the brown-out path has run) if the capacitor is dry at
  /// this phase boundary. No-op without harvesting.
  bool maybe_brown_out();

  /// The state of the optional features (reliable mode, harvesting,
  /// cross-cycle FEC) and the callbacks a plain fleet device never
  /// receives. A plain device never allocates it (extras_ null): the
  /// constructor makes it for a feature, set_callback() for a callback.
  struct Extras {
    // callbacks: per-cycle reports, the one of the cycle in flight, and
    // RX-window downlinks
    SendCallback per_cycle;
    SendCallback cycle_done;
    DownlinkCallback downlink_cb;

    // reliable mode
    std::optional<Message> unacked;
    int unacked_attempts = 0;
    std::uint64_t dropped_unacked = 0;

    // harvesting
    std::unique_ptr<power::EnergyGovernor> governor;
    std::optional<Checkpoint> checkpoint;
    std::optional<sim::EventId> resume_event;
    TimePoint brown_out_at{};
    std::uint64_t brown_outs = 0;
    std::uint64_t cycles_resumed = 0;
    std::uint64_t cycles_aborted_stale = 0;
    std::uint64_t cycles_skipped_energy = 0;
    telemetry::Histogram* recharge_hist = nullptr;

    // FEC: payloads of the last kMaxRecoveryGroup fresh messages, for
    // cross-cycle recovery beacons.
    PayloadHistory<kMaxRecoveryGroup> recent_sent;
    int msgs_since_recovery = 0;
    std::uint32_t recovery_sequence = 0;  // own space; never perturbs loss gaps
    std::uint64_t recovery_beacons_sent = 0;
  };
  std::unique_ptr<Extras> extras_;
  /// Store a callback in Extras, allocating the block only for a
  /// non-empty one.
  template <class F>
  void set_callback(F Extras::*slot, F fn) {
    if (!fn && !extras_) return;
    if (!extras_) extras_ = std::make_unique<Extras>();
    (*extras_).*slot = std::move(fn);
  }
  /// Hand `report` to the cycle's callback, if it has one, and clear it.
  void report_cycle(const SendReport& report);
  [[nodiscard]] power::EnergyGovernor* governor() const {
    return extras_ ? extras_->governor.get() : nullptr;
  }
  [[nodiscard]] bool will_retransmit() const {
    return config().reliable && extras_->unacked &&
           extras_->unacked_attempts < config().reliable_max_attempts;
  }

  /// Bumped on every brown-out that kills a cycle in flight; scheduled
  /// cycle lambdas capture the epoch they belong to and bail when
  /// stranded. A brown-out in deep sleep leaves it alone: the start rule
  /// (may_start_cycle) keeps a dark board from waking.
  std::uint64_t cycle_epoch_ = 0;
  bool recovering_ = false;

  // duty cycle
  bool duty_cycling_ = false;
  PayloadProvider provider_;

  // --- 802.11ba wake-up companion ---------------------------------------------
  void on_wakeup_frame(const phy::WakeUpFrame& wake);
  bool wur_armed_ = false;
  std::uint64_t wur_wakes_total_ = 0;
  std::uint64_t wur_frames_ignored_ = 0;
  /// Sequence dedupe for repeated wake frames.
  std::optional<std::uint8_t> last_wake_seq_;
};

}  // namespace wile::core
