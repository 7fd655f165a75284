// Broadcast radio medium with propagation, collisions and carrier sense.
//
// Every radio in a simulation attaches to a Medium. A transmission
// occupies the channel for its airtime; at the end of the airtime each
// awake receiver either decodes the frame, loses it to channel error
// (per the Channel's SNR->PER model), or loses it to a collision (any
// overlapping transmission audible above the carrier-sense floor).
// The WiFi network and the BLE pair run on separate Medium instances —
// separate bands in the real world.
//
// Fleet-scale design: the nodes that are listening are indexed by a
// sparse uniform grid over their positions, so delivering a transmission
// only visits the listeners in cells within the maximum audible radius
// for the TX power — derived by inverting Channel::rx_power_dbm down
// to the carrier-sense floor — instead of every attached node. A node
// starts listening at attach(); radios that are deaf most of the time
// (a Wi-LE sender in deep sleep, a BLE advertiser, a jammer) leave the
// grid through set_listening(id, false), so a frame costs nothing per
// sleeping neighbour. A listener that hears but cannot demodulate a
// frame's waveform (MediumClient::demodulates: a WUR envelope detector
// under an OFDM beacon, a monitor radio under an OOK wake frame) is
// skipped before any rx-power, collision or PER work and consumes no RNG
// draw; the frame still interferes with everything it overlaps. Each
// listing also files the node under the waveform classes it demodulates
// (802.11, rate-less), asked once per set_listening(id, true), so the
// grid skips a listener of the other class on its flag byte, before any
// virtual call. Carrier sense does not use the grid: it scans the
// in-flight transmissions, pre-filtered by their audible radius.
// Received power is computed from the two positions at every use, with
// no per-pair table: in a dense hall every frame reaches every listener,
// so an all-pairs table grows with the square of the node count, outgrows
// the cache and misses it on nearly every lookup, while the log-distance
// model itself is one sqrt and one log10. The frame payload is a
// refcounted FrameBuffer shared by all receivers, so one transmission
// heard by a thousand radios performs zero payload copies. Candidate
// receivers are visited in ascending NodeId order either way, so the RNG
// draw sequence — and therefore every simulation outcome — is bit-for-bit
// identical with the spatial grid on or off. The dense path polls every
// attached node and ignores the listener index and the waveform filing,
// so it is the equivalence oracle for the grid, the index and the filing
// (see tests/test_determinism).
//
// Per-node hot state is structure-of-arrays: position coordinates and
// radio flag bytes live in parallel contiguous vectors rather than one
// array-of-structs, so the delivery and carrier-sense loops touch only
// the columns they read (a collision scan streams positions at 16 B/node
// instead of dragging a 56 B struct through cache) and a million-node
// fleet costs ~25 B/node of medium state. Rarely-set state (per-node
// loss floors) is a sparse side map guarded by an emptiness check so
// unimpaired fleets never pay the lookup.
//
// Sharded operation (sim/parallel.hpp): a Medium can be told the x-span
// it owns via set_owned_span(); transmissions whose audible circle
// pokes outside that span are handed to the boundary hook, and
// transmissions originated by *other* shards enter through
// inject_remote() as position-snapshot phantoms that participate in
// carrier sense, collision interference and delivery exactly like
// local ones — but own no local node, so they never flip local
// transmit flags and never fire a completion callback.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "phy/channel.hpp"
#include "sim/scheduler.hpp"
#include "util/byte_buffer.hpp"
#include "util/frame_buffer.hpp"
#include "util/inline_function.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace wile::sim {

using NodeId = std::uint32_t;

struct Position {
  double x_m = 0.0;
  double y_m = 0.0;
};

double distance_m(const Position& a, const Position& b);

/// A frame as seen by a receiver. `mpdu` is a refcounted view of the
/// transmitted payload, shared by every receiver of the transmission;
/// it converts implicitly to BytesView for parsing and stays alive as
/// long as any copy of this RxFrame does.
struct RxFrame {
  NodeId transmitter{};
  FrameBuffer mpdu;
  double rx_power_dbm = 0.0;
  double snr_db = 0.0;
  Duration airtime{};
  std::optional<phy::WifiRate> rate;  // nullopt: non-802.11 waveform (BLE, WUR OOK)
};

/// Receiver interface implemented by every node's radio.
class MediumClient {
 public:
  virtual ~MediumClient() = default;

  /// A frame finished and decoded at this node.
  virtual void on_frame(const RxFrame& frame) = 0;

  /// A frame finished but was not decodable (collision or channel loss).
  /// `collision` distinguishes overlap losses from channel-error losses.
  virtual void on_corrupt_frame(const RxFrame& frame, bool collision) {
    (void)frame;
    (void)collision;
  }

  /// Whether this radio can currently hear the channel (powered, not
  /// transmitting, not asleep). Sampled at the *end* of each
  /// transmission; a radio must be listening for the whole frame in a
  /// real receiver, but end-sampling is the standard simulator shortcut
  /// and conservative for our energy questions.
  ///
  /// This stays the per-frame authority for every node the medium
  /// polls. The listener index (Medium::set_listening) only decides
  /// which nodes are polled, and the contract is one-way: a node may be
  /// unlisted only while this returns false. A listed node may still
  /// return false (transmitting right now, an AP that is down).
  [[nodiscard]] virtual bool rx_enabled() const = 0;

  /// Whether the radio that is listening right now can demodulate a
  /// frame of this kind: `rate` set is an 802.11 PPDU, nullopt a
  /// non-802.11 waveform on this medium (an 802.11ba OOK wake frame, a
  /// jammer burst, a BLE PDU). Asked per frame right after rx_enabled(),
  /// and a per-frame authority like it. A frame this refuses is energy
  /// at the antenna only: no on_frame/on_corrupt_frame, no Stats
  /// counter (neither a delivery nor a loss) and no RNG draw. It still
  /// interferes with the frames it overlaps and still busies carrier
  /// sense. The default accepts every frame.
  ///
  /// Contract, which lets the grid skip a listener of the other class
  /// without asking (Medium::set_listening files the answers): the
  /// answer depends only on the waveform class, so every 802.11 rate
  /// gets the same answer, and it may change only where the node calls
  /// Medium::set_listening(id, true) again.
  [[nodiscard]] virtual bool demodulates(const std::optional<phy::WifiRate>& rate) const {
    (void)rate;
    return true;
  }
};

struct TxRequest {
  /// The transmission's one payload allocation, which the caller made
  /// (a Wi-LE sender at encode time, a unicast sim::Csma per attempt).
  /// The medium moves it into the transmission, and every receiver
  /// shares it.
  FrameBuffer mpdu;
  Duration airtime{};
  double tx_power_dbm = 0.0;
  std::optional<phy::WifiRate> rate;  // enables the WiFi PER model
  /// Invoked on the transmitter when the last bit leaves the antenna.
  InlineFunction<void()> on_complete;
};

/// A transmission crossing a shard boundary, as shipped between shards
/// by the parallel engine. Carries a position snapshot because the
/// origin node is not attached to the receiving shard's Medium; the
/// FrameBuffer is refcounted (atomic), so the payload bytes are shared
/// across shards with zero copies.
struct RemoteTx {
  NodeId origin_node{};  ///< id in the ORIGIN shard's node space
  Position origin;       ///< transmitter position at TX start
  TimePoint start{};
  TimePoint end{};
  double tx_power_dbm = 0.0;
  double audible_range_m = 0.0;
  FrameBuffer mpdu;
  Duration airtime{};
  std::optional<phy::WifiRate> rate;
};

class Medium {
 public:
  Medium(Scheduler& scheduler, phy::Channel channel, Rng rng);

  /// Attach a radio at a position. The returned id identifies the node in
  /// all later calls. The node starts listening (see set_listening).
  /// Throws std::invalid_argument on a non-finite coordinate.
  NodeId attach(MediumClient* client, Position position);

  /// Move a node. Throws std::invalid_argument on a non-finite
  /// coordinate and leaves the node where it was.
  void set_position(NodeId id, Position position);
  [[nodiscard]] Position position(NodeId id) const;

  /// Add the node to (true) or drop it from (false) the listener index
  /// that delivery consults: an unlisted node is never polled through
  /// rx_enabled() and never receives a frame, but still transmits and
  /// senses carrier. Allowed only while the node's rx_enabled() is
  /// false (see MediumClient::rx_enabled). Idempotent. The dense scan
  /// (set_spatial_grid_enabled(false)) ignores the index.
  ///
  /// `on` also files the node under the waveform classes it
  /// demodulates, asking MediumClient::demodulates once for an 802.11
  /// rate and once for nullopt, even when the node is already listed:
  /// a node whose answers change republishes with true. attach() files
  /// every node under both classes; unlisting keeps the filing.
  void set_listening(NodeId id, bool on);
  [[nodiscard]] bool listening(NodeId id) const;

  /// Begin a transmission. Throws if this node is already transmitting.
  /// The request's FrameBuffer moves into the transmission, so this
  /// copies no payload, and receivers share the same bytes.
  void transmit(NodeId transmitter, TxRequest request);

  /// Carrier sense at `listener`: any in-flight transmission audible
  /// above the CS threshold (including the node's own).
  ///
  /// Semantics, pinned by test_sim.MediumTest.CarrierSense*: carrier
  /// sense is *energy detection at the antenna* and is deliberately
  /// asymmetric with frame delivery —
  ///   * rx_blocked is ignored: injected deafness models a dead decode
  ///     path (crashed firmware), not a removed antenna, so CCA still
  ///     reports the channel busy and a polite transmitter still defers;
  ///   * noise_offset_db is ignored: kCarrierSenseDbm is an absolute
  ///     received-power threshold (802.11 preamble detection), not an
  ///     SNR test. Injected wideband noise degrades the SNR used for
  ///     decode at delivery time but does not change what counts as a
  ///     detectable transmission.
  [[nodiscard]] bool carrier_busy(NodeId listener) const;

  [[nodiscard]] bool transmitting(NodeId id) const;

  [[nodiscard]] const phy::Channel& channel() const { return channel_; }

  // --- sharding hooks (driven by sim::ParallelEngine) ------------------------

  /// Declare the x-span [x0, x1) this medium's shard owns. Once set,
  /// transmit() tests every transmission's audible circle against the
  /// span and hands escapees to the boundary hook for cross-shard
  /// routing. Unset (the default) = the medium owns all of space and
  /// nothing ever crosses.
  void set_owned_span(double x0_m, double x1_m) {
    span_x0_m_ = x0_m;
    span_x1_m_ = x1_m;
    span_set_ = true;
  }

  /// Called from transmit() for every boundary-crossing transmission,
  /// with a position-snapshot RemoteTx ready to ship. The hook runs on
  /// the shard's own thread; routing/queueing is the caller's problem.
  void set_boundary_hook(std::function<void(const RemoteTx&)> hook) {
    boundary_hook_ = std::move(hook);
  }

  /// Inject a transmission originated by another shard. The phantom
  /// participates in carrier sense, collision interference and delivery
  /// to local nodes; it owns no local node (no transmit flag, no
  /// completion callback) and does not count in stats().transmissions —
  /// the origin shard already counted it. Delivery fires at
  /// max(end, now): a frame whose airtime already elapsed by the time
  /// the window barrier shipped it delivers at injection time, which is
  /// the conservative-window quantization DESIGN.md §13 documents.
  void inject_remote(const RemoteTx& rtx);

  // --- impairment hooks (driven by sim::FaultInjector) -----------------------
  // These model time-varying channel degradation without touching the
  // Channel's calibration: an interference-driven noise-floor rise, a
  // blanket PER multiplier (e.g. microwave-oven style wideband bursts),
  // and per-node receive blackouts (radio deafness / crashed firmware).

  /// Extra noise (dB) added on top of the channel's noise floor when
  /// computing SNR at delivery time. 0 = unimpaired. Does not affect
  /// carrier sense (see carrier_busy).
  void set_noise_offset_db(double db) { noise_offset_db_ = db; }
  [[nodiscard]] double noise_offset_db() const { return noise_offset_db_; }

  /// Multiplies every computed packet error rate (clamped to 1.0).
  void set_per_multiplier(double m) { per_multiplier_ = m; }
  [[nodiscard]] double per_multiplier() const { return per_multiplier_; }

  /// SNR-independent baseline loss probability, applied as an
  /// independent erasure process on top of the model PER (so a clean
  /// short-range link still drops `p` of its frames). This is the knob
  /// FEC ablations use to inject an exact packet error rate.
  ///
  /// Non-finite inputs assert in debug builds and are dropped (treated
  /// as 0) in release: std::clamp would silently pass NaN through, and a
  /// NaN floor poisons every subsequent PER draw.
  void set_loss_floor(double p) {
    assert(std::isfinite(p) && "Medium::set_loss_floor: non-finite floor");
    loss_floor_ = std::isfinite(p) ? std::clamp(p, 0.0, 1.0) : 0.0;
  }
  [[nodiscard]] double loss_floor() const { return loss_floor_; }

  /// Per-node erasure floor, stacking with the global floor as an
  /// independent loss process (1 - (1-global)(1-node)). Models a single
  /// device behind drywall or with a detuned antenna; FaultInjector's
  /// per-device floor windows drive this. Same NaN hardening as
  /// set_loss_floor. Stored sparsely: fleets with no impaired node pay
  /// one emptiness check per delivery, not a per-node column.
  void set_node_loss_floor(NodeId id, double p);
  [[nodiscard]] double node_loss_floor(NodeId id) const;

  /// Block/unblock frame delivery to a node (its transmit path still
  /// works — a deaf radio can shout, and its antenna still senses
  /// carrier; see carrier_busy).
  void set_rx_blocked(NodeId id, bool blocked);

  /// Toggle the spatial index. Disabled = the exhaustive scan that polls
  /// every attached node, listening or not; kept as the equivalence
  /// oracle for the grid and the listener index in determinism tests.
  /// Results are identical either way.
  void set_spatial_grid_enabled(bool enabled) { grid_enabled_ = enabled; }
  [[nodiscard]] bool spatial_grid_enabled() const { return grid_enabled_; }

  /// Carrier-sense / preamble-detection floor.
  static constexpr double kCarrierSenseDbm = -82.0;

  /// Total frames delivered/lost, for tests and loss-rate benches. Only
  /// receivers that demodulate a frame (MediumClient::demodulates) count
  /// toward deliveries and losses.
  struct Stats {
    std::uint64_t transmissions = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t collision_losses = 0;
    std::uint64_t channel_losses = 0;
    friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// In-flight transmissions right now (each holds one FrameBuffer).
  /// The chaos harness's leak oracle adds the frames CSMA queues and
  /// senders' trains hold and compares the sum with
  /// FrameBuffer::live_buffers(): between events, every live payload
  /// buffer has exactly one of those owners.
  [[nodiscard]] std::size_t active_transmissions() const { return active_.size(); }

  /// Attached node count (SoA columns all share this length).
  [[nodiscard]] std::size_t node_count() const { return clients_.size(); }

 private:
  struct Interferer {
    NodeId transmitter{};
    double tx_power_dbm = 0.0;
    /// Remote interferers carry a position snapshot (their node lives in
    /// another shard); local ones resolve position at delivery time so a
    /// node that moved mid-flight interferes from where it is — the
    /// serial semantics the determinism digests pin.
    bool remote = false;
    Position origin;
  };

  struct ActiveTx {
    std::uint64_t id = 0;
    NodeId transmitter{};
    TimePoint start{};
    TimePoint end{};
    double tx_power_dbm = 0.0;
    /// Conservative upper bound on how far this TX is audible (grid
    /// query radius and carrier-sense pre-filter).
    double audible_range_m = 0.0;
    /// Phantom mirrored from another shard: `transmitter` is an id in
    /// the ORIGIN shard's space and `origin` is the authoritative
    /// position; identity comparisons against local ids are skipped.
    bool remote = false;
    Position origin;
    // The request, moved in at transmit() so the completion event
    // captures only {this, id} (fits the scheduler's inline storage)
    // and delivery never copies it.
    FrameBuffer mpdu;
    Duration airtime{};
    std::optional<phy::WifiRate> rate;
    InlineFunction<void()> on_complete;
    /// Transmissions that overlapped this one at any point.
    std::vector<Interferer> interferers;
  };

  void finish_transmission(std::uint64_t tx_id);
  void deliver(const ActiveTx& tx);
  [[nodiscard]] double audible_range_m(double tx_power_dbm) const;

  // --- SoA node state --------------------------------------------------------
  static constexpr std::uint8_t kFlagTransmitting = 1u << 0;
  static constexpr std::uint8_t kFlagRxBlocked = 1u << 1;
  static constexpr std::uint8_t kFlagListening = 1u << 2;
  // Waveform filing (set_listening): the node demodulates 802.11 PPDUs
  // (HearsWifi) or rate-less frames (HearsRateless).
  static constexpr std::uint8_t kFlagHearsWifi = 1u << 3;
  static constexpr std::uint8_t kFlagHearsRateless = 1u << 4;

  void check_id(NodeId id) const {
    if (id >= clients_.size()) throw std::out_of_range("Medium: bad NodeId");
  }
  [[nodiscard]] Position node_position(NodeId id) const {
    return Position{pos_x_[id], pos_y_[id]};
  }
  [[nodiscard]] Position tx_origin(const ActiveTx& tx) const {
    return tx.remote ? tx.origin : node_position(tx.transmitter);
  }

  // --- spatial grid (listening nodes only) -----------------------------------
  static void check_position(const Position& pos);
  [[nodiscard]] std::int32_t cell_coord(double meters) const;
  static std::uint64_t cell_key(std::int32_t cx, std::int32_t cy);
  void grid_insert(NodeId id, const Position& pos);
  void grid_remove(NodeId id, const Position& pos);
  /// All listening nodes within `range_m` of `center` (plus
  /// grid-granularity slack), appended to `out` cell by cell, each
  /// cell's ids in ascending order.
  void collect_in_range(const Position& center, double range_m,
                        std::vector<NodeId>& out) const;

  Scheduler& scheduler_;
  phy::Channel channel_;
  Rng rng_;

  // Node state columns, indexed by NodeId. Parallel vectors instead of
  // a struct vector: the delivery/CCA hot loops stream only positions
  // and flags, and each column is one contiguous arena-style slab.
  std::vector<MediumClient*> clients_;
  std::vector<double> pos_x_;
  std::vector<double> pos_y_;
  std::vector<std::uint8_t> node_flags_;
  /// Sparse: only nodes with a floor set appear (see set_node_loss_floor).
  std::unordered_map<NodeId, double> node_loss_floors_;

  std::vector<ActiveTx> active_;  // includes transmissions ending this instant
  std::uint64_t next_tx_id_ = 1;
  Stats stats_;
  double noise_offset_db_ = 0.0;
  double per_multiplier_ = 1.0;
  double loss_floor_ = 0.0;

  bool span_set_ = false;
  double span_x0_m_ = 0.0;
  double span_x1_m_ = 0.0;
  std::function<void(const RemoteTx&)> boundary_hook_;

  bool grid_enabled_ = true;
  double cell_size_m_ = 25.0;  // set from the channel in the ctor
  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells_;
  std::vector<NodeId> delivery_scratch_;
};

}  // namespace wile::sim
