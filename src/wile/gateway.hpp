// Wi-LE to infrastructure gateway.
//
// §1 of the paper: "when available, Wi-LE can utilize existing WiFi
// infrastructure (which Bluetooth cannot)". This node is how: one
// monitor-mode radio harvests Wi-LE beacons while a second, associated
// radio (a full sta::Station in power-save mode) forwards each message
// to a server behind the AP as a UDP datagram. A Raspberry-Pi-class box
// with two WiFi interfaces — mains powered, so its energy is not the
// scarce resource; the sensors' is.
//
// The uplink drains in batches: up to batch_max queued readings coalesce
// into one ForwardedBatch payload per power-save send cycle
// (`wile-batch-v1`: a 4-byte header then length-prefixed ForwardedReading
// records), encoded into an arena buffer that is reclaimed from the
// station after every cycle — steady-state forwarding does not allocate.
//
// The gateway is self-healing: it supervises its uplink (the station's
// beacon-loss detection plus per-send failure reports), re-associates
// with capped exponential backoff + jitter after any loss, retries each
// reading within a budget, and keeps newest-first semantics when the
// queue overflows during an outage. All of it is observable through
// GatewayStats; tests/test_fault_injection.cpp drives the recovery
// paths end-to-end.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sta/station.hpp"
#include "telemetry/trace.hpp"
#include "wile/receiver.hpp"

namespace wile::core {

/// Wire format of one forwarded reading (the UDP payload the server
/// receives): device_id u32le, sequence u32le, type u8, rssi dBm s8,
/// data_len u16le, data.
struct ForwardedReading {
  std::uint32_t device_id = 0;
  std::uint32_t sequence = 0;
  MessageType type = MessageType::Telemetry;
  std::int8_t rssi_dbm = 0;
  Bytes data;

  /// Append the record encoding to `out` (the allocation-free path the
  /// batch encoder uses).
  void encode_into(Bytes& out) const;
  static std::optional<ForwardedReading> decode(BytesView payload);

  friend bool operator==(const ForwardedReading&, const ForwardedReading&) = default;
};

/// `wile-batch-v1`: what one uplink datagram carries. Header: version
/// u8 (=1), flags u8 (=0), count u16le; then `count` records, each
/// record_len u16le + that many bytes in the ForwardedReading encoding.
/// Records are length-prefixed whole units — a batch boundary can never
/// split a record.
struct ForwardedBatch {
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::size_t kHeaderSize = 4;

  std::vector<ForwardedReading> readings;

  [[nodiscard]] Bytes encode() const;
  static std::optional<ForwardedBatch> decode(BytesView payload);

  // Incremental encoding into a reused arena:
  static void begin(Bytes& out);  // clears `out`, writes the header
  static void append(Bytes& out, const ForwardedReading& reading);
  static void finish(Bytes& out, std::size_t count);  // patches count
};

struct GatewayConfig {
  /// Infrastructure side (ssid/passphrase must match the AP; server_ip /
  /// server_port name the collector behind it).
  sta::StationConfig station{};
  /// Wi-LE side (device key etc.).
  ReceiverConfig monitor{};
  /// Readings buffered while the uplink is busy; older ones drop first
  /// (newest-first retention — the latest sensor state matters most).
  std::size_t max_queue = 64;
  /// Readings coalesced into one uplink payload per power-save send
  /// cycle (min 1). Larger batches amortise the wake/TX cycle over more
  /// readings at the cost of a bigger datagram.
  std::size_t batch_max = 16;
  /// Forward retries per reading after a failed send (0 = fire and
  /// forget). A reading that exhausts the budget is dropped.
  int forward_retry_limit = 3;
  /// Re-association backoff: delay = base * 2^attempt, capped, with a
  /// uniform ±jitter_fraction spread so a fleet of gateways does not
  /// stampede a recovering AP.
  Duration reconnect_backoff_base = msec(500);
  Duration reconnect_backoff_cap = seconds(8);
  double reconnect_jitter_fraction = 0.2;
  /// Thundering-herd desync: an extra one-shot delay drawn uniformly
  /// (seeded, per gateway) from [0, this] on the FIRST reconnect after
  /// an uplink loss. The multiplicative jitter above only spreads a
  /// fleet ±20% around the backoff base, so a fleet-wide AP restart
  /// still lands every reassociation in the same ~200 ms; this spreads
  /// the first wave across the whole window. 0 disables.
  Duration reconnect_desync_spread = seconds(1);
};

struct GatewayStats {
  std::uint64_t received = 0;
  std::uint64_t forwarded = 0;
  /// Uplink send cycles that carried a batch (forwarded / batches_sent
  /// = achieved coalescing).
  std::uint64_t batches_sent = 0;
  std::uint64_t dropped_queue_full = 0;
  /// Failed forward attempts (each failed send cycle, including retries).
  std::uint64_t forward_failures = 0;
  /// Re-sends of a queued reading after a failure.
  std::uint64_t retries = 0;
  /// Readings abandoned after exhausting forward_retry_limit.
  std::uint64_t dropped_retry_budget = 0;
  /// Every reading destroyed without being forwarded, whatever the
  /// reason (== dropped_queue_full + dropped_retry_budget).
  std::uint64_t dropped_total = 0;
  /// Uplink-dead declarations observed (beacon loss, send death, fault).
  std::uint64_t uplink_losses = 0;
  /// Connection attempts made after the initial start().
  std::uint64_t reconnect_attempts = 0;
  /// Successful re-associations after a loss or failed attempt.
  std::uint64_t reassociations = 0;
};

class Gateway {
 public:
  Gateway(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
          GatewayConfig config, Rng rng);
  ~Gateway();

  /// Associate the uplink station and begin bridging. `ready` fires once
  /// with the outcome of the *first* attempt (through DHCP, or failed).
  /// Whatever the outcome, the gateway keeps supervising: failures and
  /// later losses trigger automatic re-association with backoff.
  void start(std::function<void(bool)> ready);

  /// Injected fault: kill the uplink radio/driver. The station tears
  /// down; the supervision machinery notices and re-associates.
  void kill_uplink();

  [[nodiscard]] bool uplink_ready() const { return uplink_ready_; }
  [[nodiscard]] const GatewayStats& stats() const { return stats_; }

  /// Bind bridge counters into a telemetry registry under the aggregate
  /// prefix `prefix`, the monitor radio's receiver counters under
  /// `prefix`.monitor and the station's under `prefix`.station; the
  /// stats() accessors keep reading the same slots. Also creates the
  /// `<prefix>.batch_fill` histogram of readings per sent batch
  /// (canonically "ingest.batch_fill" when prefix = "ingest").
  void publish_metrics(telemetry::MetricsRegistry& registry, std::string prefix) const;

  /// Attach a tracer (nullptr detaches): the gateway emits a Drop
  /// instant, on the monitor radio's node, for every reading it
  /// destroys — chaos-soak oracles can bound loss from the trace.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }

  /// Next reconnect delay (capped exponential backoff x jitter, plus
  /// the one-shot desync spread after a loss). Public so tests can pin
  /// the distribution; consumes this gateway's jitter RNG.
  [[nodiscard]] Duration backoff_delay();
  [[nodiscard]] const Receiver& monitor() const { return *monitor_; }
  [[nodiscard]] const sta::Station& station() const { return *station_; }

 private:
  struct QueuedReading {
    ForwardedReading reading;
    int attempts = 0;  // failed sends so far
  };

  void enqueue(const Message& message, const RxMeta& meta);
  void pump();
  void on_send_result(bool success);
  void drop_reading(std::uint64_t& reason_counter);
  void on_uplink_lost();
  void attempt_connect();
  void schedule_reconnect();

  sim::Scheduler& scheduler_;
  GatewayConfig config_;
  Rng rng_;  // backoff jitter
  std::unique_ptr<Receiver> monitor_;
  std::unique_ptr<sta::Station> station_;
  std::deque<QueuedReading> queue_;
  /// Readings riding the current send cycle (front of queue_ at pump
  /// time, in order). Capacity is reused across cycles.
  std::vector<QueuedReading> in_flight_;
  /// Encode buffer handed to the station each cycle and reclaimed in
  /// on_send_result — the steady-state drain loop never allocates.
  Bytes arena_;
  bool uplink_ready_ = false;
  bool sending_ = false;
  bool started_ = false;
  bool first_attempt_done_ = false;
  bool desync_pending_ = false;  // next backoff adds the desync spread
  int consecutive_connect_failures_ = 0;
  std::optional<sim::EventId> reconnect_timer_;
  std::optional<sim::EventId> pump_timer_;
  std::function<void(bool)> first_ready_;
  GatewayStats stats_;
  telemetry::Tracer* tracer_ = nullptr;
  mutable telemetry::Histogram* batch_fill_ = nullptr;
};

}  // namespace wile::core
