#include "wile/receiver.hpp"

#include <algorithm>

namespace wile::core {

namespace {
/// Serial-number arithmetic (RFC 1982 style): how far `a` is ahead of
/// `b` in the 32-bit circular sequence space. Positive = newer, even
/// across the uint32 wrap.
std::int32_t seq_ahead(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b);
}
}  // namespace

Receiver::Receiver(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
                   ReceiverConfig config)
    : scheduler_(scheduler),
      medium_(medium),
      config_(std::move(config)),
      codec_(config_.key ? Codec{*config_.key} : Codec{}),
      reassembler_(config_.max_partials) {
  node_id_ = medium_.attach(this, position);
  medium_.set_listening(node_id_, true);  // files it as 802.11-only, per demodulates()
}

bool Receiver::rx_enabled() const { return true; }  // mains-powered monitor

bool Receiver::demodulates(const std::optional<phy::WifiRate>& rate) const {
  return rate.has_value();
}

void Receiver::on_corrupt_frame(const sim::RxFrame&, bool collision) {
  ++stats_.fcs_failures;
  if (collision) ++stats_.collisions_observed;
}

void Receiver::on_frame(const sim::RxFrame& frame) {
  const BeaconView beacon = read_beacon(frame.mpdu);
  if (beacon.status == BeaconStatus::BadFcs) ++stats_.fcs_failures;
  if (beacon.status >= BeaconStatus::Malformed) ++stats_.beacons_seen;
  if (beacon.status != BeaconStatus::Ok) return;
  // Hidden: an SSID element of length zero, not a missing one.
  if (config_.require_hidden_ssid && beacon.ssid != std::string_view{}) return;
  const RxMeta meta{scheduler_.now(), frame.rx_power_dbm, beacon.addr3};

  bool any = false;
  // Related-work arm: SSID-stuffed beacons (§2) carry data in the SSID
  // field itself.
  if (auto fragment = decode_ssid_stuffed(beacon.ssid.value_or(""))) {
    any = true;
    ++stats_.fragments;
    accept_fragment(std::move(*fragment), meta);
  }
  codec_.for_each_fragment(beacon.elements, [&](std::optional<Fragment>&& fragment,
                                                DecodeError error) {
    if (!fragment) {
      if (error == DecodeError::BadCrc) ++stats_.crc_failures;
      if (error == DecodeError::DecryptFailed) ++stats_.decrypt_failures;
      return;
    }
    any = true;
    ++stats_.fragments;
    accept_fragment(std::move(*fragment), meta);
  });
  if (any) ++stats_.wile_beacons;
}

void Receiver::accept_fragment(Fragment fragment, const RxMeta& meta) {
  if (!is_uplink_stream(fragment.type)) return;  // only the devices' own streams register
  auto message = reassembler_.add(std::move(fragment));
  stats_.partials_evicted = reassembler_.partials_evicted();
  if (!message) return;

  if (message->type == MessageType::Recovery) {
    if (auto payload = decode_recovery_payload(message->data)) {
      handle_recovery(message->device_id, message->sequence, *payload, meta);
    }
    return;
  }
  deliver(*message, meta, /*recovered=*/false);
  drain_pending(message->device_id, meta);
}

bool Receiver::register_message(const Message& message, const RxMeta& meta) {
  auto [it, inserted] = devices_.try_emplace(message.device_id);
  DeviceInfo& dev = it->second;
  if (inserted) {
    dev.device_id = message.device_id;
    dev.first_seen = meta.received_at;
    dev.last_sequence = message.sequence;
    dev.recent_seen = 1;
  } else {
    // Serial-number comparison so the uint32 sequence wrap neither
    // miscounts ~2^32 losses nor mistakes post-wrap messages for stale
    // duplicates.
    const std::int32_t ahead = seq_ahead(message.sequence, dev.last_sequence);
    if (ahead > 0) {
      const auto gap = static_cast<std::uint32_t>(ahead);
      dev.estimated_losses += gap - 1;
      dev.recent_seen = (gap >= 64) ? 1 : ((dev.recent_seen << gap) | 1);
      dev.last_sequence = message.sequence;
    } else {
      // Late arrival (out of order, or a retransmission after a gap was
      // already charged as lost). If we have it, it's a duplicate; if
      // not, it fills its gap and the loss estimate is walked back.
      const auto age = static_cast<std::uint32_t>(-ahead);
      if (age >= 64) return false;  // beyond the tracking horizon
      const std::uint64_t bit = std::uint64_t{1} << age;
      if (dev.recent_seen & bit) {
        ++stats_.duplicates;
        return false;
      }
      dev.recent_seen |= bit;
      if (dev.estimated_losses > 0) --dev.estimated_losses;
    }
  }
  dev.last_seen = meta.received_at;
  dev.last_rssi_dbm = meta.rssi_dbm;
  ++dev.messages;
  ++stats_.messages;
  return true;
}

void Receiver::deliver(const Message& message, const RxMeta& meta, bool recovered) {
  if (!register_message(message, meta)) return;
  if (recovered) ++stats_.recovered;
  // Only uplink payloads feed the XOR cache: recovery groups cover the
  // device's own sequence space.
  if (is_uplink_data(message.type)) fec_[message.device_id].cache.push(message);
  if (callback_) callback_(message, meta);
}

void Receiver::handle_recovery(std::uint32_t device_id, std::uint32_t recovery_seq,
                               const RecoveryPayload& payload, const RxMeta& meta) {
  FecState& fec = fec_[device_id];
  if (fec.last_recovery_seq && seq_ahead(recovery_seq, *fec.last_recovery_seq) <= 0) {
    return;  // repeat of a recovery beacon already processed
  }
  fec.last_recovery_seq = recovery_seq;
  ++stats_.recovery_beacons;
  if (!attempt_recovery(device_id, payload, meta)) {
    // Two or more covered messages are still missing: park the beacon —
    // a later beacon (overlapping group) may recover one and make this
    // group decodable.
    fec.pending.push_back(payload);
    if (fec.pending.size() > kMaxPendingRecoveries) fec.pending.erase(fec.pending.begin());
  } else {
    drain_pending(device_id, meta);
  }
}

bool Receiver::attempt_recovery(std::uint32_t device_id, const RecoveryPayload& payload,
                                const RxMeta& meta) {
  const auto dev_it = devices_.find(device_id);
  const DeviceInfo* dev = dev_it == devices_.end() ? nullptr : &dev_it->second;

  std::size_t missing = 0;
  std::size_t idx = 0;  // the last missing entry
  for (std::size_t i = 0; i < payload.entries.size(); ++i) {
    const std::uint32_t seq = payload.base_sequence + static_cast<std::uint32_t>(i);
    bool lost = dev == nullptr;
    if (!lost) {
      const std::int32_t ahead = seq_ahead(seq, dev->last_sequence);
      if (ahead > 0) {
        lost = true;  // newer than anything received: lost in flight
      } else {
        const auto age = static_cast<std::uint32_t>(-ahead);
        if (age >= 64) return true;  // beyond the horizon: unrecoverable, spend it
        lost = (dev->recent_seen & (std::uint64_t{1} << age)) == 0;
      }
    }
    if (lost) {
      ++missing;
      idx = i;
    }
  }
  // Every other entry is present: its payload is an XOR input.
  if (missing != 1) return missing == 0;

  const std::size_t length = payload.entries[idx].length;
  if (length > payload.xor_block.size()) return true;  // malformed: spend it

  Bytes data(payload.xor_block.begin(),
             payload.xor_block.begin() + static_cast<std::ptrdiff_t>(length));
  const FecState& fec = fec_[device_id];
  for (std::size_t i = 0; i < payload.entries.size(); ++i) {
    if (i == idx) continue;
    const auto cached =
        fec.cache.find(payload.base_sequence + static_cast<std::uint32_t>(i));
    // Received but no longer cached (or delivered before this receiver's
    // cache horizon): the XOR input is gone for good.
    if (!cached) return true;
    if (cached->data.size() > payload.xor_block.size()) return true;  // inconsistent: spend it
    const std::size_t n = std::min(cached->data.size(), length);
    for (std::size_t b = 0; b < n; ++b) data[b] ^= cached->data[b];
  }

  Message recovered;
  recovered.device_id = device_id;
  recovered.sequence = payload.base_sequence + static_cast<std::uint32_t>(idx);
  recovered.type = payload.entries[idx].type;
  recovered.data = std::move(data);
  deliver(recovered, meta, /*recovered=*/true);
  return true;
}

void Receiver::drain_pending(std::uint32_t device_id, const RxMeta& meta) {
  // By reference: attempt_recovery and deliver never touch `pending`, and
  // fec_ is a std::map, whose nodes stay put.
  std::vector<RecoveryPayload>& pending = fec_[device_id].pending;
  bool progress = true;
  while (progress && !pending.empty()) {
    progress = false;
    for (std::size_t i = 0; i < pending.size();) {
      if (attempt_recovery(device_id, pending[i], meta)) {
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
      } else {
        ++i;
      }
    }
  }
}

const telemetry::Schema& Receiver::metric_schema() {
  using R = Receiver;
  static constexpr telemetry::Row kRows[] = {
      telemetry::counter<R>("beacons_seen", [](const R& r) { return r.stats_.beacons_seen; }),
      telemetry::counter<R>("wile_beacons", [](const R& r) { return r.stats_.wile_beacons; }),
      telemetry::counter<R>("fragments", [](const R& r) { return r.stats_.fragments; }),
      telemetry::counter<R>("messages", [](const R& r) { return r.stats_.messages; }),
      telemetry::counter<R>("duplicates", [](const R& r) { return r.stats_.duplicates; }),
      telemetry::counter<R>("crc_failures", [](const R& r) { return r.stats_.crc_failures; }),
      telemetry::counter<R>("decrypt_failures",
                            [](const R& r) { return r.stats_.decrypt_failures; }),
      telemetry::counter<R>("fcs_failures", [](const R& r) { return r.stats_.fcs_failures; }),
      telemetry::counter<R>("collisions_observed",
                            [](const R& r) { return r.stats_.collisions_observed; }),
      telemetry::counter<R>("fec.recovery_beacons",
                            [](const R& r) { return r.stats_.recovery_beacons; }),
      telemetry::counter<R>("fec.recovered", [](const R& r) { return r.stats_.recovered; }),
      telemetry::counter<R>("partials_evicted",
                            [](const R& r) { return r.stats_.partials_evicted; }),
      telemetry::counter<R>("devices", [](const R& r) { return r.devices_.size(); }),
      telemetry::counter<R>("estimated_losses",
                            [](const R& r) {
                              std::uint64_t total = 0;
                              for (const auto& [id, dev] : r.devices_) {
                                total += dev.estimated_losses;
                              }
                              return total;
                            }),
  };
  static constexpr telemetry::Schema kSchema{"receiver", kRows};
  return kSchema;
}

void Receiver::publish_metrics(telemetry::MetricsRegistry& registry, sim::NodeId node) const {
  registry.bind_node(node, metric_schema(), this);
}

void Receiver::publish_metrics(telemetry::MetricsRegistry& registry, std::string prefix) const {
  registry.bind_group(std::move(prefix), metric_schema(), this);
}

}  // namespace wile::core
