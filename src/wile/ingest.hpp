// Controller-side ingest dispatch: one flat-table probe per fragment.
//
// The controller used to keep three parallel unordered_maps — per-device
// loss tracks, queued downlinks and the downlink sequence counter — and
// paid 3+ hash lookups per received fragment across them (try_emplace on
// the track, find on the queue, operator[] on the sequence counter, plus
// a re-lookup of the track in the channel-report branch). At massive-IoT
// fan-in (thousands of contending stations behind one receiver, the
// 802.11ba evaluation regime) that dispatch cost is the fleet ceiling.
//
// IngestTable consolidates all of it into one DeviceState record in a
// flat Fibonacci-hash open-addressing table (util/flat_table.hpp), so
// each fragment resolves its device with exactly one probe and every
// per-device decision — track update, report trigger, downlink pick,
// sequence allocation — reads the same already-hot record.
//
// bench/ingest_throughput drives this exact type; keep the bookkeeping
// here so the bench measures the shipped code path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>

#include "util/byte_buffer.hpp"
#include "util/flat_table.hpp"

namespace wile::core {

/// Everything the controller knows about one device, in one record.
/// Kept to 40 bytes (one cache line per table slot): the downlink queue
/// — present for a tiny fraction of a massive-IoT fleet — lives behind
/// a lazily allocated pointer so the 99% of records that never queue a
/// downlink stay flat and allocation-free.
struct DeviceState {
  // --- wrap-safe reception track (input to ChannelReports) ---
  /// Seen bitmap over the most recent uplink sequences (bit i set means
  /// sequence last_sequence - i was received); mirrors Receiver's
  /// DeviceInfo.
  std::uint64_t recent_seen = 1;
  std::uint32_t last_sequence = 0;
  std::uint32_t span = 1;  // sequence positions observed, capped at 64
  std::uint32_t last_reported_announce = 0;
  bool reported = false;
  /// False until the first uplink fragment arrives (the record can be
  /// created earlier by queue_downlink).
  bool track_started = false;
  // --- downlink side ---
  std::uint32_t downlink_seq = 0;
  std::unique_ptr<std::deque<Bytes>> queued_downlinks;

  [[nodiscard]] bool has_queued() const {
    return queued_downlinks != nullptr && !queued_downlinks->empty();
  }
  /// The downlink queue, allocated on first use.
  [[nodiscard]] std::deque<Bytes>& queue() {
    if (!queued_downlinks) queued_downlinks = std::make_unique<std::deque<Bytes>>();
    return *queued_downlinks;
  }
};

class IngestTable {
 public:
  /// The single probe: find-or-create the device's record. The
  /// reference stays valid until the next state() call for an unseen
  /// device (growth rehash).
  DeviceState& state(std::uint32_t device_id) {
    return table_.find_or_insert(device_id);
  }
  [[nodiscard]] DeviceState* find(std::uint32_t device_id) {
    return table_.find(device_id);
  }
  [[nodiscard]] std::size_t devices() const { return table_.size(); }

  /// Track update for one uplink fragment. Serial-number arithmetic:
  /// correct across the uint32 sequence wrap (same discipline as
  /// Receiver::register_message).
  static void note_uplink(DeviceState& dev, std::uint32_t sequence) {
    if (!dev.track_started) {
      dev.track_started = true;
      dev.last_sequence = sequence;
      return;
    }
    const auto ahead = static_cast<std::int32_t>(sequence - dev.last_sequence);
    if (ahead > 0) {
      const auto gap = static_cast<std::uint32_t>(ahead);
      dev.recent_seen = (gap >= 64) ? 1 : ((dev.recent_seen << gap) | 1);
      dev.last_sequence = sequence;
      dev.span = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          64, static_cast<std::uint64_t>(dev.span) + gap));
    } else {
      const auto age = static_cast<std::uint32_t>(-ahead);
      if (age < 64) dev.recent_seen |= std::uint64_t{1} << age;
    }
  }

  /// Loss-adaptive redundancy trigger: one ChannelReport per announced
  /// sequence (repeats of the same beacon don't re-trigger). Marks the
  /// announce as reported when it fires.
  static bool should_report(DeviceState& dev, std::uint32_t announced_sequence) {
    if (dev.reported && dev.last_reported_announce == announced_sequence) {
      return false;
    }
    dev.reported = true;
    dev.last_reported_announce = announced_sequence;
    return true;
  }

 private:
  util::FlatTable<DeviceState> table_;
};

}  // namespace wile::core
