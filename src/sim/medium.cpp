#include "sim/medium.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace wile::sim {

double distance_m(const Position& a, const Position& b) {
  const double dx = a.x_m - b.x_m;
  const double dy = a.y_m - b.y_m;
  return std::sqrt(dx * dx + dy * dy);
}

Medium::Medium(Scheduler& scheduler, phy::Channel channel, Rng rng)
    : scheduler_(scheduler), channel_(channel), rng_(rng) {
  // One cell per 0 dBm audible radius: a delivery query for a typical
  // transmission touches at most a 3x3 block of cells.
  cell_size_m_ =
      std::clamp(channel_.max_audible_range_m(0.0, kCarrierSenseDbm), 1.0, 500.0);
}

void Medium::check_position(const Position& pos) {
  // A NaN or infinite coordinate has no grid cell (the int cast in
  // cell_coord is undefined for it) and no distance to anything.
  if (!std::isfinite(pos.x_m) || !std::isfinite(pos.y_m)) {
    throw std::invalid_argument("Medium: non-finite node position");
  }
}

std::int32_t Medium::cell_coord(double meters) const {
  return static_cast<std::int32_t>(std::floor(meters / cell_size_m_));
}

std::uint64_t Medium::cell_key(std::int32_t cx, std::int32_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

// Buckets stay sorted by NodeId. Listeners leave and rejoin their cell
// at every listen-state change (a WUR companion on each wake), and an
// unordered bucket would hand deliver() a shuffled candidate list to
// sort on every frame instead of an already sorted one.
void Medium::grid_insert(NodeId id, const Position& pos) {
  auto& bucket = cells_[cell_key(cell_coord(pos.x_m), cell_coord(pos.y_m))];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), id), id);
}

void Medium::grid_remove(NodeId id, const Position& pos) {
  auto it = cells_.find(cell_key(cell_coord(pos.x_m), cell_coord(pos.y_m)));
  if (it == cells_.end()) return;
  auto& bucket = it->second;
  auto pos_it = std::lower_bound(bucket.begin(), bucket.end(), id);
  if (pos_it != bucket.end() && *pos_it == id) bucket.erase(pos_it);
}

void Medium::collect_in_range(const Position& center, double range_m,
                              std::vector<NodeId>& out) const {
  const std::int32_t cx0 = cell_coord(center.x_m - range_m);
  const std::int32_t cx1 = cell_coord(center.x_m + range_m);
  const std::int32_t cy0 = cell_coord(center.y_m - range_m);
  const std::int32_t cy1 = cell_coord(center.y_m + range_m);
  for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
      auto it = cells_.find(cell_key(cx, cy));
      if (it == cells_.end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
}

NodeId Medium::attach(MediumClient* client, Position position) {
  if (client == nullptr) throw std::invalid_argument("Medium::attach: null client");
  check_position(position);
  clients_.push_back(client);
  pos_x_.push_back(position.x_m);
  pos_y_.push_back(position.y_m);
  node_flags_.push_back(kFlagListening | kFlagHearsWifi | kFlagHearsRateless);
  const auto id = static_cast<NodeId>(clients_.size() - 1);
  grid_insert(id, position);
  return id;
}

void Medium::set_position(NodeId id, Position position) {
  check_id(id);
  check_position(position);
  const bool listed = listening(id);
  if (listed) grid_remove(id, node_position(id));
  pos_x_[id] = position.x_m;
  pos_y_[id] = position.y_m;
  if (listed) grid_insert(id, position);
}

void Medium::set_listening(NodeId id, bool on) {
  const bool listed = listening(id);  // validates the id
  if (on) {
    // Re-filed even when already listed: republishing is how a node
    // tells the medium its demodulates() answers changed. One 802.11
    // rate answers for all of them (the demodulates() contract).
    std::uint8_t flags =
        node_flags_[id] & static_cast<std::uint8_t>(~(kFlagHearsWifi | kFlagHearsRateless));
    if (clients_[id]->demodulates(phy::WifiRate::G6)) flags |= kFlagHearsWifi;
    if (clients_[id]->demodulates(std::nullopt)) flags |= kFlagHearsRateless;
    node_flags_[id] = flags | kFlagListening;
    if (!listed) grid_insert(id, node_position(id));
  } else if (listed) {
    node_flags_[id] &= static_cast<std::uint8_t>(~kFlagListening);
    grid_remove(id, node_position(id));
  }
}

bool Medium::listening(NodeId id) const {
  check_id(id);
  return (node_flags_[id] & kFlagListening) != 0;
}

Position Medium::position(NodeId id) const {
  check_id(id);
  return node_position(id);
}

double Medium::audible_range_m(double tx_power_dbm) const {
  // Slack absorbs floating-point disagreement between the analytic
  // inversion and the per-node power check; the exact >= threshold test
  // at delivery still decides audibility.
  return channel_.max_audible_range_m(tx_power_dbm, kCarrierSenseDbm) * 1.001 + 0.1;
}

bool Medium::carrier_busy(NodeId listener) const {
  check_id(listener);
  if (node_flags_[listener] & kFlagTransmitting) return true;
  const Position me = node_position(listener);
  for (const auto& tx : active_) {
    if (!tx.remote && tx.transmitter == listener) continue;
    // Cheap pre-filter: beyond the audible radius the exact check below
    // cannot pass (the radius is computed with slack).
    const double d = distance_m(tx_origin(tx), me);
    if (d > tx.audible_range_m) continue;
    if (channel_.rx_power_dbm(tx.tx_power_dbm, d) >= kCarrierSenseDbm) return true;
  }
  return false;
}

bool Medium::transmitting(NodeId id) const {
  check_id(id);
  return (node_flags_[id] & kFlagTransmitting) != 0;
}

void Medium::set_rx_blocked(NodeId id, bool blocked) {
  check_id(id);
  if (blocked) {
    node_flags_[id] |= kFlagRxBlocked;
  } else {
    node_flags_[id] &= static_cast<std::uint8_t>(~kFlagRxBlocked);
  }
}

void Medium::set_node_loss_floor(NodeId id, double p) {
  check_id(id);
  assert(std::isfinite(p) && "Medium::set_node_loss_floor: non-finite floor");
  const double clamped = std::isfinite(p) ? std::clamp(p, 0.0, 1.0) : 0.0;
  if (clamped > 0.0) {
    node_loss_floors_[id] = clamped;
  } else {
    node_loss_floors_.erase(id);  // keep the map empty-checkable on the hot path
  }
}

double Medium::node_loss_floor(NodeId id) const {
  check_id(id);
  auto it = node_loss_floors_.find(id);
  return it == node_loss_floors_.end() ? 0.0 : it->second;
}

void Medium::transmit(NodeId transmitter, TxRequest request) {
  check_id(transmitter);
  if (node_flags_[transmitter] & kFlagTransmitting) {
    throw std::logic_error("Medium::transmit: node already transmitting");
  }
  node_flags_[transmitter] |= kFlagTransmitting;
  ++stats_.transmissions;

  ActiveTx tx;
  tx.id = next_tx_id_++;
  tx.transmitter = transmitter;
  tx.start = scheduler_.now();
  tx.end = tx.start + request.airtime;
  tx.tx_power_dbm = request.tx_power_dbm;
  tx.audible_range_m = audible_range_m(request.tx_power_dbm);
  tx.origin = node_position(transmitter);
  tx.mpdu = std::move(request.mpdu);  // no copy: the caller made the one buffer
  tx.airtime = request.airtime;
  tx.rate = request.rate;
  tx.on_complete = std::move(request.on_complete);

  // Record mutual interference with everything already in the air.
  // Receiver-side audibility is judged at delivery time. Remote entries
  // propagate their position snapshot; local ones resolve live.
  for (auto& other : active_) {
    other.interferers.push_back({transmitter, request.tx_power_dbm, false, tx.origin});
    tx.interferers.push_back(
        {other.transmitter, other.tx_power_dbm, other.remote, other.origin});
  }

  // Boundary detection for the sharded engine: if the audible circle
  // pokes outside this shard's owned x-span, neighbors must mirror it.
  if (span_set_ && boundary_hook_ &&
      (tx.origin.x_m - tx.audible_range_m < span_x0_m_ ||
       tx.origin.x_m + tx.audible_range_m >= span_x1_m_)) {
    RemoteTx rtx;
    rtx.origin_node = transmitter;
    rtx.origin = tx.origin;
    rtx.start = tx.start;
    rtx.end = tx.end;
    rtx.tx_power_dbm = tx.tx_power_dbm;
    rtx.audible_range_m = tx.audible_range_m;
    rtx.mpdu = tx.mpdu;  // refcount bump; bytes shared across shards
    rtx.airtime = tx.airtime;
    rtx.rate = tx.rate;
    boundary_hook_(rtx);
  }

  const std::uint64_t tx_id = tx.id;
  const TimePoint end = tx.end;
  active_.push_back(std::move(tx));

  // {this, tx_id} fits the scheduler's inline storage: scheduling the
  // completion allocates nothing.
  scheduler_.schedule_at(end, [this, tx_id] { finish_transmission(tx_id); });
}

void Medium::inject_remote(const RemoteTx& rtx) {
  ActiveTx tx;
  tx.id = next_tx_id_++;
  tx.transmitter = rtx.origin_node;
  tx.remote = true;
  tx.origin = rtx.origin;
  tx.start = rtx.start;
  tx.end = rtx.end;
  tx.tx_power_dbm = rtx.tx_power_dbm;
  tx.audible_range_m = rtx.audible_range_m;
  tx.mpdu = rtx.mpdu;
  tx.airtime = rtx.airtime;
  tx.rate = rtx.rate;

  for (auto& other : active_) {
    other.interferers.push_back({tx.transmitter, tx.tx_power_dbm, true, tx.origin});
    tx.interferers.push_back(
        {other.transmitter, other.tx_power_dbm, other.remote, other.origin});
  }

  const std::uint64_t tx_id = tx.id;
  // The frame may have ended before the barrier shipped it; deliver at
  // injection time then (never schedule into the past).
  const TimePoint fire = std::max(tx.end, scheduler_.now());
  active_.push_back(std::move(tx));
  scheduler_.schedule_at(fire, [this, tx_id] { finish_transmission(tx_id); });
}

void Medium::finish_transmission(std::uint64_t tx_id) {
  // Locate our entry and remove it by swap-and-pop; the entry itself is
  // moved out, never copied (its interferer list can be long).
  std::size_t i = 0;
  while (i < active_.size() && active_[i].id != tx_id) ++i;
  if (i == active_.size()) {
    throw std::logic_error("Medium: active transmission vanished");
  }
  ActiveTx done = std::move(active_[i]);
  if (i + 1 != active_.size()) active_[i] = std::move(active_.back());
  active_.pop_back();
  if (!done.remote) {
    node_flags_[done.transmitter] &= static_cast<std::uint8_t>(~kFlagTransmitting);
  }

  // The transmitter's completion runs before receiver delivery: the
  // radio returns to RX at the end of its own airtime, and responses
  // (ACKs) can only arrive afterwards. Phantoms have no local
  // transmitter, hence no completion.
  if (done.on_complete) done.on_complete();
  deliver(done);
}

void Medium::deliver(const ActiveTx& tx) {
  // Candidate receivers: with the grid, only listening nodes inside the
  // audible radius; sorted so RNG draws happen in the same
  // ascending-NodeId order as the dense scan, which polls every node
  // (bit-for-bit equivalence between modes: an unlisted node's
  // rx_enabled() is false, so it never reaches a draw).
  std::vector<NodeId>& candidates = delivery_scratch_;
  candidates.clear();
  const Position origin = tx_origin(tx);
  if (grid_enabled_) {
    collect_in_range(origin, tx.audible_range_m, candidates);
    // Each cell's bucket is sorted, so candidates from a single cell
    // (a dense hall) need no sort at all.
    if (!std::is_sorted(candidates.begin(), candidates.end())) {
      std::sort(candidates.begin(), candidates.end());
    }
  } else {
    candidates.resize(clients_.size());
    std::iota(candidates.begin(), candidates.end(), NodeId{0});
  }

  RxFrame frame;
  frame.transmitter = tx.transmitter;
  frame.mpdu = tx.mpdu;  // refcount bump; zero payload copies per receiver
  frame.airtime = tx.airtime;
  frame.rate = tx.rate;

  const bool any_node_floor = !node_loss_floors_.empty();
  // On the grid, a listener filed only under the other waveform class is
  // skipped on its flag byte: demodulates() would refuse the frame (its
  // contract), so skipping it changes no outcome. The dense scan ignores
  // the filing.
  const std::uint8_t waveform =
      !grid_enabled_ ? 0 : (tx.rate ? kFlagHearsWifi : kFlagHearsRateless);

  for (const NodeId receiver : candidates) {
    if (!tx.remote && receiver == tx.transmitter) continue;
    const std::uint8_t flags = node_flags_[receiver];
    if (flags & kFlagRxBlocked) continue;  // injected deafness
    if ((flags & waveform) != waveform) continue;
    if (!clients_[receiver]->rx_enabled()) continue;
    // A waveform this radio cannot demodulate is only interference: no
    // callback, no counter, no RNG draw.
    if (!clients_[receiver]->demodulates(tx.rate)) continue;

    // A local transmitter is heard from where it is now, like the
    // interferers below.
    const Position rx_pos = node_position(receiver);
    const double rx_power =
        channel_.rx_power_dbm(tx.tx_power_dbm, distance_m(tx_origin(tx), rx_pos));
    if (rx_power < kCarrierSenseDbm) continue;  // below detection: silence

    frame.rx_power_dbm = rx_power;
    frame.snr_db = rx_power - channel_.config().noise_floor_dbm - noise_offset_db_;

    // Collision: any overlapping transmission audible at this receiver.
    bool collided = false;
    for (const auto& intf : tx.interferers) {
      if (!intf.remote && intf.transmitter == receiver) {
        collided = true;  // receiver was itself transmitting during overlap
        break;
      }
      const Position ip = intf.remote ? intf.origin : node_position(intf.transmitter);
      if (channel_.rx_power_dbm(intf.tx_power_dbm, distance_m(ip, rx_pos)) >=
          kCarrierSenseDbm) {
        collided = true;
        break;
      }
    }
    if (collided) {
      ++stats_.collision_losses;
      clients_[receiver]->on_corrupt_frame(frame, /*collision=*/true);
      continue;
    }

    // Channel error.
    double per = tx.rate ? channel_.packet_error_rate(frame.snr_db, *tx.rate,
                                                      tx.mpdu.size())
                         : channel_.ble_packet_error_rate(frame.snr_db, tx.mpdu.size());
    per = std::min(1.0, per * per_multiplier_);
    // Independent erasure floor: lose at least `loss_floor_` of frames
    // regardless of SNR (union of the two independent loss processes).
    // The per-node floor stacks the same way, but only when set — the
    // composed expression is not bit-identical to the global-only one
    // at a zero node floor, and digest-pinned determinism tests require
    // the legacy path untouched.
    double floor = loss_floor_;
    if (any_node_floor) {
      auto it = node_loss_floors_.find(receiver);
      if (it != node_loss_floors_.end() && it->second > 0.0) {
        floor = 1.0 - (1.0 - floor) * (1.0 - it->second);
      }
    }
    per = floor + (1.0 - floor) * per;
    if (rng_.chance(per)) {
      ++stats_.channel_losses;
      clients_[receiver]->on_corrupt_frame(frame, /*collision=*/false);
      continue;
    }

    ++stats_.deliveries;
    clients_[receiver]->on_frame(frame);
  }
}

}  // namespace wile::sim
