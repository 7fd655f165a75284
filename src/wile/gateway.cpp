#include "wile/gateway.hpp"

#include <algorithm>

namespace wile::core {

void ForwardedReading::encode_into(Bytes& out) const {
  out.reserve(out.size() + 12 + data.size());
  const auto u16 = [&out](std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  const auto u32 = [&u16](std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xffff));
    u16(static_cast<std::uint16_t>(v >> 16));
  };
  u32(device_id);
  u32(sequence);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(static_cast<std::uint8_t>(rssi_dbm));
  u16(static_cast<std::uint16_t>(data.size()));
  out.insert(out.end(), data.begin(), data.end());
}

std::optional<ForwardedReading> ForwardedReading::decode(BytesView payload) {
  try {
    ByteReader r{payload};
    ForwardedReading out;
    out.device_id = r.u32le();
    out.sequence = r.u32le();
    out.type = static_cast<MessageType>(r.u8());
    out.rssi_dbm = static_cast<std::int8_t>(r.u8());
    const std::uint16_t len = r.u16le();
    if (len != r.remaining()) return std::nullopt;
    out.data = r.bytes_copy(len);
    return out;
  } catch (const BufferUnderflow&) {
    return std::nullopt;
  }
}

void ForwardedBatch::begin(Bytes& out) {
  out.clear();
  out.push_back(kVersion);
  out.push_back(0);  // flags, none defined in v1
  out.push_back(0);  // count, patched by finish()
  out.push_back(0);
}

void ForwardedBatch::append(Bytes& out, const ForwardedReading& reading) {
  const std::size_t len_at = out.size();
  out.push_back(0);  // record_len, patched below
  out.push_back(0);
  reading.encode_into(out);
  const std::size_t len = out.size() - len_at - 2;
  out[len_at] = static_cast<std::uint8_t>(len & 0xff);
  out[len_at + 1] = static_cast<std::uint8_t>((len >> 8) & 0xff);
}

void ForwardedBatch::finish(Bytes& out, std::size_t count) {
  out[2] = static_cast<std::uint8_t>(count & 0xff);
  out[3] = static_cast<std::uint8_t>((count >> 8) & 0xff);
}

Bytes ForwardedBatch::encode() const {
  Bytes out;
  begin(out);
  for (const ForwardedReading& reading : readings) append(out, reading);
  finish(out, readings.size());
  return out;
}

std::optional<ForwardedBatch> ForwardedBatch::decode(BytesView payload) {
  try {
    ByteReader r{payload};
    if (r.u8() != kVersion) return std::nullopt;
    if (r.u8() != 0) return std::nullopt;  // unknown flags
    const std::uint16_t count = r.u16le();
    ForwardedBatch out;
    out.readings.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      const std::uint16_t len = r.u16le();
      auto reading = ForwardedReading::decode(r.bytes(len));
      if (!reading) return std::nullopt;
      out.readings.push_back(std::move(*reading));
    }
    if (!r.empty()) return std::nullopt;  // trailing bytes
    return out;
  } catch (const BufferUnderflow&) {
    return std::nullopt;
  }
}

Gateway::Gateway(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
                 GatewayConfig config, Rng rng)
    : scheduler_(scheduler), config_(std::move(config)), rng_(std::move(rng)) {
  monitor_ = std::make_unique<Receiver>(scheduler, medium, position, config_.monitor);
  station_ = std::make_unique<sta::Station>(scheduler, medium, position, config_.station,
                                            rng_.fork());
  monitor_->set_message_callback(
      [this](const Message& message, const RxMeta& meta) { enqueue(message, meta); });
  station_->set_link_lost_handler([this] { on_uplink_lost(); });
}

Gateway::~Gateway() {
  if (reconnect_timer_) scheduler_.cancel(*reconnect_timer_);
  if (pump_timer_) scheduler_.cancel(*pump_timer_);
}

void Gateway::start(std::function<void(bool)> ready) {
  started_ = true;
  first_ready_ = std::move(ready);
  attempt_connect();
}

void Gateway::kill_uplink() { station_->force_link_down(); }

void Gateway::attempt_connect() {
  reconnect_timer_.reset();
  if (!station_->deep_sleeping()) {
    // Teardown (or a previous attempt) still settling; come back later.
    schedule_reconnect();
    return;
  }
  const bool initial = !first_attempt_done_;
  first_attempt_done_ = true;
  if (!initial) ++stats_.reconnect_attempts;
  station_->connect_and_enter_power_save([this, initial](bool ok) {
    uplink_ready_ = ok;
    if (ok) {
      consecutive_connect_failures_ = 0;
      if (!initial) ++stats_.reassociations;
    } else {
      ++consecutive_connect_failures_;
    }
    if (initial && first_ready_) {
      auto cb = std::move(first_ready_);
      first_ready_ = {};
      cb(ok);
    }
    if (ok) {
      pump();  // drain whatever queued up during the outage
    } else {
      schedule_reconnect();
    }
  });
}

void Gateway::on_uplink_lost() {
  if (!uplink_ready_) return;  // already supervising a reconnect
  uplink_ready_ = false;
  ++stats_.uplink_losses;
  // A loss is usually correlated across the fleet (the AP died, not this
  // box); arm the one-shot desync so the first reassociation wave is
  // spread instead of synchronized.
  desync_pending_ = true;
  // An in-flight send (if any) reports its failed CycleReport right after
  // this handler; its batch is requeued there. Here we only arrange the
  // re-association.
  schedule_reconnect();
}

void Gateway::schedule_reconnect() {
  if (!started_ || reconnect_timer_) return;
  reconnect_timer_ = scheduler_.schedule_in(backoff_delay(), [this] { attempt_connect(); });
}

Duration Gateway::backoff_delay() {
  const int shift = std::min(consecutive_connect_failures_, 16);
  Duration delay = config_.reconnect_backoff_base * (std::int64_t{1} << shift);
  if (delay.count() <= 0 || delay > config_.reconnect_backoff_cap) {
    delay = config_.reconnect_backoff_cap;
  }
  const double spread =
      1.0 + config_.reconnect_jitter_fraction * (2.0 * rng_.uniform() - 1.0);
  Duration jittered{
      static_cast<std::int64_t>(static_cast<double>(delay.count()) * spread)};
  if (desync_pending_) {
    // Deterministic (seeded) fleet desynchronisation: uniform extra
    // delay on the first attempt after a loss, drawn from this
    // gateway's own RNG so same-seed runs reproduce it exactly.
    desync_pending_ = false;
    if (config_.reconnect_desync_spread.count() > 0) {
      jittered += Duration{static_cast<std::int64_t>(
          rng_.uniform() * static_cast<double>(config_.reconnect_desync_spread.count()))};
    }
  }
  return std::max(jittered, msec(1));
}

void Gateway::drop_reading(std::uint64_t& reason_counter) {
  ++reason_counter;
  ++stats_.dropped_total;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->instant(scheduler_.now(), monitor_->node_id(), telemetry::Phase::Drop);
  }
}

void Gateway::enqueue(const Message& message, const RxMeta& meta) {
  ++stats_.received;
  ForwardedReading reading;
  reading.device_id = message.device_id;
  reading.sequence = message.sequence;
  reading.type = message.type;
  reading.rssi_dbm = static_cast<std::int8_t>(
      std::max(-127.0, std::min(127.0, meta.rssi_dbm)));
  reading.data = message.data;

  if (queue_.size() >= config_.max_queue) {
    queue_.pop_front();  // newest-first retention: evict the oldest reading
    drop_reading(stats_.dropped_queue_full);
  }
  queue_.push_back(QueuedReading{std::move(reading), 0});
  pump();
}

void Gateway::pump() {
  if (!uplink_ready_ || sending_ || queue_.empty()) return;
  sending_ = true;
  const std::size_t batch_max = std::max<std::size_t>(1, config_.batch_max);
  const std::size_t take = std::min(batch_max, queue_.size());
  in_flight_.clear();
  ForwardedBatch::begin(arena_);
  for (std::size_t i = 0; i < take; ++i) {
    QueuedReading item = std::move(queue_.front());
    queue_.pop_front();
    if (item.attempts > 0) ++stats_.retries;
    ForwardedBatch::append(arena_, item.reading);
    in_flight_.push_back(std::move(item));
  }
  ForwardedBatch::finish(arena_, in_flight_.size());
  if (batch_fill_ != nullptr) {
    batch_fill_->record(static_cast<std::uint64_t>(in_flight_.size()));
  }
  station_->power_save_send(std::move(arena_), [this](const sta::CycleReport& report) {
    on_send_result(report.success);
  });
}

void Gateway::on_send_result(bool success) {
  sending_ = false;
  // The cycle is over (either way), so the payload buffer is idle; take
  // it back and re-fill it next pump instead of allocating.
  arena_ = station_->reclaim_payload();
  if (success) {
    stats_.forwarded += in_flight_.size();
    ++stats_.batches_sent;
  } else {
    ++stats_.forward_failures;
    // Walk the failed batch back-to-front pushing at the queue head, so
    // surviving readings retry in their original order ahead of anything
    // that arrived during the outage. Per-reading budgets still decide
    // individual fates: a reading over its retry budget is abandoned, and
    // when the queue filled up mid-outage the oldest (these) lose —
    // newest-first retention, same as enqueue.
    for (auto it = in_flight_.rbegin(); it != in_flight_.rend(); ++it) {
      ++it->attempts;
      if (it->attempts > config_.forward_retry_limit) {
        drop_reading(stats_.dropped_retry_budget);
      } else if (queue_.size() >= config_.max_queue) {
        drop_reading(stats_.dropped_queue_full);
      } else {
        queue_.push_front(std::move(*it));
      }
    }
  }
  in_flight_.clear();
  // Drain anything that arrived (or was requeued) while the uplink was
  // busy. Deferred a beat so a failed send cannot spin synchronously.
  if (!queue_.empty() && uplink_ready_ && !pump_timer_) {
    pump_timer_ = scheduler_.schedule_in(msec(1), [this] {
      pump_timer_.reset();
      pump();
    });
  }
}

void Gateway::publish_metrics(telemetry::MetricsRegistry& registry, std::string prefix) const {
  using G = Gateway;
  static constexpr telemetry::Row kRows[] = {
      telemetry::counter<G>("received", [](const G& g) { return g.stats_.received; }),
      telemetry::counter<G>("forwarded", [](const G& g) { return g.stats_.forwarded; }),
      telemetry::counter<G>("batches_sent", [](const G& g) { return g.stats_.batches_sent; }),
      telemetry::counter<G>("dropped_queue_full",
                            [](const G& g) { return g.stats_.dropped_queue_full; }),
      telemetry::counter<G>("forward_failures",
                            [](const G& g) { return g.stats_.forward_failures; }),
      telemetry::counter<G>("retries", [](const G& g) { return g.stats_.retries; }),
      telemetry::counter<G>("dropped_retry_budget",
                            [](const G& g) { return g.stats_.dropped_retry_budget; }),
      telemetry::counter<G>("dropped_total", [](const G& g) { return g.stats_.dropped_total; }),
      telemetry::counter<G>("uplink_losses", [](const G& g) { return g.stats_.uplink_losses; }),
      telemetry::counter<G>("reconnect_attempts",
                            [](const G& g) { return g.stats_.reconnect_attempts; }),
      telemetry::counter<G>("reassociations", [](const G& g) { return g.stats_.reassociations; }),
      telemetry::counter<G>("queue_depth", [](const G& g) { return g.queue_.size(); }),
      telemetry::histogram<G>("batch_fill", [](const G& g) { return g.batch_fill_; }),
  };
  static constexpr telemetry::Schema kSchema{"gateway", kRows};
  batch_fill_ = registry.make_histogram();
  registry.bind_group(prefix, kSchema, this);
  monitor_->publish_metrics(registry, prefix + ".monitor");
  station_->publish_metrics(registry, prefix + ".station");
}

}  // namespace wile::core
