#include "sim/csma.hpp"

#include <algorithm>
#include <utility>

#include "dot11/frame.hpp"

namespace wile::sim {

using phy::MacTiming;

Csma::Csma(Scheduler& scheduler, Medium& medium, NodeId self, Rng rng, Config config)
    : scheduler_(scheduler), medium_(medium), self_(self), rng_(rng), config_(config) {}

void Csma::send(FrameBuffer mpdu, phy::WifiRate rate, bool expect_ack, DoneCallback done) {
  Slot& s = enqueue(std::move(mpdu), std::move(done));
  s.rate = rate;
  s.expect_ack = expect_ack;
  s.raw_airtime.reset();
  if (!busy_) start_next();
}

void Csma::send_raw(FrameBuffer mpdu, Duration airtime, DoneCallback done) {
  Slot& s = enqueue(std::move(mpdu), std::move(done));
  s.rate = {};
  s.expect_ack = false;
  s.raw_airtime = airtime;
  if (!busy_) start_next();
}

Csma::Slot& Csma::enqueue(FrameBuffer mpdu, DoneCallback done) {
  if (queued_ == ring_.size()) {
    // Full: unroll into a ring twice the size, oldest first.
    std::vector<Slot> bigger(std::max<std::size_t>(1, 2 * ring_.size()));
    for (std::size_t i = 0; i < queued_; ++i) bigger[i] = std::move(ring_[at(i)]);
    ring_ = std::move(bigger);
    head_ = 0;
  }
  Slot& s = ring_[at(queued_)];
  ++queued_;
  s.mpdu = std::move(mpdu);
  s.done = std::move(done);
  s.transmissions = 0;
  s.cw = config_.cw_min;
  return s;
}

void Csma::drop_queued() {
  // The head send keeps going while it is in flight; every other slot
  // is freed: its frame released, its callback destroyed uninvoked.
  const std::size_t keep = busy_ ? 1 : 0;
  for (std::size_t i = keep; i < queued_; ++i) {
    Slot& s = ring_[at(i)];
    s.mpdu = {};
    s.done.reset();
  }
  queued_ = keep;
}

std::size_t Csma::frames_held() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < queued_; ++i) n += ring_[at(i)].mpdu.empty() ? 0 : 1;
  return n;
}

void Csma::start_next() {
  if (queued_ == 0) return;
  busy_ = true;
  begin_access();
}

void Csma::begin_access() {
  ++current().transmissions;
  sense_difs(Duration{0});
}

void Csma::observe_nav(std::uint16_t duration_us) {
  if (duration_us & 0x8000) return;  // AID / CFP encodings, not a NAV value
  const TimePoint until = scheduler_.now() + Duration{duration_us};
  if (until > nav_until_) nav_until_ = until;
}

bool Csma::channel_busy() const {
  // Physical carrier sense OR virtual carrier sense (NAV).
  return medium_.carrier_busy(self_) || scheduler_.now() < nav_until_;
}

void Csma::sense_difs(Duration observed_idle) {
  // Sample the channel each slot; after a contiguous DIFS of idle,
  // proceed to backoff.
  if (channel_busy()) {
    scheduler_.schedule_in(MacTiming::kSlot,
                           [this] { sense_difs(Duration{0}); });
    return;
  }
  if (observed_idle >= MacTiming::kDifs) {
    const int slots = static_cast<int>(rng_.below(static_cast<std::uint64_t>(current().cw) + 1));
    backoff_slot(slots);
    return;
  }
  scheduler_.schedule_in(MacTiming::kSlot, [this, observed_idle] {
    sense_difs(observed_idle + MacTiming::kSlot);
  });
}

void Csma::backoff_slot(int remaining_slots) {
  if (channel_busy()) {
    // Freeze the counter; defer again for DIFS before resuming.
    scheduler_.schedule_in(MacTiming::kSlot, [this, remaining_slots] {
      resume_after_busy(remaining_slots);
    });
    return;
  }
  if (remaining_slots <= 0) {
    transmit_now();
    return;
  }
  scheduler_.schedule_in(MacTiming::kSlot,
                         [this, remaining_slots] { backoff_slot(remaining_slots - 1); });
}

void Csma::resume_after_busy(int remaining_slots) {
  if (channel_busy()) {
    scheduler_.schedule_in(MacTiming::kSlot, [this, remaining_slots] {
      resume_after_busy(remaining_slots);
    });
    return;
  }
  // Channel went idle again: wait a fresh DIFS then continue the frozen
  // backoff countdown.
  scheduler_.schedule_in(MacTiming::kDifs,
                         [this, remaining_slots] { backoff_slot(remaining_slots); });
}

void Csma::transmit_now() {
  Slot& cur = current();
  TxRequest req;
  if (cur.raw_airtime) {
    req.airtime = *cur.raw_airtime;
  } else {
    req.airtime = phy::frame_airtime(cur.mpdu.size(), cur.rate, config_.band);
    req.rate = cur.rate;
  }
  if (cur.expect_ack) {
    // The slot keeps the frame for retries; the air gets a copy whose
    // Duration/ID field reserves the channel through the ACK (SIFS +
    // ACK airtime).
    const auto nav = static_cast<std::uint16_t>(
        (MacTiming::kSifs + phy::ack_airtime(config_.band)).count());
    req.mpdu = dot11::with_duration(cur.mpdu, nav);
  } else {
    req.mpdu = std::move(cur.mpdu);  // the sender's own allocation goes on the air
  }
  req.tx_power_dbm = config_.tx_power_dbm;
  req.on_complete = [this] { on_tx_complete(); };
  if (tx_listener_) tx_listener_(req.airtime, cur.rate);
  medium_.transmit(self_, std::move(req));
}

void Csma::on_tx_complete() {
  if (!current().expect_ack) {
    finish(true);
    return;
  }
  awaiting_ack_ = true;
  // ACK timeout: SIFS + ACK airtime + one slot of slack.
  const Duration timeout =
      MacTiming::kSifs + phy::ack_airtime(config_.band) + MacTiming::kSlot;
  ack_timer_ = scheduler_.schedule_in(timeout, [this] { on_ack_timeout(); });
}

void Csma::notify_ack() {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  if (ack_timer_) {
    scheduler_.cancel(*ack_timer_);
    ack_timer_.reset();
  }
  finish(true);
}

void Csma::on_ack_timeout() {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  ack_timer_.reset();
  retry_or_fail();
}

void Csma::retry_or_fail() {
  Slot& cur = current();
  if (cur.transmissions > config_.retry_limit) {
    finish(false);
    return;
  }
  cur.cw = std::min(cur.cw * 2 + 1, config_.cw_max);
  begin_access();
}

void Csma::finish(bool success) {
  Result result;
  result.success = success;
  result.transmissions = current().transmissions;
  DoneCallback done = std::move(current().done);
  current().mpdu = {};  // a unicast's retry copy
  // Free the slot before the callback, which may queue the next send.
  head_ = (head_ + 1) % ring_.size();
  --queued_;
  busy_ = false;
  if (done) done(result);
  // The callback may have queued more work.
  if (!busy_ && queued_ > 0) start_next();
}

}  // namespace wile::sim
