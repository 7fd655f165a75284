#include "ap/wur_scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace wile::ap {

WurScheduler::WurScheduler(sim::Scheduler& scheduler, sim::Medium& medium,
                           sim::Position position, Rng rng, Config config)
    : scheduler_(scheduler), medium_(medium), config_(config) {
  node_id_ = medium_.attach(this, position);
  medium_.set_listening(node_id_, false);  // transmit-only: never polled
  sim::CsmaConfig csma_cfg;
  csma_cfg.tx_power_dbm = config_.tx_power_dbm;
  csma_ = std::make_unique<sim::Csma>(scheduler_, medium_, node_id_, rng.fork(), csma_cfg);
}

void WurScheduler::wake(std::uint16_t wur_id) {
  phy::WakeUpFrame frame;
  frame.group_addressed = false;
  frame.address = wur_id & phy::WurPhy::kMaxId;
  frame.seq = seq_[frame.address]++;
  const Bytes body = phy::encode_wakeup_frame(frame);
  const Duration airtime = phy::WurPhy::frame_airtime(config_.rate);
  const int repeats = std::max(config_.repeats, 1);
  for (int r = 0; r < repeats; ++r) {
    ++wakes_sent_;
    tx_airtime_total_ += airtime;
    csma_->send_raw(body, airtime, {});
  }
}

void WurScheduler::start_round_robin(std::vector<std::uint16_t> ids,
                                     Duration sweep_period) {
  if (ids.empty()) throw std::invalid_argument("WurScheduler: empty WUR ID list");
  if (sweep_period.count() <= 0) {
    throw std::invalid_argument("WurScheduler: period must be > 0");
  }
  ++campaign_epoch_;
  rr_ids_ = std::move(ids);
  rr_index_ = 0;
  tick_gap_ = Duration{std::max<std::int64_t>(
      sweep_period.count() / static_cast<std::int64_t>(rr_ids_.size()), 1)};
  next_tick_at_ = scheduler_.now() + tick_gap_;
  schedule_next_tick();
}

void WurScheduler::stop() { ++campaign_epoch_; }

void WurScheduler::schedule_next_tick() {
  const std::uint64_t epoch = campaign_epoch_;
  scheduler_.schedule_at(next_tick_at_, [this, epoch] {
    if (epoch != campaign_epoch_) return;  // campaign replaced or stopped
    next_tick_at_ += tick_gap_;
    const std::uint16_t id = rr_ids_[rr_index_];
    rr_index_ = (rr_index_ + 1) % rr_ids_.size();
    wake(id);
    schedule_next_tick();
  });
}

}  // namespace wile::ap
