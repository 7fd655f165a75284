// CSMA/CA distributed coordination function (DCF), IEEE 802.11-2012 §9.3.
//
// One instance per transmitting radio. Handles DIFS deference, slotted
// binary-exponential backoff, transmission, ACK timeout and retry. The
// owner (STA/AP/Wi-LE node) feeds received ACKs back via notify_ack.
// Wi-LE broadcasts beacons with expect_ack=false — broadcast frames are
// never acknowledged, which is part of why a Wi-LE transmission is one
// frame instead of two.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "phy/airtime.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "util/inline_function.hpp"
#include "util/rng.hpp"

namespace wile::sim {

struct CsmaConfig {
  int retry_limit = phy::MacTiming::kRetryLimit;
  int cw_min = phy::MacTiming::kCwMin;
  int cw_max = phy::MacTiming::kCwMax;
  double tx_power_dbm = 0.0;
  phy::Band band = phy::Band::G2_4;
};

class Csma {
 public:
  using Config = CsmaConfig;

  /// Outcome of one send() call.
  struct Result {
    bool success = false;
    int transmissions = 0;  // 1 = no retries
  };
  /// Completion of one send; a capture of up to 48 bytes is stored inline.
  using DoneCallback = InlineFunction<void(const Result&)>;

  Csma(Scheduler& scheduler, Medium& medium, NodeId self, Rng rng, Config config = {});

  /// Queue an MPDU for transmission. The bytes are copied into a recycled
  /// queue slot before this returns, so the caller may reuse its buffer
  /// at once; the slot keeps its capacity, and the frame's one
  /// FrameBuffer is made when it goes on the air. `expect_ack` enables
  /// the ACK-timeout retry loop (unicast); broadcast frames complete when
  /// they leave the antenna. Sends are serviced FIFO.
  void send(BytesView mpdu, phy::WifiRate rate, bool expect_ack, DoneCallback done);

  /// Queue a frame whose airtime does not follow the 802.11 rate table —
  /// the 802.11ba WUR PPDU's OOK body, whose duration the caller computes
  /// from phy::WurPhy. The frame contends exactly like any broadcast
  /// (DIFS + backoff, no ACK) and is put on the medium with no WiFi rate,
  /// so receivers apply the non-OFDM error model. Copies `mpdu` as
  /// send() does.
  void send_raw(BytesView mpdu, Duration airtime, DoneCallback done);

  /// The owner observed an ACK addressed to this station.
  void notify_ack();

  /// Virtual carrier sense: the owner overheard a frame reserving the
  /// channel for `duration_us` (the 802.11 Duration/ID field). Values
  /// with bit 15 set are AIDs/CFP markers, not NAV, and are ignored.
  void observe_nav(std::uint16_t duration_us);

  /// Current NAV expiry (for tests).
  [[nodiscard]] TimePoint nav_until() const { return nav_until_; }

  /// Optional hook fired at the instant each (re)transmission starts,
  /// with its airtime and rate. Power models use it to overlay TX current.
  void set_tx_listener(std::function<void(Duration airtime, phy::WifiRate rate)> listener) {
    tx_listener_ = std::move(listener);
  }

  /// True when no send is queued or in flight.
  [[nodiscard]] bool idle() const { return !busy_ && queued_ == 0; }

  /// Discard every queued (not yet begun) send without invoking its
  /// callback. An in-flight transmission still completes — a crashing
  /// node's final frame leaves the antenna. Used by fault injection
  /// (AP outage) and brown-outs to silence a node instantly.
  void drop_queued();

 private:
  /// One send. Slots are recycled in place, so `mpdu` keeps its capacity
  /// and a steady stream of similar frames copies into storage the slot
  /// already owns.
  struct Slot {
    Bytes mpdu;
    phy::WifiRate rate{};
    bool expect_ack = false;
    DoneCallback done;
    /// Explicit airtime for non-802.11-rate waveforms (WUR OOK); when
    /// set the frame goes out with no WiFi rate attached.
    std::optional<Duration> raw_airtime;
    int transmissions = 0;
    int cw = 0;
  };

  /// Copy `mpdu` into the next free slot (growing the ring when full)
  /// and return it with its per-send state reset.
  Slot& enqueue(BytesView mpdu, DoneCallback done);
  /// The send at the head of the queue: the one in flight while busy_.
  Slot& current() { return ring_[head_]; }

  [[nodiscard]] bool channel_busy() const;
  void start_next();
  void begin_access();
  void sense_difs(Duration observed_idle);
  void backoff_slot(int remaining_slots);
  void resume_after_busy(int remaining_slots);
  void transmit_now();
  void on_tx_complete();
  void on_ack_timeout();
  void retry_or_fail();
  void finish(bool success);

  Scheduler& scheduler_;
  Medium& medium_;
  NodeId self_;
  Rng rng_;
  Config config_;

  /// FIFO ring of sends, oldest at head_; doubles when a send finds it
  /// full. `queued_` counts the in-flight send too.
  std::vector<Slot> ring_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  bool busy_ = false;
  std::optional<EventId> ack_timer_;
  bool awaiting_ack_ = false;
  std::function<void(Duration, phy::WifiRate)> tx_listener_;
  TimePoint nav_until_{};
};

}  // namespace wile::sim
