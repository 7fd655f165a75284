#include "replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>

#include "phy/airtime.hpp"
#include "phy/wur_phy.hpp"
#include "power/devices.hpp"
#include "power/timeline.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "wile/codec.hpp"
#include "wile/rules/engine.hpp"

namespace perfbench {

using namespace wile;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// --- scheduler -----------------------------------------------------------------

struct TimerFleet {
  sim::Scheduler scheduler;
  Rng rng;
  std::int64_t period_us = 0;
  std::vector<sim::EventId> guard;
};

void arm_wake(TimerFleet* f, std::size_t i, std::int64_t delay_us);

void on_wake(TimerFleet* f, std::size_t i) {
  // Next wake first (wake-to-wake cadence with ±500 ms jitter), then
  // this cycle's CSMA backoff and a guard timer the backoff cancels.
  arm_wake(f, i, f->period_us + f->rng.range(-500'000, 500'000));
  f->guard[i] = f->scheduler.schedule_in(msec(10), [] {});
  const auto backoff = usec(f->rng.range(34, 700));
  f->scheduler.schedule_in(backoff, [f, i] {
    f->scheduler.cancel(f->guard[i]);
    f->scheduler.schedule_in(usec(40), [] {});  // end of airtime
  });
}

void arm_wake(TimerFleet* f, std::size_t i, std::int64_t delay_us) {
  f->scheduler.schedule_in(usec(delay_us), [f, i] { on_wake(f, i); });
}

// --- medium --------------------------------------------------------------------

class StubRadio : public sim::MediumClient {
 public:
  StubRadio(bool listening, MediumReplay* counts) : listening_(listening), counts_(counts) {}
  void on_frame(const sim::RxFrame&) override { ++counts_->rx_work; }
  void on_corrupt_frame(const sim::RxFrame&, bool) override { ++counts_->rx_work; }
  [[nodiscard]] bool rx_enabled() const override {
    ++counts_->polls;
    return listening_;
  }

 private:
  bool listening_;
  MediumReplay* counts_;
};

// A Wi-LE beacon MPDU: header, fixed fields, hidden SSID, rates, DS and
// one vendor element carrying a 16-byte payload, plus FCS.
constexpr std::size_t kBeaconBytes = 95;

}  // namespace

SchedulerReplay replay_scheduler(const Workload& w, std::uint64_t seed) {
  auto fleet = std::make_unique<TimerFleet>();
  fleet->rng = Rng{seed ^ 0x5C4ED};
  fleet->period_us = std::chrono::duration_cast<std::chrono::microseconds>(w.period).count();
  const auto n = static_cast<std::size_t>(w.devices);
  fleet->guard.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    arm_wake(fleet.get(), i,
             static_cast<std::int64_t>(i * static_cast<std::size_t>(fleet->period_us) / n));
  }
  const auto t0 = Clock::now();
  fleet->scheduler.run_until(TimePoint{seconds(w.sim_seconds)});
  const double ns = ns_since(t0);
  SchedulerReplay r;
  r.events = fleet->scheduler.events_run();
  r.ns_per_event = r.events > 0 ? ns / static_cast<double>(r.events) : 0.0;
  return r;
}

MediumReplay replay_medium(const Workload& w, std::uint64_t seed, std::uint64_t frames,
                           double wake_share) {
  MediumReplay r;
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{seed ^ 0x3ED1}};
  std::vector<std::unique_ptr<StubRadio>> radios;
  std::vector<sim::NodeId> devices;
  for (const sim::Position& p : device_positions(w)) {
    radios.push_back(std::make_unique<StubRadio>(w.wur, &r));
    devices.push_back(medium.attach(radios.back().get(), p));
  }
  for (const sim::Position& p : gateway_positions(w)) {
    radios.push_back(std::make_unique<StubRadio>(true, &r));
    medium.attach(radios.back().get(), p);
  }
  sim::NodeId ap = 0;
  if (w.wur) {
    const double centre = gateway_positions(w).front().x_m;  // one gateway: the centre
    radios.push_back(std::make_unique<StubRadio>(false, &r));
    ap = medium.attach(radios.back().get(), {centre, centre});
  }
  const Duration beacon_air = phy::frame_airtime(kBeaconBytes, phy::WifiRate::Mcs7Sgi);
  const Duration wake_air = phy::WurPhy::frame_airtime(phy::WurRate::kHigh);

  Rng pick{seed ^ 0x7A11};
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < frames; ++k) {
    sim::TxRequest req;
    sim::NodeId from = 0;
    if (w.wur && pick.uniform() < wake_share) {
      from = ap;
      req.mpdu = Bytes(phy::WurPhy::kFrameBytes);
      req.airtime = wake_air;
      req.tx_power_dbm = 20.0;
    } else {
      from = devices[pick.below(devices.size())];
      req.mpdu = Bytes(kBeaconBytes);
      req.airtime = beacon_air;
      req.rate = phy::WifiRate::Mcs7Sgi;
    }
    medium.transmit(from, std::move(req));
    scheduler.run_until_idle();
  }
  const double ns = ns_since(t0);
  r.transmissions = medium.stats().transmissions;
  r.ns_per_tx = frames > 0 ? ns / static_cast<double>(frames) : 0.0;
  return r;
}

double replay_power(const Workload& w, std::uint64_t calls) {
  // One duty cycle as the sender reports it: init, TX phase, PA on and
  // off for the beacon, shutdown, sleep (the WUR companion's listen
  // phase in WUR mode).
  const power::Esp32PowerProfile p{};
  const char* sleep_label = w.wur ? "WurListen" : "Sleep";
  struct Step {
    Duration after;
    Amps current;
    const char* label;
  };
  const std::array<Step, 6> cycle = {{
      {msec(0), p.cpu_active, "MC/WiFi init"},
      {msec(18), p.cpu_active, "Tx"},
      {usec(300), p.radio_tx, "Tx"},
      {usec(60), p.cpu_active, "Tx"},
      {usec(200), p.cpu_active, "MC/WiFi init"},
      {msec(1), p.deep_sleep, sleep_label},
  }};
  power::PowerTimeline timeline{p.supply};
  timeline.set_max_segments(w.timeline_max_segments);
  TimePoint t{};
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < calls; ++k) {
    const Step& s = cycle[k % cycle.size()];
    t = t + (k % cycle.size() == 0 ? w.period - msec(20) : s.after);
    timeline.set_current(t, s.current, s.label);
  }
  const double ns = ns_since(t0);
  // Read the result so the loop cannot be dropped.
  if (timeline.energy_between(TimePoint{}, t).value < 0) return -1.0;
  return calls > 0 ? ns / static_cast<double>(calls) : 0.0;
}

CodecReplay replay_codec(std::uint64_t seed, std::uint64_t ops) {
  const core::Codec codec;
  std::vector<core::Message> messages(64);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    messages[i].device_id = static_cast<std::uint32_t>(i + 1);
    messages[i].sequence = static_cast<std::uint32_t>(i);
    messages[i].data = payload_for(seed, static_cast<int>(i), 0);
  }
  std::vector<dot11::IeList> encoded(messages.size());
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < ops; ++k) {
    core::Message& m = messages[k % messages.size()];
    ++m.sequence;
    const std::vector<dot11::InfoElement> ies = codec.encode(m);
    sink += ies.size();
    if (k < messages.size()) {
      for (const dot11::InfoElement& ie : ies) encoded[k].add(ie);
    }
  }
  const double encode_ns = ns_since(t0);
  const auto t1 = Clock::now();
  for (std::uint64_t k = 0; k < ops; ++k) {
    sink += codec.decode_all(encoded[k % encoded.size()]).size();
  }
  const double decode_ns = ns_since(t1);
  CodecReplay r;
  if (ops == 0 || sink != 2 * ops) return r;  // one element per message
  r.ns_per_encode = encode_ns / static_cast<double>(ops);
  r.ns_per_decode = decode_ns / static_cast<double>(ops);
  return r;
}

double replay_rules(const std::vector<rules::Reading>& stream, int passes) {
  if (stream.empty()) return 0.0;
  std::vector<double> ns;
  for (int i = 0; i < passes; ++i) {
    rules::Engine engine{rule_chain()};
    const auto t0 = Clock::now();
    for (const rules::Reading& r : stream) engine.on_reading(r);
    ns.push_back(ns_since(t0) / static_cast<double>(stream.size()));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace perfbench
