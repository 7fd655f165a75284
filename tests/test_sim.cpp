// Unit tests for src/sim: the event scheduler, the broadcast medium with
// collisions and carrier sense, and the CSMA/CA machine.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "dot11/frame.hpp"
#include "sim/csma.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"

namespace wile::sim {
namespace {

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint{usec(30)}, [&] { order.push_back(3); });
  s.schedule_at(TimePoint{usec(10)}, [&] { order.push_back(1); });
  s.schedule_at(TimePoint{usec(20)}, [&] { order.push_back(2); });
  s.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().us(), 30);
}

TEST(Scheduler, EqualTimesFireInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(TimePoint{usec(100)}, [&order, i] { order.push_back(i); });
  }
  s.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_in(usec(10), [&] { fired = true; });
  s.cancel(id);
  s.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelUnknownIdIsNoOp) {
  Scheduler s;
  s.cancel(12345);  // must not throw
  SUCCEED();
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) s.schedule_in(usec(5), tick);
  };
  s.schedule_in(usec(5), tick);
  s.run_until_idle();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(s.now().us(), 50);
}

TEST(Scheduler, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(TimePoint{usec(10)}, [&] { ++fired; });
  s.schedule_at(TimePoint{usec(100)}, [&] { ++fired; });
  s.run_until(TimePoint{usec(50)});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now().us(), 50);
  s.run_until(TimePoint{usec(200)});
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, ThrowsOnPastEvent) {
  Scheduler s;
  s.schedule_at(TimePoint{usec(10)}, [] {});
  s.run_until_idle();
  EXPECT_THROW(s.schedule_at(TimePoint{usec(5)}, [] {}), std::logic_error);
}

TEST(Scheduler, RunawayLoopGuard) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_in(usec(1), forever); };
  s.schedule_in(usec(1), forever);
  EXPECT_THROW(s.run_until_idle(1000), std::runtime_error);
}

TEST(Scheduler, StaleIdCannotCancelRecycledSlot) {
  Scheduler s;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = s.schedule_in(usec(10), [&] { a_fired = true; });
  s.cancel(a);  // frees the slot
  const EventId b = s.schedule_in(usec(20), [&] { b_fired = true; });
  EXPECT_NE(a, b);  // generation tag differs even if the slot is reused
  s.cancel(a);      // stale id: must not touch b's slot
  s.run_until_idle();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(Scheduler, CancellingOwnIdInsideHandlerIsNoOp) {
  Scheduler s;
  EventId id = 0;
  int fired = 0;
  id = s.schedule_in(usec(5), [&] {
    ++fired;
    s.cancel(id);  // already consumed; must not corrupt the slab
  });
  s.schedule_in(usec(6), [&fired] { ++fired; });
  s.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PendingEventsTracksCancellation) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(s.schedule_in(usec(i + 1), [] {}));
  EXPECT_EQ(s.pending_events(), 10u);
  for (int i = 0; i < 10; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending_events(), 5u);
  s.run_until_idle();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.events_run(), 5u);
}

TEST(Scheduler, HeavyChurnWithInterleavedCancels) {
  // Schedule/cancel storms must preserve time-then-insertion ordering.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> cancels;
  for (int i = 0; i < 1000; ++i) {
    const EventId id =
        s.schedule_at(TimePoint{usec(1000 - (i % 100))}, [&order, i] { order.push_back(i); });
    if (i % 3 == 0) cancels.push_back(id);
  }
  for (const EventId id : cancels) s.cancel(id);
  s.run_until_idle();
  ASSERT_FALSE(order.empty());
  // Verify global (time, insertion-seq) ordering of what fired.
  for (std::size_t k = 1; k < order.size(); ++k) {
    const int prev_t = 1000 - (order[k - 1] % 100);
    const int cur_t = 1000 - (order[k] % 100);
    EXPECT_TRUE(prev_t < cur_t || (prev_t == cur_t && order[k - 1] < order[k]));
  }
  EXPECT_EQ(order.size(), 1000u - cancels.size());
}

TEST(Scheduler, InlineStorageAvoidsHeapForSmallCaptures) {
  // The medium's completion lambda ({this, tx_id}) and every timer that
  // captures `this` plus a couple of words must stay inline.
  struct Small {
    void* a;
    std::uint64_t b;
    void operator()() {}
  };
  struct Big {
    std::array<std::uint8_t, 128> blob;
    void operator()() {}
  };
  static_assert(Scheduler::EventFn::fits_inline<Small>());
  static_assert(!Scheduler::EventFn::fits_inline<Big>());
  // Oversized callables still work via the heap fallback.
  Scheduler s;
  Big big{};
  big.blob[0] = 7;
  int seen = -1;
  s.schedule_in(usec(1), [big, &seen] { seen = big.blob[0]; });
  s.run_until_idle();
  EXPECT_EQ(seen, 7);
}

// ---------------------------------------------------------------------------
// Medium
// ---------------------------------------------------------------------------

class RecordingClient : public MediumClient {
 public:
  void on_frame(const RxFrame& frame) override { frames.push_back(frame); }
  void on_corrupt_frame(const RxFrame&, bool collision) override {
    if (collision) {
      ++collisions;
    } else {
      ++channel_losses;
    }
  }
  [[nodiscard]] bool rx_enabled() const override { return listening; }

  bool listening = true;
  std::vector<RxFrame> frames;
  int collisions = 0;
  int channel_losses = 0;
};

class MediumTest : public ::testing::Test {
 protected:
  Scheduler scheduler;
  phy::Channel channel{};
  Medium medium{scheduler, channel, Rng{1}};
};

TEST_F(MediumTest, DeliversToNearbyListener) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});

  TxRequest req;
  req.mpdu = Bytes{1, 2, 3};
  req.airtime = usec(100);
  req.rate = phy::WifiRate::G6;
  bool completed = false;
  req.on_complete = [&] { completed = true; };
  medium.transmit(tx, std::move(req));
  scheduler.run_until_idle();

  EXPECT_TRUE(completed);
  ASSERT_EQ(rx_client.frames.size(), 1u);
  EXPECT_EQ(rx_client.frames[0].mpdu, (Bytes{1, 2, 3}));
  EXPECT_EQ(rx_client.frames[0].transmitter, tx);
  EXPECT_LT(rx_client.frames[0].rx_power_dbm, 0.0);
  EXPECT_TRUE(tx_client.frames.empty());  // no self-reception
}

TEST_F(MediumTest, OutOfRangeHearsNothing) {
  RecordingClient tx_client, far_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&far_client, {100'000, 0});

  TxRequest req;
  req.mpdu = Bytes{1};
  req.airtime = usec(50);
  medium.transmit(tx, std::move(req));
  scheduler.run_until_idle();
  EXPECT_TRUE(far_client.frames.empty());
  EXPECT_EQ(far_client.collisions, 0);
}

TEST_F(MediumTest, SleepingRadioMissesFrames) {
  RecordingClient tx_client, rx_client;
  rx_client.listening = false;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});

  TxRequest req;
  req.mpdu = Bytes{1};
  req.airtime = usec(50);
  medium.transmit(tx, std::move(req));
  scheduler.run_until_idle();
  EXPECT_TRUE(rx_client.frames.empty());
}

TEST_F(MediumTest, OverlappingTransmissionsCollideAtReceiver) {
  RecordingClient a_client, b_client, rx_client;
  const NodeId a = medium.attach(&a_client, {0, 0});
  const NodeId b = medium.attach(&b_client, {1, 0});
  medium.attach(&rx_client, {0.5, 1});

  TxRequest ra;
  ra.mpdu = Bytes{1};
  ra.airtime = usec(100);
  medium.transmit(a, std::move(ra));

  scheduler.schedule_in(usec(50), [&] {
    TxRequest rb;
    rb.mpdu = Bytes{2};
    rb.airtime = usec(100);
    medium.transmit(b, std::move(rb));
  });
  scheduler.run_until_idle();

  EXPECT_TRUE(rx_client.frames.empty());
  EXPECT_EQ(rx_client.collisions, 2);
  EXPECT_EQ(medium.stats().collision_losses, 2u + 2u);  // a/b also hear each other
}

TEST_F(MediumTest, NonOverlappingTransmissionsBothArrive) {
  RecordingClient a_client, rx_client;
  const NodeId a = medium.attach(&a_client, {0, 0});
  medium.attach(&rx_client, {1, 0});

  TxRequest r1;
  r1.mpdu = Bytes{1};
  r1.airtime = usec(100);
  medium.transmit(a, std::move(r1));
  scheduler.schedule_in(usec(200), [&] {
    TxRequest r2;
    r2.mpdu = Bytes{2};
    r2.airtime = usec(100);
    medium.transmit(a, std::move(r2));
  });
  scheduler.run_until_idle();
  EXPECT_EQ(rx_client.frames.size(), 2u);
}

TEST_F(MediumTest, CarrierBusyDuringTransmission) {
  RecordingClient a_client, b_client;
  const NodeId a = medium.attach(&a_client, {0, 0});
  const NodeId b = medium.attach(&b_client, {2, 0});

  TxRequest req;
  req.mpdu = Bytes{1};
  req.airtime = usec(100);
  medium.transmit(a, std::move(req));

  EXPECT_TRUE(medium.carrier_busy(a));  // own TX
  EXPECT_TRUE(medium.carrier_busy(b));  // audible neighbour
  scheduler.run_until_idle();
  EXPECT_FALSE(medium.carrier_busy(a));
  EXPECT_FALSE(medium.carrier_busy(b));
}

TEST_F(MediumTest, DoubleTransmitThrows) {
  RecordingClient client;
  const NodeId a = medium.attach(&client, {0, 0});
  TxRequest r1;
  r1.mpdu = Bytes{1};
  r1.airtime = usec(100);
  medium.transmit(a, std::move(r1));
  TxRequest r2;
  r2.mpdu = Bytes{2};
  r2.airtime = usec(100);
  EXPECT_THROW(medium.transmit(a, std::move(r2)), std::logic_error);
}

// Pins the documented carrier-sense semantics (see Medium::carrier_busy):
// energy detection at the antenna ignores rx_blocked and noise_offset_db,
// while frame delivery honours both.
TEST_F(MediumTest, CarrierSenseIgnoresRxBlockedAndNoiseOffset) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  const NodeId rx = medium.attach(&rx_client, {2, 0});

  medium.set_rx_blocked(rx, true);
  medium.set_noise_offset_db(60.0);  // drowns any SNR, not the CS floor

  TxRequest req;
  req.mpdu = Bytes{1, 2, 3};
  req.airtime = usec(100);
  medium.transmit(tx, std::move(req));

  // A deaf radio's antenna still senses energy; noise does not raise the
  // absolute detection threshold.
  EXPECT_TRUE(medium.carrier_busy(rx));
  scheduler.run_until_idle();

  // ...but delivery honours the blackout: nothing decodable arrived.
  EXPECT_TRUE(rx_client.frames.empty());
  EXPECT_EQ(rx_client.collisions + rx_client.channel_losses, 0);
  EXPECT_FALSE(medium.carrier_busy(rx));

  // Unblocked, the same noise offset degrades SNR at delivery time: a
  // long frame at 2 m that would decode cleanly without the offset is
  // lost to channel error instead (PER ~ 1 at -15 dB SNR for 1000 B).
  medium.set_rx_blocked(rx, false);
  TxRequest again;
  again.mpdu = Bytes(1000, 0x5A);
  again.airtime = usec(100);
  again.rate = phy::WifiRate::G6;
  medium.transmit(tx, std::move(again));
  scheduler.run_until_idle();
  EXPECT_TRUE(rx_client.frames.empty());
  EXPECT_EQ(rx_client.channel_losses, 1);
}

TEST_F(MediumTest, ReceiversShareOneFrameBuffer) {
  RecordingClient tx_client;
  std::array<RecordingClient, 3> rx_clients;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  for (auto& c : rx_clients) medium.attach(&c, {1, 0});

  TxRequest req;
  req.mpdu = Bytes(1000, 0xEE);
  req.airtime = usec(100);
  medium.transmit(tx, std::move(req));
  scheduler.run_until_idle();

  ASSERT_EQ(rx_clients[0].frames.size(), 1u);
  const std::uint8_t* payload = rx_clients[0].frames[0].mpdu.data();
  for (auto& c : rx_clients) {
    ASSERT_EQ(c.frames.size(), 1u);
    // Zero-copy fan-out: every receiver sees the very same bytes.
    EXPECT_EQ(c.frames[0].mpdu.data(), payload);
  }
  EXPECT_GE(rx_clients[0].frames[0].mpdu.owners(), 3L);
}

TEST_F(MediumTest, SetPositionUpdatesSpatialIndex) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  const NodeId rx = medium.attach(&rx_client, {100'000, 0});  // far cell

  TxRequest r1;
  r1.mpdu = Bytes{1};
  r1.airtime = usec(50);
  medium.transmit(tx, std::move(r1));
  scheduler.run_until_idle();
  EXPECT_TRUE(rx_client.frames.empty());

  medium.set_position(rx, {2, 0});  // moves into the transmitter's cell
  TxRequest r2;
  r2.mpdu = Bytes{2};
  r2.airtime = usec(50);
  medium.transmit(tx, std::move(r2));
  scheduler.run_until_idle();
  ASSERT_EQ(rx_client.frames.size(), 1u);
  EXPECT_EQ(rx_client.frames[0].mpdu, (Bytes{2}));

  medium.set_position(rx, {-30'000, -40'000});  // negative-coordinate cell
  EXPECT_EQ(distance_m(medium.position(tx), medium.position(rx)), 50'000.0);
  TxRequest r3;
  r3.mpdu = Bytes{3};
  r3.airtime = usec(50);
  medium.transmit(tx, std::move(r3));
  scheduler.run_until_idle();
  EXPECT_EQ(rx_client.frames.size(), 1u);  // out of earshot again
}

TEST_F(MediumTest, RejectsNonFinitePositions) {
  RecordingClient tx_client, rx_client, other;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  const NodeId rx = medium.attach(&rx_client, {2, 0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::array<Position, 6> bad{
      {{nan, 0}, {0, nan}, {inf, 0}, {0, inf}, {-inf, 0}, {0, -inf}}};

  for (const Position& p : bad) {
    EXPECT_THROW(medium.attach(&other, p), std::invalid_argument);
    EXPECT_THROW(medium.set_position(rx, p), std::invalid_argument);
  }
  EXPECT_EQ(medium.node_count(), 2u);  // no half-attached node
  EXPECT_EQ(medium.position(rx).x_m, 2.0);
  EXPECT_EQ(medium.position(rx).y_m, 0.0);

  // The rejected moves left the receiver's grid entry where it was.
  TxRequest req;
  req.mpdu = Bytes{1};
  req.airtime = usec(50);
  medium.transmit(tx, std::move(req));
  scheduler.run_until_idle();
  EXPECT_EQ(rx_client.frames.size(), 1u);
}

// Counts rx_enabled() polls; the listener index must make them zero for
// a node that is not listening.
class PollCountingClient : public RecordingClient {
 public:
  [[nodiscard]] bool rx_enabled() const override {
    ++polls;
    return RecordingClient::rx_enabled();
  }
  mutable int polls = 0;
};

TEST_F(MediumTest, UnlistedNodeIsNeverPolledButStillTransmitsAndSenses) {
  RecordingClient tx_client, rx_client;
  PollCountingClient sleeper;
  sleeper.listening = false;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  const NodeId rx = medium.attach(&rx_client, {2, 0});
  const NodeId sl = medium.attach(&sleeper, {1, 1});
  EXPECT_TRUE(medium.listening(sl));  // attach starts every node listening

  auto send = [&](NodeId from, std::uint8_t tag) {
    TxRequest req;
    req.mpdu = Bytes{tag};
    req.airtime = usec(100);
    medium.transmit(from, std::move(req));
  };

  // Listed: polled once per frame, answers false, hears nothing.
  send(tx, 1);
  const bool busy_listed = medium.carrier_busy(sl);
  scheduler.run_until_idle();
  EXPECT_EQ(sleeper.polls, 1);

  medium.set_listening(sl, false);
  EXPECT_FALSE(medium.listening(sl));
  send(tx, 2);
  EXPECT_EQ(medium.carrier_busy(sl), busy_listed);  // energy detection unchanged
  EXPECT_TRUE(busy_listed);
  scheduler.run_until_idle();
  EXPECT_EQ(sleeper.polls, 1);  // skipped, not polled
  EXPECT_TRUE(sleeper.frames.empty());
  EXPECT_EQ(rx_client.frames.size(), 2u);

  // A deaf node can still shout.
  send(sl, 3);
  EXPECT_TRUE(medium.carrier_busy(rx));
  scheduler.run_until_idle();
  ASSERT_EQ(rx_client.frames.size(), 3u);
  EXPECT_EQ(rx_client.frames.back().transmitter, sl);
  EXPECT_EQ(sleeper.polls, 1);

  // The dense scan is the oracle: it ignores the index and polls everyone.
  medium.set_spatial_grid_enabled(false);
  send(tx, 4);
  scheduler.run_until_idle();
  EXPECT_EQ(sleeper.polls, 2);
  EXPECT_EQ(rx_client.frames.size(), 4u);
}

TEST_F(MediumTest, SetListeningIsIdempotent) {
  RecordingClient tx_client;
  PollCountingClient rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  const NodeId rx = medium.attach(&rx_client, {2, 0});

  auto send = [&] {
    TxRequest req;
    req.mpdu = Bytes{7};
    req.airtime = usec(50);
    medium.transmit(tx, std::move(req));
    scheduler.run_until_idle();
  };

  medium.set_listening(rx, true);  // already listening since attach
  send();
  EXPECT_EQ(rx_client.polls, 1);  // one grid entry: one poll, one frame
  EXPECT_EQ(rx_client.frames.size(), 1u);

  rx_client.listening = false;  // unlisted only while deaf (the contract)
  medium.set_listening(rx, false);
  medium.set_listening(rx, false);
  EXPECT_FALSE(medium.listening(rx));
  send();
  EXPECT_EQ(rx_client.polls, 1);

  rx_client.listening = true;
  medium.set_listening(rx, true);
  medium.set_listening(rx, true);
  EXPECT_TRUE(medium.listening(rx));
  send();
  EXPECT_EQ(rx_client.polls, 2);
  EXPECT_EQ(rx_client.frames.size(), 2u);
}

TEST_F(MediumTest, RelistedNodeIsDeliveredToAtItsNewPosition) {
  RecordingClient tx_client;
  PollCountingClient rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  const NodeId rx = medium.attach(&rx_client, {100'000, 0});  // far cell

  auto send = [&] {
    TxRequest req;
    req.mpdu = Bytes{9};
    req.airtime = usec(50);
    medium.transmit(tx, std::move(req));
    scheduler.run_until_idle();
  };

  rx_client.listening = false;
  medium.set_listening(rx, false);
  medium.set_position(rx, {2, 0});  // moves while unlisted
  EXPECT_EQ(medium.position(rx).x_m, 2.0);
  send();
  EXPECT_EQ(rx_client.polls, 0);
  rx_client.listening = true;
  medium.set_listening(rx, true);  // listed in the new cell
  send();
  EXPECT_EQ(rx_client.polls, 1);
  EXPECT_EQ(rx_client.frames.size(), 1u);

  // And back out: unlisted, moved out of earshot, re-listed there. No
  // entry may linger in the transmitter's cell.
  rx_client.listening = false;
  medium.set_listening(rx, false);
  medium.set_position(rx, {100'000, 0});
  rx_client.listening = true;
  medium.set_listening(rx, true);
  send();
  EXPECT_EQ(rx_client.polls, 1);
  EXPECT_EQ(rx_client.frames.size(), 1u);
}

// Delivery reports exactly the channel model's power at the current
// distance: from listeners on either side of the transmitter's NodeId, at
// two TX powers, after a listener moves, and from a phantom.
TEST_F(MediumTest, RxPowerIsTheChannelModelExactly) {
  RecordingClient lo_client, tx_client, hi_client;
  const NodeId lo = medium.attach(&lo_client, {1.5, 0.7});
  const NodeId tx = medium.attach(&tx_client, {0.3, -0.2});
  const NodeId hi = medium.attach(&hi_client, {-2.3, 1.1});
  ASSERT_LT(lo, tx);
  ASSERT_LT(tx, hi);

  const auto expected = [&](double tx_power_dbm, Position origin, NodeId rx) {
    return channel.rx_power_dbm(tx_power_dbm, distance_m(origin, medium.position(rx)));
  };
  const auto send = [&](double tx_power_dbm) {
    TxRequest req;
    req.mpdu = Bytes{1, 2, 3};
    req.airtime = usec(50);
    req.tx_power_dbm = tx_power_dbm;
    req.rate = phy::WifiRate::G6;
    medium.transmit(tx, std::move(req));
    scheduler.run_until_idle();
  };
  const auto expect_last = [&](double tx_power_dbm, Position origin) {
    ASSERT_FALSE(lo_client.frames.empty());
    ASSERT_FALSE(hi_client.frames.empty());
    EXPECT_EQ(lo_client.frames.back().rx_power_dbm, expected(tx_power_dbm, origin, lo));
    EXPECT_EQ(hi_client.frames.back().rx_power_dbm, expected(tx_power_dbm, origin, hi));
  };

  for (const double power : {0.0, 20.0}) {
    send(power);
    expect_last(power, medium.position(tx));
  }

  medium.set_position(lo, {3.7, -2.9});
  for (const double power : {20.0, 0.0}) {
    send(power);
    expect_last(power, medium.position(tx));
  }
  ASSERT_EQ(lo_client.frames.size(), 4u);
  EXPECT_NE(lo_client.frames[0].rx_power_dbm, lo_client.frames[3].rx_power_dbm);

  // A phantom from another shard is heard from its position snapshot.
  RemoteTx remote;
  remote.origin_node = 7;
  remote.origin = Position{0.9, -1.4};
  remote.start = scheduler.now();
  remote.end = scheduler.now() + usec(50);
  remote.tx_power_dbm = 20.0;
  remote.audible_range_m = 1000.0;
  remote.mpdu = FrameBuffer{Bytes{4, 5}};
  remote.airtime = usec(50);
  remote.rate = phy::WifiRate::G6;
  medium.inject_remote(remote);
  scheduler.run_until_idle();
  ASSERT_EQ(lo_client.frames.size(), 5u);
  EXPECT_EQ(lo_client.frames.back().transmitter, 7u);
  expect_last(20.0, remote.origin);
}

TEST_F(MediumTest, SetListeningRejectsBadId) {
  RecordingClient client;
  const NodeId id = medium.attach(&client, {0, 0});
  EXPECT_THROW(medium.set_listening(id + 1, false), std::out_of_range);
  EXPECT_THROW((void)medium.listening(id + 1), std::out_of_range);
  EXPECT_TRUE(medium.listening(id));
}

// --- modulation filter (MediumClient::demodulates) ---------------------------

/// Logs every outcome in order: 'D' delivered, 'L' channel loss, 'C'
/// collision.
class OutcomeClient : public MediumClient {
 public:
  void on_frame(const RxFrame&) override { log += 'D'; }
  void on_corrupt_frame(const RxFrame&, bool collision) override {
    log += collision ? 'C' : 'L';
  }
  [[nodiscard]] bool rx_enabled() const override { return true; }

  std::string log;
};

/// Demodulates one kind of waveform only: 802.11 PPDUs (`wifi`), or
/// non-802.11 frames like a WUR companion's OOK envelope detector.
class OneModulationClient : public OutcomeClient {
 public:
  explicit OneModulationClient(bool wifi) : wifi_(wifi) {}
  [[nodiscard]] bool demodulates(const std::optional<phy::WifiRate>& rate) const override {
    return rate.has_value() == wifi_;
  }

 private:
  bool wifi_;
};

struct FilterRun {
  std::string listener;  // the ordinary listener's outcome per frame
  std::string stub;
  Medium::Stats stats;
};

enum class Stub { None, CannotDemodulate, Demodulates };

/// kFrames frames from node 0 to an ordinary listener 11.5 m away (PER
/// about 0.3), optionally with a stub 11 m away (PER about 0.2, so it
/// would draw too) whose NodeId lies between the two.
FilterRun run_filter_case(bool grid, bool wifi_frames, Stub stub_kind) {
  constexpr int kFrames = 200;
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{0xF117}};
  medium.set_spatial_grid_enabled(grid);
  OutcomeClient tx_client, listener;
  OneModulationClient stub{/*wifi=*/(stub_kind == Stub::Demodulates) == wifi_frames};
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  if (stub_kind != Stub::None) medium.attach(&stub, {11, 0});
  medium.attach(&listener, {11.5, 0});

  for (int i = 0; i < kFrames; ++i) {
    scheduler.schedule_at(TimePoint{msec(i)}, [&] {
      TxRequest req;
      req.mpdu = Bytes(100, 0x5A);
      req.airtime = usec(100);
      if (wifi_frames) req.rate = phy::WifiRate::Mcs7;
      medium.transmit(tx, std::move(req));
    });
  }
  scheduler.run_until_idle();
  return {listener.log, stub.log, medium.stats()};
}

void expect_filtered_stub_is_invisible(bool wifi_frames) {
  for (const bool grid : {true, false}) {
    SCOPED_TRACE(grid ? "grid" : "dense");
    const FilterRun filtered = run_filter_case(grid, wifi_frames, Stub::CannotDemodulate);
    const FilterRun without = run_filter_case(grid, wifi_frames, Stub::None);

    // 0 < PER < 1 at the listener, so every frame consumed a draw.
    EXPECT_NE(filtered.listener.find('D'), std::string::npos);
    EXPECT_NE(filtered.listener.find('L'), std::string::npos);
    // The stub got neither callback, moved no counter and drew nothing:
    // the listener's outcomes are those of the medium without it.
    EXPECT_EQ(filtered.stub, "");
    EXPECT_EQ(filtered.listener, without.listener);
    EXPECT_EQ(filtered.stats, without.stats);
    EXPECT_EQ(filtered.stats.deliveries + filtered.stats.channel_losses,
              filtered.stats.transmissions);

    // Control: a stub that can demodulate the frames draws from the same
    // stream, which shifts the listener's outcomes.
    const FilterRun control = run_filter_case(grid, wifi_frames, Stub::Demodulates);
    EXPECT_EQ(control.stub.size(), filtered.listener.size());
    EXPECT_NE(control.listener, without.listener);
  }
}

TEST(MediumModulationFilter, WifiFrameSkipsAnOokOnlyListener) {
  expect_filtered_stub_is_invisible(/*wifi_frames=*/true);
}

TEST(MediumModulationFilter, RatelessFrameSkipsAWifiOnlyListener) {
  expect_filtered_stub_is_invisible(/*wifi_frames=*/false);
}

/// A one-class listener. It boots unlisted and then lists itself, which
/// files it under its class; when its class changes it republishes with
/// set_listening(id, true) while still listed. Counts rx_enabled() polls.
class FilingClient : public OutcomeClient {
 public:
  FilingClient(Medium& medium, Position position, bool wifi)
      : medium_(medium), wifi_(wifi) {
    id_ = medium.attach(this, position);
    medium.set_listening(id_, false);  // no frame is in flight yet
    medium.set_listening(id_, true);
  }
  void switch_class() {
    wifi_ = !wifi_;
    medium_.set_listening(id_, true);
  }
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool rx_enabled() const override {
    ++polls;
    return true;
  }
  [[nodiscard]] bool demodulates(const std::optional<phy::WifiRate>& rate) const override {
    return rate.has_value() == wifi_;
  }

  mutable int polls = 0;

 private:
  Medium& medium_;
  NodeId id_{};
  bool wifi_;
};

struct FilingRun {
  std::string wifi_log, rateless_log, both_log, switcher_log;
  int wifi_polls = 0;
  int rateless_polls = 0;
  bool switcher_stayed_listed = true;
  Medium::Stats stats;
};

constexpr int kFilingFrames = 200;  // alternating 802.11 and rate-less

/// An 802.11-only, a rate-less-only and an ordinary listener 11-11.5 m
/// from the transmitter (0 < PER < 1, so each delivery draws), plus a
/// switcher that starts 802.11-only and turns rate-less-only halfway.
FilingRun run_filing_case(bool grid) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{0xF117}};
  medium.set_spatial_grid_enabled(grid);
  OutcomeClient tx_client, both;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  FilingClient wifi{medium, {11, 0}, /*wifi=*/true};
  FilingClient rateless{medium, {11.2, 0}, /*wifi=*/false};
  FilingClient switcher{medium, {11.3, 0}, /*wifi=*/true};
  medium.attach(&both, {11.5, 0});

  FilingRun run;
  for (int i = 0; i < kFilingFrames; ++i) {
    scheduler.schedule_at(TimePoint{msec(i)}, [&, i] {
      if (i == kFilingFrames / 2) switcher.switch_class();
      run.switcher_stayed_listed &= medium.listening(switcher.id());
      TxRequest req;
      req.mpdu = Bytes(100, 0x5A);
      req.airtime = usec(100);
      if (i % 2 == 0) req.rate = phy::WifiRate::Mcs7;
      medium.transmit(tx, std::move(req));
    });
  }
  scheduler.run_until_idle();
  run.wifi_log = wifi.log;
  run.rateless_log = rateless.log;
  run.both_log = both.log;
  run.switcher_log = switcher.log;
  run.wifi_polls = wifi.polls;
  run.rateless_polls = rateless.polls;
  run.stats = medium.stats();
  return run;
}

TEST(MediumModulationFilter, GridSkipsAListenerFiledUnderTheOtherClass) {
  const FilingRun grid = run_filing_case(/*grid=*/true);
  const FilingRun dense = run_filing_case(/*grid=*/false);

  // The grid polls each one-class listener only for frames of its class;
  // the dense scan, the oracle, polls both for every frame.
  EXPECT_EQ(grid.wifi_polls, kFilingFrames / 2);
  EXPECT_EQ(grid.rateless_polls, kFilingFrames / 2);
  EXPECT_EQ(dense.wifi_polls, kFilingFrames);
  EXPECT_EQ(dense.rateless_polls, kFilingFrames);

  // Skipping them changed no outcome anywhere.
  EXPECT_EQ(grid.stats, dense.stats);
  EXPECT_EQ(grid.wifi_log, dense.wifi_log);
  EXPECT_EQ(grid.rateless_log, dense.rateless_log);
  EXPECT_EQ(grid.both_log, dense.both_log);
  EXPECT_EQ(grid.wifi_log.size(), static_cast<std::size_t>(kFilingFrames / 2));
  EXPECT_EQ(grid.rateless_log.size(), static_cast<std::size_t>(kFilingFrames / 2));
  EXPECT_EQ(grid.both_log.size(), static_cast<std::size_t>(kFilingFrames));
  EXPECT_NE(grid.both_log.find('D'), std::string::npos);
  EXPECT_NE(grid.both_log.find('L'), std::string::npos);
}

// A listed node that changes class re-files by republishing, without
// being unlisted in between, and the grid hands it its next frame of the
// new class exactly as the dense scan does.
TEST(MediumModulationFilter, RepublishingRefilesAListedNode) {
  const FilingRun grid = run_filing_case(/*grid=*/true);
  const FilingRun dense = run_filing_case(/*grid=*/false);

  EXPECT_TRUE(grid.switcher_stayed_listed);
  // 50 802.11 frames before the switch, 50 rate-less frames after it.
  EXPECT_EQ(grid.switcher_log.size(), static_cast<std::size_t>(kFilingFrames / 2));
  EXPECT_EQ(grid.switcher_log, dense.switcher_log);
  EXPECT_EQ(grid.stats, dense.stats);
  EXPECT_EQ(grid.both_log, dense.both_log);
}

// A frame a listener cannot demodulate is still energy at its antenna:
// it busies carrier sense and collides with the frame the listener can
// demodulate.
TEST_F(MediumTest, FilteredFrameStillInterferes) {
  RecordingClient wifi_client, ook_client;
  wifi_client.listening = false;
  ook_client.listening = false;
  OneModulationClient companion{/*wifi=*/false};
  const NodeId wifi_tx = medium.attach(&wifi_client, {0, 0});
  const NodeId ook_tx = medium.attach(&ook_client, {1, 0});
  const NodeId rx = medium.attach(&companion, {0.5, 1});

  TxRequest beacon;
  beacon.mpdu = Bytes{1};
  beacon.airtime = usec(200);
  beacon.rate = phy::WifiRate::G6;
  medium.transmit(wifi_tx, std::move(beacon));
  EXPECT_TRUE(medium.carrier_busy(rx));
  scheduler.schedule_in(usec(50), [&] {
    TxRequest wake;
    wake.mpdu = Bytes{2};
    wake.airtime = usec(100);
    medium.transmit(ook_tx, std::move(wake));
  });
  scheduler.run_until_idle();

  EXPECT_EQ(companion.log, "C");  // the wake frame collided; the beacon is unseen
  EXPECT_EQ(medium.stats().collision_losses, 1u);
  EXPECT_EQ(medium.stats().deliveries, 0u);
  EXPECT_EQ(medium.stats().channel_losses, 0u);
}

// ---------------------------------------------------------------------------
// CSMA
// ---------------------------------------------------------------------------

class CsmaTest : public ::testing::Test {
 protected:
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
};

TEST_F(CsmaTest, BroadcastCompletesWithoutAck) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});
  Csma csma{scheduler, medium, tx, Rng{2}};

  std::optional<Csma::Result> result;
  csma.send(Bytes(100, 0xab), phy::WifiRate::G6, /*expect_ack=*/false,
            [&](const Csma::Result& r) { result = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->transmissions, 1);
  EXPECT_EQ(rx_client.frames.size(), 1u);
}

TEST_F(CsmaTest, WaitsAtLeastDifsBeforeTransmitting) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});
  Csma csma{scheduler, medium, tx, Rng{2}};

  csma.send(Bytes{1}, phy::WifiRate::G6, false, {});
  scheduler.run_until_idle();
  ASSERT_EQ(medium.stats().transmissions, 1u);
  // First possible TX start is after DIFS (28 us) of observed idle.
  EXPECT_GE(scheduler.now().us(), phy::MacTiming::kDifs.count());
}

TEST_F(CsmaTest, RetriesWithoutAckUntilLimit) {
  RecordingClient tx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  CsmaConfig cfg;
  cfg.retry_limit = 4;
  Csma csma{scheduler, medium, tx, Rng{2}, cfg};

  std::optional<Csma::Result> result;
  csma.send(Bytes(50, 1), phy::WifiRate::G6, /*expect_ack=*/true,
            [&](const Csma::Result& r) { result = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->transmissions, 5);  // initial + limit reached
  EXPECT_EQ(medium.stats().transmissions, 5u);
}

/// A peer that acknowledges every received frame immediately (an ideal
/// responder well inside the SIFS+ACK timeout).
class AckingClient : public MediumClient {
 public:
  explicit AckingClient(Csma& csma) : csma_(csma) {}
  void on_frame(const RxFrame&) override { csma_.notify_ack(); }
  [[nodiscard]] bool rx_enabled() const override { return true; }

 private:
  Csma& csma_;
};

TEST_F(CsmaTest, AckStopsRetries) {
  RecordingClient tx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  Csma csma{scheduler, medium, tx, Rng{2}};
  AckingClient peer{csma};
  medium.attach(&peer, {2, 0});

  std::optional<Csma::Result> result;
  csma.send(Bytes(50, 1), phy::WifiRate::G6, /*expect_ack=*/true,
            [&](const Csma::Result& r) { result = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->transmissions, 1);
}

TEST_F(CsmaTest, QueuedSendsGoOutInOrder) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});
  Csma csma{scheduler, medium, tx, Rng{2}};

  csma.send(Bytes{1}, phy::WifiRate::G6, false, {});
  csma.send(Bytes{2}, phy::WifiRate::G6, false, {});
  csma.send(Bytes{3}, phy::WifiRate::G6, false, {});
  scheduler.run_until_idle();

  ASSERT_EQ(rx_client.frames.size(), 3u);
  EXPECT_EQ(rx_client.frames[0].mpdu[0], 1);
  EXPECT_EQ(rx_client.frames[1].mpdu[0], 2);
  EXPECT_EQ(rx_client.frames[2].mpdu[0], 3);
}

TEST_F(CsmaTest, CompletionsFollowSendOrderAcrossRingGrowthAndWrap) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});
  Csma csma{scheduler, medium, tx, Rng{2}};

  // Every completion queues the next tag, so the queue stays three deep
  // and its slots wrap; the sixth queues five at once, so the ring grows
  // while wrapped.
  std::vector<int> sent;
  std::vector<int> completed;
  int next_tag = 0;
  std::function<void()> send_next = [&] {
    const int tag = next_tag++;
    sent.push_back(tag);
    csma.send(Bytes{static_cast<std::uint8_t>(tag)}, phy::WifiRate::G6, false,
              [&, tag](const Csma::Result& r) {
                EXPECT_TRUE(r.success);
                completed.push_back(tag);
                for (int i = 0; i < (completed.size() == 6 ? 5 : 1) && next_tag < 40; ++i) {
                  send_next();
                }
              });
  };
  for (int i = 0; i < 3; ++i) send_next();
  scheduler.run_until_idle();

  EXPECT_TRUE(csma.idle());
  ASSERT_EQ(sent.size(), 40u);
  EXPECT_EQ(completed, sent);
  ASSERT_EQ(rx_client.frames.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(rx_client.frames[i].mpdu[0], sent[i]);
  }
}

TEST_F(CsmaTest, DropQueuedKeepsTheFrameInFlightAndSilencesTheRest) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});
  Csma csma{scheduler, medium, tx, Rng{2}};

  // Each callback holds a reference to `token`, so the count shows
  // which callbacks are still alive.
  const auto token = std::make_shared<int>(0);
  std::vector<int> completed;
  for (int tag = 1; tag <= 4; ++tag) {
    csma.send(Bytes{static_cast<std::uint8_t>(tag)}, phy::WifiRate::G6, false,
              [&completed, token, tag](const Csma::Result&) { completed.push_back(tag); });
  }
  EXPECT_EQ(token.use_count(), 5);
  while (!medium.transmitting(tx)) ASSERT_TRUE(scheduler.run_one());

  csma.drop_queued();
  EXPECT_EQ(token.use_count(), 2);  // the test's and the in-flight send's
  EXPECT_FALSE(csma.idle());
  scheduler.run_until_idle();

  EXPECT_EQ(completed, (std::vector<int>{1}));
  ASSERT_EQ(rx_client.frames.size(), 1u);
  EXPECT_EQ(rx_client.frames[0].mpdu[0], 1);
  EXPECT_TRUE(csma.idle());
  EXPECT_EQ(token.use_count(), 1);

  // The freed slots take new sends.
  csma.send(Bytes{5}, phy::WifiRate::G6, false,
            [&completed](const Csma::Result&) { completed.push_back(5); });
  scheduler.run_until_idle();
  EXPECT_EQ(completed, (std::vector<int>{1, 5}));
  ASSERT_EQ(rx_client.frames.size(), 2u);
  EXPECT_EQ(rx_client.frames[1].mpdu[0], 5);
}

TEST_F(CsmaTest, CompletionQueuesSendsWhileTheRingIsFull) {
  RecordingClient tx_client, rx_client;
  const NodeId tx = medium.attach(&tx_client, {0, 0});
  medium.attach(&rx_client, {2, 0});
  Csma csma{scheduler, medium, tx, Rng{2}};

  // Four sends fill a four-slot ring. The first completion queues two:
  // one takes the slot it freed, the other finds the ring full.
  std::vector<int> completed;
  auto record = [&completed](int tag) {
    return [&completed, tag](const Csma::Result&) { completed.push_back(tag); };
  };
  csma.send(Bytes{1}, phy::WifiRate::G6, false, [&](const Csma::Result&) {
    completed.push_back(1);
    csma.send(Bytes{5}, phy::WifiRate::G6, false, record(5));
    csma.send(Bytes{6}, phy::WifiRate::G6, false, record(6));
  });
  for (int tag = 2; tag <= 4; ++tag) {
    csma.send(Bytes{static_cast<std::uint8_t>(tag)}, phy::WifiRate::G6, false, record(tag));
  }
  scheduler.run_until_idle();

  EXPECT_EQ(completed, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  ASSERT_EQ(rx_client.frames.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(rx_client.frames[i].mpdu[0], static_cast<int>(i + 1));
  }
  EXPECT_TRUE(csma.idle());
}

TEST_F(CsmaTest, DefersWhileNeighbourTransmits) {
  RecordingClient a_client, b_client, rx_client;
  const NodeId a = medium.attach(&a_client, {0, 0});
  const NodeId b = medium.attach(&b_client, {1, 0});
  medium.attach(&rx_client, {0.5, 1});

  // Long transmission from A occupies the channel.
  TxRequest busy;
  busy.mpdu = Bytes(1000, 9);
  busy.airtime = msec(2);
  medium.transmit(a, std::move(busy));

  Csma csma{scheduler, medium, b, Rng{3}};
  csma.send(Bytes{7}, phy::WifiRate::G6, false, {});
  scheduler.run_until_idle();

  // Both frames must arrive intact: CSMA deferred past A's airtime.
  EXPECT_EQ(rx_client.frames.size(), 2u);
  EXPECT_EQ(rx_client.collisions, 0);
}

}  // namespace
}  // namespace wile::sim
