// Integration tests for the Wi-LE -> infrastructure gateway: Wi-LE
// sensors on one side, a real WPA2 association + UDP uplink on the other.
#include <gtest/gtest.h>

#include "ap/access_point.hpp"
#include "wile/gateway.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

TEST(ForwardedReading, RoundTrip) {
  ForwardedReading r;
  r.device_id = 0xAABB;
  r.sequence = 17;
  r.type = MessageType::Telemetry;
  r.rssi_dbm = -55;
  r.data = {1, 2, 3};
  Bytes wire;
  r.encode_into(wire);
  const auto back = ForwardedReading::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(ForwardedReading, RejectsLengthMismatch) {
  ForwardedReading r;
  r.data = {1, 2, 3};
  Bytes raw;
  r.encode_into(raw);
  raw.pop_back();
  EXPECT_FALSE(ForwardedReading::decode(raw).has_value());
  EXPECT_FALSE(ForwardedReading::decode(Bytes{1, 2}).has_value());
}

class GatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ap::AccessPointConfig ap_cfg;
    ap_ = std::make_unique<ap::AccessPoint>(scheduler_, medium_, sim::Position{0, 0},
                                            ap_cfg, Rng{10});
    ap_->set_uplink_handler([this](const MacAddress&, const net::Ipv4Header&,
                                   const net::UdpDatagram& udp) {
      if (auto batch = ForwardedBatch::decode(udp.payload)) {
        ++server_batches_;
        for (ForwardedReading& r : batch->readings) {
          server_received_.push_back(std::move(r));
        }
      }
    });
    ap_->start();

    GatewayConfig gw_cfg;
    gw_cfg.station.mac = MacAddress::from_seed(0x6A7E);
    gateway_ = std::make_unique<Gateway>(scheduler_, medium_, sim::Position{3, 0}, gw_cfg,
                                         Rng{20});
  }

  bool start_gateway() {
    bool ready = false;
    gateway_->start([&](bool ok) { ready = ok; });
    scheduler_.run_until(scheduler_.now() + seconds(10));
    return ready;
  }

  sim::Scheduler scheduler_;
  sim::Medium medium_{scheduler_, phy::Channel{}, Rng{1}};
  std::unique_ptr<ap::AccessPoint> ap_;
  std::unique_ptr<Gateway> gateway_;
  std::vector<ForwardedReading> server_received_;
  std::size_t server_batches_ = 0;
};

TEST_F(GatewayTest, BridgesWiLeMessageToServer) {
  ASSERT_TRUE(start_gateway());

  SenderConfig sensor_cfg;
  sensor_cfg.device_id = 0x501;
  Sender sensor{scheduler_, medium_, {5, 0}, sensor_cfg, Rng{30}};
  sensor.send_now(Bytes{'1', '7', 'C'}, {});
  scheduler_.run_until(scheduler_.now() + seconds(5));

  ASSERT_EQ(server_received_.size(), 1u);
  EXPECT_EQ(server_received_[0].device_id, 0x501u);
  EXPECT_EQ(server_received_[0].data, (Bytes{'1', '7', 'C'}));
  EXPECT_LT(server_received_[0].rssi_dbm, 0);
  EXPECT_EQ(gateway_->stats().forwarded, 1u);
}

TEST_F(GatewayTest, QueuesBurstsAndDrainsInOrder) {
  ASSERT_TRUE(start_gateway());

  // Three sensors fire nearly simultaneously; the PS uplink (~155 ms per
  // send) forces queueing.
  std::vector<std::unique_ptr<Sender>> sensors;
  for (int i = 0; i < 3; ++i) {
    SenderConfig cfg;
    cfg.device_id = 0x600 + i;
    sensors.push_back(std::make_unique<Sender>(scheduler_, medium_,
                                               sim::Position{5.0 + i, 0}, cfg,
                                               Rng{static_cast<std::uint64_t>(40 + i)}));
  }
  for (int i = 0; i < 3; ++i) {
    scheduler_.schedule_in(msec(i * 5), [&, i] {
      sensors[i]->send_now(Bytes{static_cast<std::uint8_t>(i)}, {});
    });
  }
  scheduler_.run_until(scheduler_.now() + seconds(10));

  ASSERT_EQ(server_received_.size(), 3u);
  EXPECT_EQ(gateway_->stats().forwarded, 3u);
  EXPECT_EQ(gateway_->stats().dropped_queue_full, 0u);
  std::vector<std::uint32_t> ids;
  for (const auto& r : server_received_) ids.push_back(r.device_id);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0x600, 0x601, 0x602}));
}

TEST_F(GatewayTest, QueueOverflowDropsOldest) {
  GatewayConfig tiny_cfg;
  tiny_cfg.station.mac = MacAddress::from_seed(0x6B7E);
  tiny_cfg.max_queue = 2;
  Gateway tiny{scheduler_, medium_, {3, 1}, tiny_cfg, Rng{50}};
  // Never started: the uplink stays down, so everything queues.
  SenderConfig cfg;
  cfg.device_id = 0x700;
  Sender sensor{scheduler_, medium_, {5, 1}, cfg, Rng{60}};
  for (int i = 0; i < 4; ++i) {
    sensor.send_now(Bytes{static_cast<std::uint8_t>(i)}, {});
    scheduler_.run_until(scheduler_.now() + seconds(1));
  }
  EXPECT_EQ(tiny.stats().received, 4u);
  EXPECT_EQ(tiny.stats().dropped_queue_full, 2u);
  EXPECT_EQ(tiny.stats().forwarded, 0u);
}

TEST_F(GatewayTest, EncryptedSensorsNeedMatchingMonitorKey) {
  GatewayConfig keyed_cfg;
  keyed_cfg.station.mac = MacAddress::from_seed(0x6C7E);
  keyed_cfg.monitor.key = Bytes(16, 0x77);
  Gateway keyed{scheduler_, medium_, {3, 2}, keyed_cfg, Rng{70}};
  bool ready = false;
  keyed.start([&](bool ok) { ready = ok; });
  scheduler_.run_until(scheduler_.now() + seconds(10));
  ASSERT_TRUE(ready);

  SenderConfig good;
  good.device_id = 1;
  good.key = Bytes(16, 0x77);
  SenderConfig bad;
  bad.device_id = 2;
  bad.key = Bytes(16, 0x78);
  Sender s_good{scheduler_, medium_, {5, 2}, good, Rng{71}};
  Sender s_bad{scheduler_, medium_, {6, 2}, bad, Rng{72}};
  s_good.send_now(Bytes{1}, {});
  scheduler_.run_until(scheduler_.now() + seconds(2));
  s_bad.send_now(Bytes{2}, {});
  scheduler_.run_until(scheduler_.now() + seconds(5));

  EXPECT_EQ(keyed.stats().received, 1u);   // only the matching key decodes
  EXPECT_EQ(keyed.stats().forwarded, 1u);
  ASSERT_EQ(server_received_.size(), 1u);
  EXPECT_EQ(server_received_[0].device_id, 1u);
}

TEST_F(GatewayTest, UplinkStallOverflowsQueueNewestFirst) {
  GatewayConfig cfg;
  cfg.station.mac = MacAddress::from_seed(0x6D7E);
  cfg.max_queue = 2;
  Gateway gw{scheduler_, medium_, {3, 3}, cfg, Rng{80}};
  bool ready = false;
  gw.start([&](bool ok) { ready = ok; });
  scheduler_.run_until(scheduler_.now() + seconds(10));
  ASSERT_TRUE(ready);

  ap_->stop();  // outage: the uplink stalls and readings pile up

  SenderConfig scfg;
  scfg.device_id = 0x800;
  Sender sensor{scheduler_, medium_, {5, 3}, scfg, Rng{81}};
  for (int i = 0; i < 6; ++i) {
    sensor.send_now(Bytes{static_cast<std::uint8_t>(i)}, {});
    scheduler_.run_until(scheduler_.now() + seconds(2));
  }

  EXPECT_EQ(gw.stats().received, 6u);
  EXPECT_EQ(gw.stats().forwarded, 0u);
  EXPECT_GE(gw.stats().uplink_losses, 1u);   // the stalled send killed the link
  EXPECT_GE(gw.stats().dropped_queue_full, 3u);  // cap 2, newest retained
}

TEST_F(GatewayTest, OutageRetriesKeepOriginalOrderAcrossBatches) {
  // Small batches so the post-recovery drain spans several send cycles:
  // retried readings must come back out in their original order even
  // across batch boundaries (push_front requeue, front-first refill).
  GatewayConfig cfg;
  cfg.station.mac = MacAddress::from_seed(0x6E7E);
  cfg.batch_max = 2;
  cfg.forward_retry_limit = 50;
  Gateway gw{scheduler_, medium_, {3, 5}, cfg, Rng{85}};
  bool ready = false;
  gw.start([&](bool ok) { ready = ok; });
  scheduler_.run_until(scheduler_.now() + seconds(10));
  ASSERT_TRUE(ready);

  ap_->stop();  // outage begins; the first send will die mid-pump

  SenderConfig scfg;
  scfg.device_id = 0xA00;
  Sender sensor{scheduler_, medium_, {5, 5}, scfg, Rng{86}};
  for (int i = 0; i < 5; ++i) {
    sensor.send_now(Bytes{static_cast<std::uint8_t>(i)}, {});
    scheduler_.run_until(scheduler_.now() + seconds(2));
  }

  ap_->start();  // recovery: everything drains in order, two per batch
  scheduler_.run_until(scheduler_.now() + seconds(60));

  EXPECT_GE(gw.stats().retries, 1u);
  EXPECT_EQ(gw.stats().dropped_total, 0u);
  EXPECT_EQ(gw.stats().forwarded, 5u);
  ASSERT_EQ(server_received_.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(server_received_[static_cast<std::size_t>(i)].data,
              Bytes{static_cast<std::uint8_t>(i)})
        << "reading " << i << " out of order";
  }
  // batch_max 2 and 5 readings: at least one batch carried more than one.
  EXPECT_LT(server_batches_, 5u);
}

TEST_F(GatewayTest, MidOutageEvictionKeepsNewestReadings) {
  // The queue fills during the outage; newest-first retention must hold
  // for requeued in-flight readings too, and the survivors must drain in
  // order after recovery.
  GatewayConfig cfg;
  cfg.station.mac = MacAddress::from_seed(0x6F7E);
  cfg.max_queue = 2;
  cfg.forward_retry_limit = 50;
  Gateway gw{scheduler_, medium_, {3, 6}, cfg, Rng{87}};
  bool ready = false;
  gw.start([&](bool ok) { ready = ok; });
  scheduler_.run_until(scheduler_.now() + seconds(10));
  ASSERT_TRUE(ready);

  ap_->stop();

  SenderConfig scfg;
  scfg.device_id = 0xB00;
  Sender sensor{scheduler_, medium_, {5, 6}, scfg, Rng{88}};
  for (int i = 0; i < 6; ++i) {
    sensor.send_now(Bytes{static_cast<std::uint8_t>(i)}, {});
    scheduler_.run_until(scheduler_.now() + seconds(2));
  }

  EXPECT_EQ(gw.stats().received, 6u);
  EXPECT_EQ(gw.stats().forwarded, 0u);
  EXPECT_GE(gw.stats().dropped_queue_full, 4u);
  EXPECT_EQ(gw.stats().dropped_total,
            gw.stats().dropped_queue_full + gw.stats().dropped_retry_budget);

  ap_->start();
  scheduler_.run_until(scheduler_.now() + seconds(60));

  // Only the two newest readings survived the cap-2 queue.
  EXPECT_EQ(gw.stats().forwarded, 2u);
  ASSERT_EQ(server_received_.size(), 2u);
  EXPECT_EQ(server_received_[0].data, Bytes{4});
  EXPECT_EQ(server_received_[1].data, Bytes{5});
}

TEST_F(GatewayTest, RecoversAndRetriesAfterMidPumpLinkLoss) {
  ASSERT_TRUE(start_gateway());
  ap_->stop();  // crash: the station still believes it is associated

  SenderConfig scfg;
  scfg.device_id = 0x900;
  Sender sensor{scheduler_, medium_, {5, 4}, scfg, Rng{90}};
  sensor.send_now(Bytes{0x42}, {});
  scheduler_.run_until(scheduler_.now() + seconds(3));

  // The PS send died mid-pump: failure counted, reading requeued, link
  // declared lost. Nothing reached the server.
  EXPECT_GE(gateway_->stats().forward_failures, 1u);
  EXPECT_GE(gateway_->stats().uplink_losses, 1u);
  EXPECT_TRUE(server_received_.empty());

  ap_->start();  // AP reboots; the gateway must heal itself and drain
  scheduler_.run_until(scheduler_.now() + seconds(30));

  EXPECT_GE(gateway_->stats().reassociations, 1u);
  EXPECT_GE(gateway_->stats().retries, 1u);
  EXPECT_EQ(gateway_->stats().forwarded, 1u);
  ASSERT_EQ(server_received_.size(), 1u);
  EXPECT_EQ(server_received_[0].device_id, 0x900u);
  EXPECT_EQ(server_received_[0].data, Bytes{0x42});
}

}  // namespace
}  // namespace wile::core
