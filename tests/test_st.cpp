// Tests for the subtransport layer (paper §3.2, §4.2, §4.3): control
// channel establishment with authentication (and its trusted-network
// elision), multiplexing + piggybacking, caching, fragmentation and
// reassembly, security elision, fast acknowledgements, and failure
// notification.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "st/st.h"
#include "test_helpers.h"
#include "util/serialize.h"

namespace dash::st {
namespace {

using dash::testing::StWorld;

rms::Request st_request(std::uint64_t capacity = 32 * 1024,
                        std::uint64_t mms = 8 * 1024) {
  rms::Params desired;
  desired.capacity = capacity;
  desired.max_message_size = mms;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(20);
  desired.delay.b_per_byte = usec(5);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(5);
  acceptable.delay.b_per_byte = usec(500);
  acceptable.bit_error_rate = 1.0;
  acceptable.capacity = 1;
  acceptable.max_message_size = 1;
  return rms::Request{desired, acceptable};
}

rms::Message text(std::string_view s) {
  rms::Message m;
  m.data = to_bytes(s);
  return m;
}

// ---------------------------------------------------------- establishment

TEST(St, CreateAndDeliver) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);

  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  ASSERT_TRUE(rms.value()->send(text("through the subtransport")).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  auto m = port.poll();
  EXPECT_EQ(dash::to_string(m->data), "through the subtransport");
  EXPECT_EQ(m->target, (rms::Label{2, 50}));
  EXPECT_EQ(m->source.host, 1u);
}

TEST(St, EstablishmentRunsAuthHandshake) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  ASSERT_NE(st_rms, nullptr);
  EXPECT_FALSE(st_rms->established());
  world.sim.run();
  EXPECT_TRUE(st_rms->established());
  EXPECT_EQ(world.st(1).stats().auth_handshakes, 1u);
  EXPECT_EQ(world.st(1).stats().auth_elided, 0u);
  EXPECT_GT(world.st(1).stats().control_messages, 0u);
  EXPECT_GT(world.st(2).stats().control_messages, 0u);  // replies flowed back
}

TEST(St, ControlRepliesCancelRetryTimers) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  ASSERT_NE(st_rms, nullptr);
  while (!st_rms->established() && world.sim.step()) {
  }
  ASSERT_TRUE(st_rms->established());
  // The auth and create requests each armed a retransmit timer; their
  // replies cancelled them, so no dead timer lingers in the pending set
  // waiting to fire as a no-op.
  EXPECT_GE(world.sim.stats().timers_cancelled, 2u);
  EXPECT_EQ(world.st(1).stats().control_retries, 0u);
  EXPECT_LT(world.sim.pending(), 8u);
}

TEST(St, SecondStreamReusesAuthentication) {
  StWorld world(2);
  rms::Port p1, p2;
  world.host(2).ports.bind(50, &p1);
  world.host(2).ports.bind(51, &p2);

  auto a = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(a.ok());
  world.sim.run();
  auto b = world.st(1).create(st_request(), {2, 51});
  ASSERT_TRUE(b.ok());
  b.value()->send(text("second"));
  world.sim.run();

  EXPECT_EQ(world.st(1).stats().auth_handshakes, 1u);  // once per peer
  EXPECT_EQ(p2.delivered(), 1u);
}

TEST(St, TrustedNetworkElidesAuthentication) {
  auto traits = net::ethernet_traits();
  traits.trusted = true;
  StWorld world(2, traits);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  rms.value()->send(text("trusted"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_EQ(world.st(1).stats().auth_handshakes, 0u);
  EXPECT_EQ(world.st(1).stats().auth_elided, 1u);
}

TEST(St, MessagesQueuedUntilEstablished) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  // Send a burst before any control exchange could complete.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rms.value()->send(text("m" + std::to_string(i))).ok());
  }
  world.sim.run();
  ASSERT_EQ(port.delivered(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dash::to_string(port.poll()->data), "m" + std::to_string(i));
  }
}

TEST(St, NoRouteRejectedSynchronously) {
  StWorld world(2);
  auto rms = world.st(1).create(st_request(), {99, 50});
  ASSERT_FALSE(rms.ok());
  EXPECT_EQ(rms.error().code, Errc::kNoRoute);
}

TEST(St, ImpossibleDelayRejected) {
  StWorld world(2);
  auto req = st_request();
  req.acceptable.delay.a = usec(1);  // smaller than the ST processing budget
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_FALSE(rms.ok());
  EXPECT_EQ(rms.error().code, Errc::kIncompatibleParams);
}

// --------------------------------------------------------------- ordering

TEST(St, InOrderDeliveryUnderLoad) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());

  std::vector<int> received;
  port.set_handler([&](rms::Message m) {
    received.push_back(std::stoi(dash::to_string(m.data)));
  });
  for (int i = 0; i < 100; ++i) {
    world.sim.at(usec(100 * i), [&rms, i] {
      ASSERT_TRUE(rms.value()->send(text(std::to_string(i))).ok());
    });
  }
  world.sim.run();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

// ------------------------------------------------------------ piggybacking

TEST(St, PiggybackingCombinesSmallMessages) {
  st::StConfig config;
  config.piggyback_window = msec(5);
  StWorld world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(32 * 1024, 64), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();  // establish first

  // A burst of small messages inside one piggyback window.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rms.value()->send(text("small-" + std::to_string(i))).ok());
  }
  world.sim.run();

  EXPECT_EQ(port.delivered(), 10u);
  EXPECT_GT(world.st(1).stats().piggybacked, 0u);
  EXPECT_LT(world.st(1).stats().network_messages, 10u);
}

TEST(St, PiggybackingDisabledSendsOnePacketEach) {
  st::StConfig config;
  config.enable_piggybacking = false;
  StWorld world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(32 * 1024, 64), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rms.value()->send(text("small-" + std::to_string(i))).ok());
  }
  world.sim.run();

  EXPECT_EQ(port.delivered(), 10u);
  EXPECT_EQ(world.st(1).stats().piggybacked, 0u);
  EXPECT_EQ(world.st(1).stats().network_messages, 10u);
}

TEST(St, PiggybackingAcrossStreams) {
  st::StConfig config;
  config.piggyback_window = msec(5);
  StWorld world(2, net::ethernet_traits(), 42, config);
  rms::Port p1, p2;
  world.host(2).ports.bind(50, &p1);
  world.host(2).ports.bind(51, &p2);
  auto a = world.st(1).create(st_request(8 * 1024, 64), {2, 50});
  auto b = world.st(1).create(st_request(8 * 1024, 64), {2, 51});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  world.sim.run();
  // Both streams multiplexed on one network RMS; alternating messages
  // should share packets.
  EXPECT_EQ(world.st(1).stats().mux_joins, 1u);
  const auto packets_before = world.st(1).stats().network_messages;
  for (int i = 0; i < 5; ++i) {
    a.value()->send(text("a" + std::to_string(i)));
    b.value()->send(text("b" + std::to_string(i)));
  }
  world.sim.run();
  EXPECT_EQ(p1.delivered(), 5u);
  EXPECT_EQ(p2.delivered(), 5u);
  EXPECT_LT(world.st(1).stats().network_messages - packets_before, 10u);
}

TEST(St, UrgentMessageNotDelayedPastItsDeadline) {
  // A queued message must leave by its transmission deadline even if the
  // window would allow more piggybacking.
  st::StConfig config;
  config.piggyback_window = msec(10);
  StWorld world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto req = st_request(32 * 1024, 64);
  req.desired.delay.a = msec(15);
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  const Time t0 = world.sim.now();
  rms.value()->send(text("lone message"));
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);
  // Delivered within the ST bound even though nothing piggybacked onto it.
  EXPECT_LE(port.last_delivery() - t0,
            rms.value()->params().delay.bound_for(12));
}

// ----------------------------------------------------------- fragmentation

TEST(St, LargeMessageFragmentsAndReassembles) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(64 * 1024, 16 * 1024), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  const Bytes payload = patterned_bytes(10'000, 7);
  rms::Message m;
  m.data = payload;
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  EXPECT_EQ(port.poll()->data, payload);  // byte-identical after reassembly
  EXPECT_GT(world.st(1).stats().fragments_sent, 1u);
  EXPECT_EQ(world.st(2).stats().reassembled, 1u);
}

TEST(St, FragmentedAndSmallMessagesInterleave) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(64 * 1024, 16 * 1024), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  std::vector<std::size_t> sizes;
  port.set_handler([&](rms::Message m) { sizes.push_back(m.size()); });
  rms.value()->send(text("tiny1"));
  rms::Message big;
  big.data = patterned_bytes(5000, 9);
  rms.value()->send(std::move(big));
  rms.value()->send(text("tiny2"));
  world.sim.run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(sizes[1], 5000u);
  EXPECT_EQ(sizes[2], 5u);  // order preserved across fragmentation
}

TEST(St, LostFragmentDiscardsPartialMessage) {
  // On a lossy medium with per-fragment checksums, some fragments vanish;
  // the ST must discard partial messages and deliver only complete ones.
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 2e-5;  // ~20%+ per full frame
  StWorld world(2, traits, /*seed=*/11);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto req = st_request(64 * 1024, 16 * 1024);
  req.desired.bit_error_rate = 1e-12;  // ask for integrity -> checksummed
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  const int sent = 40;
  std::set<std::size_t> delivered_sizes;
  port.set_handler([&](rms::Message m) {
    delivered_sizes.insert(m.size());
    EXPECT_EQ(m.size(), 6000u);  // never a partial message
  });
  for (int i = 0; i < sent; ++i) {
    world.sim.at(msec(20 * i), [&rms, i] {
      rms::Message m;
      m.data = patterned_bytes(6000, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();

  EXPECT_LT(port.delivered(), static_cast<std::uint64_t>(sent));  // losses happened
  EXPECT_GT(port.delivered(), 0u);
  EXPECT_GT(world.st(2).stats().partials_discarded, 0u);
}

// ----------------------------------------------------------------- caching

TEST(St, ClosedStreamLeavesChannelCached) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();
  EXPECT_EQ(world.st(1).active_channels(), 1u);
  rms.value()->close();
  EXPECT_EQ(world.st(1).active_channels(), 0u);
  EXPECT_EQ(world.st(1).cached_channels(), 1u);
}

TEST(St, CacheHitAvoidsNetworkRmsCreation) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto first = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(first.ok());
  world.sim.run();
  first.value()->close();

  auto second = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(second.ok());
  second.value()->send(text("warm"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_EQ(world.st(1).stats().cache_hits, 1u);
  EXPECT_EQ(world.st(1).stats().net_rms_created, 1u);  // one data channel, reused
}

TEST(St, CachedChannelExpiresAfterIdleTimeout) {
  st::StConfig config;
  config.cache_idle_timeout = msec(100);
  StWorld world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();
  rms.value()->close();
  EXPECT_EQ(world.st(1).cached_channels(), 1u);
  world.sim.run_for(msec(200));
  EXPECT_EQ(world.st(1).cached_channels(), 0u);

  // Re-creating now builds a fresh data network RMS.
  auto again = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(world.st(1).stats().cache_hits, 0u);
  EXPECT_EQ(world.st(1).stats().net_rms_created, 2u);  // fresh data channel
}

TEST(St, CachingDisabledClosesChannelImmediately) {
  st::StConfig config;
  config.enable_caching = false;
  StWorld world(2, net::ethernet_traits(), 42, config);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();
  rms.value()->close();
  EXPECT_EQ(world.st(1).cached_channels(), 0u);
  EXPECT_EQ(world.st(1).active_channels(), 0u);
}

// ---------------------------------------------------------------- security

TEST(St, PrivacyEncryptsOnUntrustedNetwork) {
  StWorld world(2);
  net::Eavesdropper eve(*world.network);
  rms::Port port;
  world.host(2).ports.bind(50, &port);

  auto req = st_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_TRUE(st_rms->encrypts());
  EXPECT_TRUE(rms.value()->params().quality.privacy);

  rms.value()->send(text("the secret launch codes"));
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  EXPECT_EQ(dash::to_string(port.poll()->data), "the secret launch codes");
  EXPECT_FALSE(eve.saw_plaintext(to_bytes("secret launch")));
  EXPECT_GT(world.st(1).stats().bytes_encrypted, 0u);
}

TEST(St, PrivacyElidedOnTrustedNetwork) {
  auto traits = net::ethernet_traits();
  traits.trusted = true;
  StWorld world(2, traits);
  net::Eavesdropper eve(*world.network);
  rms::Port port;
  world.host(2).ports.bind(50, &port);

  auto req = st_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_FALSE(st_rms->encrypts());  // §2.5 case 3: no encryption needed
  EXPECT_TRUE(rms.value()->params().quality.privacy);

  rms.value()->send(text("visible on a trusted wire"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_EQ(world.st(1).stats().bytes_encrypted, 0u);
  // The frame is on the wire in the clear — fine, the network is trusted.
  EXPECT_TRUE(eve.saw_plaintext(to_bytes("trusted wire")));
}

TEST(St, PrivacyElidedWithLinkEncryptionHardware) {
  auto traits = net::ethernet_traits();
  traits.link_encryption = true;
  StWorld world(2, traits);
  auto req = st_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_FALSE(st_rms->encrypts());  // §2.5 case 2: hardware does it
}

TEST(St, AuthenticationMacsOnUntrustedNetwork) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto req = st_request();
  req.desired.quality.authenticated = true;
  req.acceptable.quality.authenticated = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_TRUE(st_rms->macs());
  rms.value()->send(text("authentic"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_GT(world.st(1).stats().bytes_macced, 0u);
  EXPECT_EQ(world.st(2).stats().auth_drops, 0u);
}

TEST(St, CorruptedMacMessageDropped) {
  // Authenticated stream on a lossy medium that the client *claims* to
  // tolerate errors on (so no checksum anywhere): corruption must be
  // caught by the MAC instead of being delivered.
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 3e-5;
  StWorld world(2, traits, /*seed=*/13);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto req = st_request(32 * 1024, 1000);
  req.desired.quality.authenticated = true;
  req.acceptable.quality.authenticated = true;
  req.desired.bit_error_rate = 1.0;  // elide checksumming
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  const int sent = 100;
  for (int i = 0; i < sent; ++i) {
    world.sim.at(msec(5 * i), [&rms, i] {
      rms::Message m;
      m.data = patterned_bytes(900, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();
  EXPECT_GT(world.st(2).stats().auth_drops, 0u);
  EXPECT_LT(port.delivered(), static_cast<std::uint64_t>(sent));
}

TEST(St, ThirdPartyCannotInjectIntoForeignStream) {
  StWorld world(3);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  rms.value()->send(text("legit"));
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);

  // Host 3 creates its own stream claiming the same ST RMS id and port;
  // the demux key includes the source host, so nothing crosses over.
  auto forged = world.st(3).create(st_request(), {2, 50});
  ASSERT_TRUE(forged.ok());
  forged.value()->send(text("forged"));
  world.sim.run();
  // Both delivered, but with distinct, truthful source labels.
  ASSERT_EQ(port.delivered(), 2u);
  auto m1 = port.poll();
  auto m2 = port.poll();
  EXPECT_EQ(m1->source.host, 1u);
  EXPECT_EQ(m2->source.host, 3u);
}

// --------------------------------------------------------------- fast acks

TEST(St, FastAcknowledgement) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());

  std::vector<std::uint64_t> acks;
  st_rms->on_fast_ack([&](std::uint64_t id) { acks.push_back(id); });
  ASSERT_TRUE(st_rms->send_acked(text("ack me"), 42).ok());
  world.sim.run();

  EXPECT_EQ(port.delivered(), 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], 42u);
  EXPECT_EQ(world.st(2).stats().fast_acks_sent, 1u);
  EXPECT_EQ(world.st(1).stats().fast_acks_delivered, 1u);
}

TEST(St, FastAckIsFasterThanClientTurnaround) {
  // The receiving ST acks before the receiving *client* even sees the
  // message — measure that the ack arrives within roughly one RTT.
  StWorld world(2);
  rms::Port port;  // no handler: the client never wakes up
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  Time acked_at = -1;
  st_rms->on_fast_ack([&](std::uint64_t) { acked_at = world.sim.now(); });
  const Time t0 = world.sim.now();
  st_rms->send_acked(text("ping"), 1);
  world.sim.run();
  ASSERT_GE(acked_at, 0);
  EXPECT_LT(acked_at - t0, msec(20));
  EXPECT_GT(port.queued(), 0u);  // client still hasn't read it
}

// A reliable stream under a StreamObserver: every fast ack that finds its
// send tracked reports one RTT, and every emitted message is retained
// until its fast ack arrives (the failover handoff).
class RttRecorder final : public StreamObserver {
 public:
  RttRecorder() { rtts.reserve(512); }  // its own growth is not the ST's
  void on_data_ack(HostId, netrms::NetRmsFabric*, Time rtt) override {
    rtts.push_back(rtt);
  }
  void on_stream_rebound(StRms& s, bool) override { retained_at_rebound = s.handoff_depth(); }
  std::vector<Time> rtts;
  std::size_t retained_at_rebound = 0;  ///< the replay has just re-emitted these
};

struct AckedStreamRun {
  std::vector<Time> rtts;
  std::uint64_t steady_allocs = 0;  ///< over 99 sends after a warm-up
  std::size_t retained_at_rebound = 0;
  std::uint64_t replayed = 0;
  std::size_t retained_at_end = 0;
  std::vector<int> delivered;
};

/// 200 fast-acked sends of varying size on segment A (most of the last
/// 100 are the measured steady state). With `observed`, 60 more follow,
/// half of them without a client ack and one reusing an ack id, and the
/// stream is rebound to segment B while messages are in flight.
AckedStreamRun run_acked_stream(bool observed) {
  sim::Simulator sim;
  net::EthernetNetwork net_a(sim, net::ethernet_traits("a"), 1);
  net::EthernetNetwork net_b(sim, net::ethernet_traits("b"), 2);
  netrms::NetRmsFabric fab_a(sim, net_a);
  netrms::NetRmsFabric fab_b(sim, net_b);
  dash::testing::SimHost h1(1, sim), h2(2, sim);
  for (auto* fab : {&fab_a, &fab_b}) {
    fab->register_host(1, h1.cpu, h1.ports);
    fab->register_host(2, h2.cpu, h2.ports);
  }
  SubtransportLayer st1(sim, 1, h1.cpu, h1.ports);
  SubtransportLayer st2(sim, 2, h2.cpu, h2.ports);
  for (auto* st : {&st1, &st2}) {
    st->add_network(fab_a);
    st->add_network(fab_b);
  }
  RttRecorder recorder;
  if (observed) st1.set_stream_observer(&recorder);

  AckedStreamRun out;
  rms::Port port;
  h2.ports.bind(50, &port);
  port.set_handler([&](rms::Message m) {
    const std::string s = to_string(m.data);
    out.delivered.push_back(std::stoi(s.substr(0, s.find(':'))));
  });
  rms::Request request = st_request();
  request.desired.quality.reliable = true;
  request.acceptable.quality.reliable = true;
  auto created = st1.create_on(fab_a, request, {2, 50});
  EXPECT_TRUE(created.ok()) << created.error().message;
  if (!created.ok()) return out;
  auto* stream = dynamic_cast<StRms*>(created.value().get());
  sim.run_until(msec(50));

  auto send = [stream](int i, std::uint64_t ack_id, bool acked) {
    rms::Message m = text(std::to_string(i) + ":" + std::string(i * 37 % 700, 'x'));
    (void)(acked ? stream->send_acked(std::move(m), ack_id) : stream->send(std::move(m)));
  };
  const int total = observed ? 260 : 200;
  for (int i = 0; i < total; ++i) {
    const bool acked = i < 200 || i % 2 == 0;
    const std::uint64_t ack_id = i == 212 ? 210 : static_cast<std::uint64_t>(i);
    sim.at(msec(50) + usec(500) * i, [&send, i, ack_id, acked] { send(i, ack_id, acked); });
  }
  sim.run_until(msec(100));
  {
    alloc_count::Scope scope;
    sim.run_until(msec(149));  // sends 100..198; 200 on comes at 150 ms
    out.steady_allocs = scope.allocations();
  }
  if (observed) {
    sim.at(msec(165) + usec(250),
           [&] { EXPECT_TRUE(st1.rebind_stream(stream->id(), fab_b).ok()); });
  }
  sim.run_until(sec(2));
  out.rtts = std::move(recorder.rtts);
  out.retained_at_rebound = recorder.retained_at_rebound;
  out.replayed = st1.stats().handoff_replayed;
  out.retained_at_end = stream->handoff_depth();
  return out;
}

TEST(St, FastAckBookkeepingPinnedAcrossFailover) {
  REQUIRE_ALLOC_COUNT();
  const AckedStreamRun plain = run_acked_stream(false);
  const AckedStreamRun observed = run_acked_stream(true);

  // Tracking send times and retaining messages for replay allocates
  // nothing in steady state: both runs put the same packets on the wire.
  EXPECT_EQ(observed.steady_allocs, plain.steady_allocs);

  // Replay re-emits every message still unacknowledged when the new
  // channel is established, and the receiver's sequence check turns that
  // into exactly-once delivery.
  EXPECT_GT(observed.retained_at_rebound, 0u);
  EXPECT_EQ(observed.replayed, observed.retained_at_rebound);
  EXPECT_EQ(observed.retained_at_end, 0u);
  ASSERT_EQ(observed.delivered.size(), 260u);
  for (int i = 0; i < 260; ++i) ASSERT_EQ(observed.delivered[i], i) << "at " << i;

  // The RTT samples the observer sees. The constants were recorded with
  // ST's earlier per-ack-id bookkeeping, which the send records must
  // reproduce exactly.
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the samples
  for (const Time rtt : observed.rtts) {
    hash = (hash ^ static_cast<std::uint64_t>(rtt)) * 0x100000001b3ull;
  }
  EXPECT_EQ(observed.rtts.size(), 251u);
  EXPECT_EQ(hash, 0x5a829f9bdef47d2full);
}

// ----------------------------------------------------------------- failure

TEST(St, NetworkFailureNotifiesStream) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  bool failed = false;
  rms.value()->on_failure([&](const Error& e) {
    failed = true;
    EXPECT_EQ(e.code, Errc::kRmsFailed);
  });
  world.network->set_down(true);
  EXPECT_TRUE(failed);
  EXPECT_FALSE(rms.value()->send(text("after failure")).ok());
}

// --------------------------------------------------------------- delay bound

TEST(St, DeliveredWithinStBound) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();  // establishment excluded from per-message delay

  const auto& params = rms.value()->params();
  std::vector<Time> delays;
  port.set_handler([&](rms::Message m) {
    delays.push_back(world.sim.now() - m.sent_at);
  });
  for (int i = 0; i < 20; ++i) {
    world.sim.after(msec(5 * i), [&rms] {
      rms::Message m;
      m.data = patterned_bytes(200);
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();
  ASSERT_EQ(delays.size(), 20u);
  for (Time d : delays) {
    EXPECT_LE(d, params.delay.bound_for(200));
    EXPECT_GT(d, 0);
  }
}

// ----------------------------------------------------------- multi-network

TEST(St, PicksNetworkWherePeerIsAttached) {
  // Two segments: host 1 on both, host 2 only on the second. The ST must
  // reach host 2 via the second fabric (§3.1: multiple network types).
  sim::Simulator sim;
  net::EthernetNetwork lan_a(sim, net::ethernet_traits("lan-a"), 1);
  net::EthernetNetwork lan_b(sim, net::ethernet_traits("lan-b"), 2);
  netrms::NetRmsFabric fab_a(sim, lan_a);
  netrms::NetRmsFabric fab_b(sim, lan_b);

  dash::testing::SimHost h1(1, sim), h2(2, sim), h3(3, sim);
  fab_a.register_host(1, h1.cpu, h1.ports);
  fab_a.register_host(3, h3.cpu, h3.ports);
  fab_b.register_host(1, h1.cpu, h1.ports);
  fab_b.register_host(2, h2.cpu, h2.ports);

  st::SubtransportLayer st1(sim, 1, h1.cpu, h1.ports);
  st::SubtransportLayer st2(sim, 2, h2.cpu, h2.ports);
  st1.add_network(fab_a);
  st1.add_network(fab_b);
  st2.add_network(fab_b);

  rms::Port port;
  h2.ports.bind(50, &port);
  auto rms = st1.create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  rms.value()->send(text("via lan-b"));
  sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_GT(lan_b.stats().delivered, 0u);
  EXPECT_EQ(lan_a.stats().delivered, 0u);
}

// A fragmented message is half reassembled at the receiver when a request
// for the same stream arrives: a re-establishment (kCreateRequest) discards
// the partial, a make-before-break staging (kPrepareRequest) lets it finish.
// Data rides a slow segment (1 Mb/s: 12 ms per full frame) pinned with
// create_on; control rides a fast trusted one, so the request overtakes
// the fragments still on the wire.
struct HalfReassembled {
  std::uint64_t delivered = 0;
  std::uint64_t partials_discarded = 0;
  bool prepared_before_delivery = false;
  bool payload_intact = false;
};

HalfReassembled request_during_reassembly(bool prepare) {
  sim::Simulator sim;
  auto slow_traits = net::ethernet_traits("slow");
  slow_traits.bits_per_second = 1'000'000;
  auto fast_traits = net::ethernet_traits("fast");
  fast_traits.trusted = true;
  net::EthernetNetwork slow(sim, slow_traits, 1);
  net::EthernetNetwork fast(sim, fast_traits, 2);
  netrms::NetRmsFabric fab_slow(sim, slow);
  netrms::NetRmsFabric fab_fast(sim, fast);
  dash::testing::SimHost h1(1, sim), h2(2, sim);
  for (auto* fab : {&fab_slow, &fab_fast}) {
    fab->register_host(1, h1.cpu, h1.ports);
    fab->register_host(2, h2.cpu, h2.ports);
  }
  SubtransportLayer st1(sim, 1, h1.cpu, h1.ports);
  SubtransportLayer st2(sim, 2, h2.cpu, h2.ports);
  for (auto* st : {&st1, &st2}) {
    st->add_network(fab_slow);
    st->add_network(fab_fast);
  }

  HalfReassembled out;
  const Bytes payload = patterned_bytes(6000, 3);
  rms::Port port;
  h2.ports.bind(50, &port);
  auto rms = st1.create_on(fab_slow, st_request(64 * 1024, 16 * 1024), {2, 50});
  EXPECT_TRUE(rms.ok()) << rms.error().message;
  if (!rms.ok()) return out;
  const std::uint64_t id = dynamic_cast<StRms*>(rms.value().get())->id();
  port.set_handler([&](rms::Message m) {
    ++out.delivered;
    out.payload_intact = m.data == payload;
    out.prepared_before_delivery = st1.rebind_prepared(id);
  });
  sim.run_until(msec(50));  // established over the fast segment

  rms::Message big;
  big.data = payload;
  EXPECT_TRUE(rms.value()->send(std::move(big)).ok());
  // Five fragments take ~60 ms on the slow segment; by 75 ms two of them
  // have landed.
  sim.run_until(msec(75));
  EXPECT_EQ(out.delivered, 0u);
  EXPECT_EQ(st2.stats().partials_discarded, 0u);
  const Status s = prepare ? st1.prepare_rebind(id, fab_fast)
                           : st1.rebind_stream(id, fab_fast);
  EXPECT_TRUE(s.ok()) << s.error().message;
  sim.run_until(sec(1));
  out.partials_discarded = st2.stats().partials_discarded;
  return out;
}

TEST(St, ReestablishmentDiscardsPartialButStagingLetsItFinish) {
  const HalfReassembled rebound = request_during_reassembly(/*prepare=*/false);
  EXPECT_EQ(rebound.partials_discarded, 1u);
  EXPECT_EQ(rebound.delivered, 0u);

  const HalfReassembled staged = request_during_reassembly(/*prepare=*/true);
  EXPECT_EQ(staged.partials_discarded, 0u);
  EXPECT_EQ(staged.delivered, 1u);
  EXPECT_TRUE(staged.payload_intact);
  EXPECT_TRUE(staged.prepared_before_delivery)
      << "the staging was not confirmed while the message was in reassembly";
}

}  // namespace
}  // namespace dash::st

// Additional coverage appended: optimal-network selection across multiple
// attached networks, and the §4.2 bound-type multiplexing rule.
namespace dash::st {
namespace {

TEST(St, PrefersNetworkThatProvidesSecurityNatively) {
  // Host 1 and host 2 share two segments: an open one and a trusted one.
  // A privacy-requiring stream should ride the trusted network, where the
  // ST can elide encryption entirely (§2.5: "the optimal mechanism").
  sim::Simulator sim;
  net::EthernetNetwork open_lan(sim, net::ethernet_traits("open"), 1);
  auto trusted_traits = net::ethernet_traits("trusted");
  trusted_traits.trusted = true;
  net::EthernetNetwork trusted_lan(sim, trusted_traits, 2);
  netrms::NetRmsFabric open_fabric(sim, open_lan);
  netrms::NetRmsFabric trusted_fabric(sim, trusted_lan);

  dash::testing::SimHost h1(1, sim), h2(2, sim);
  open_fabric.register_host(1, h1.cpu, h1.ports);
  open_fabric.register_host(2, h2.cpu, h2.ports);
  trusted_fabric.register_host(1, h1.cpu, h1.ports);
  trusted_fabric.register_host(2, h2.cpu, h2.ports);

  st::SubtransportLayer st1(sim, 1, h1.cpu, h1.ports);
  st::SubtransportLayer st2(sim, 2, h2.cpu, h2.ports);
  // The open network is listed FIRST: only the preference logic can pick
  // the trusted one.
  st1.add_network(open_fabric);
  st1.add_network(trusted_fabric);
  st2.add_network(open_fabric);
  st2.add_network(trusted_fabric);

  rms::Port inbox;
  h2.ports.bind(50, &inbox);
  auto request = st_request();
  request.desired.quality.privacy = true;
  request.acceptable.quality.privacy = true;
  auto stream = st1.create(request, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* st_rms = dynamic_cast<StRms*>(stream.value().get());
  EXPECT_FALSE(st_rms->encrypts());  // elided: the trusted network was chosen

  stream.value()->send(text("secure by placement"));
  sim.run();
  EXPECT_EQ(inbox.delivered(), 1u);
  EXPECT_GT(trusted_lan.stats().delivered, 0u);
  EXPECT_EQ(open_lan.stats().delivered, 0u);
}

TEST(St, NetworkSelectionIsDeterministicAcrossRunsAndSeeds) {
  // Two indistinguishable segments: nothing but the tie-break decides.
  // The choice must be a pure function of registration order — identical
  // across repeated runs and across network RNG seeds.
  auto chosen_network = [](std::uint64_t seed) {
    sim::Simulator sim;
    net::EthernetNetwork lan_a(sim, net::ethernet_traits("twin-a"), seed);
    net::EthernetNetwork lan_b(sim, net::ethernet_traits("twin-b"), seed + 1);
    netrms::NetRmsFabric fab_a(sim, lan_a);
    netrms::NetRmsFabric fab_b(sim, lan_b);
    dash::testing::SimHost h1(1, sim), h2(2, sim);
    for (auto* f : {&fab_a, &fab_b}) {
      f->register_host(1, h1.cpu, h1.ports);
      f->register_host(2, h2.cpu, h2.ports);
    }
    st::SubtransportLayer st1(sim, 1, h1.cpu, h1.ports);
    st1.add_network(fab_a);
    st1.add_network(fab_b);
    rms::Port inbox;
    h2.ports.bind(50, &inbox);
    auto stream = st1.create(st_request(), {2, 50});
    EXPECT_TRUE(stream.ok());
    auto* srms = dynamic_cast<StRms*>(stream.value().get());
    return st1.stream_fabric(srms->id())->traits().name;
  };

  const std::string first = chosen_network(1);
  EXPECT_EQ(chosen_network(1), first);   // same seed, fresh run
  EXPECT_EQ(chosen_network(17), first);  // different network seed
  EXPECT_EQ(chosen_network(99), first);
}

TEST(St, CreationFallsBackWhenFirstFabricRejectsAdmission) {
  // The first-listed network negotiates fine but its admission controller
  // cannot fund a deterministic reservation (56 kb/s trunk); creation must
  // fall through to the second fabric instead of failing outright.
  sim::Simulator sim;
  auto thin = net::ethernet_traits("thin");
  thin.bits_per_second = 56'000;
  net::EthernetNetwork lan_thin(sim, thin, 1);
  net::EthernetNetwork lan_fat(sim, net::ethernet_traits("fat"), 2);
  netrms::NetRmsFabric fab_thin(sim, lan_thin);
  netrms::NetRmsFabric fab_fat(sim, lan_fat);
  dash::testing::SimHost h1(1, sim), h2(2, sim);
  for (auto* f : {&fab_thin, &fab_fat}) {
    f->register_host(1, h1.cpu, h1.ports);
    f->register_host(2, h2.cpu, h2.ports);
  }
  st::SubtransportLayer st1(sim, 1, h1.cpu, h1.ports);
  st::SubtransportLayer st2(sim, 2, h2.cpu, h2.ports);
  st1.add_network(fab_thin);
  st1.add_network(fab_fat);
  st2.add_network(fab_thin);
  st2.add_network(fab_fat);

  rms::Port inbox;
  h2.ports.bind(50, &inbox);
  rms::Request request = st_request();
  request.desired.delay.type = rms::BoundType::kDeterministic;
  request.desired.delay.a = msec(500);
  request.acceptable.delay.type = rms::BoundType::kDeterministic;
  auto stream = st1.create(request, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<StRms*>(stream.value().get());
  EXPECT_EQ(st1.stream_fabric(srms->id()), &fab_fat);
  EXPECT_GE(fab_thin.admission().rejected_count(), 1u);

  stream.value()->send(text("rerouted at birth"));
  sim.run();
  EXPECT_EQ(inbox.delivered(), 1u);
  // Data rides the fat network (the control handshake may use either).
  EXPECT_GT(lan_fat.stats().delivered, 0u);
}

TEST(St, FallsBackToSoftwareSecurityWhenOnlyOpenNetworkReaches) {
  StWorld world(2);
  auto request = st_request();
  request.desired.quality.privacy = true;
  request.acceptable.quality.privacy = true;
  auto stream = world.st(1).create(request, {2, 50});
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(dynamic_cast<StRms*>(stream.value().get())->encrypts());
}

TEST(St, BoundTypeRuleGovernsMultiplexing) {
  // §4.2: "a deterministic or statistical ST RMS can be multiplexed only
  // onto a deterministic or statistical network RMS." A best-effort
  // channel to the peer must not carry the deterministic stream.
  StWorld world(2);
  rms::Port p1, p2;
  world.host(2).ports.bind(50, &p1);
  world.host(2).ports.bind(51, &p2);

  auto best_effort = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(best_effort.ok());
  EXPECT_EQ(world.st(1).stats().net_rms_created, 1u);

  auto det_request = st_request(16 * 1024, 512);
  det_request.desired.delay.type = rms::BoundType::kDeterministic;
  det_request.acceptable.delay.type = rms::BoundType::kDeterministic;
  det_request.desired.delay.a = msec(50);
  auto deterministic = world.st(1).create(det_request, {2, 51});
  ASSERT_TRUE(deterministic.ok()) << deterministic.error().message;

  // A second network RMS was created: no mux join across bound types.
  EXPECT_EQ(world.st(1).stats().net_rms_created, 2u);
  EXPECT_EQ(world.st(1).stats().mux_joins, 0u);
  EXPECT_EQ(deterministic.value()->params().delay.type,
            rms::BoundType::kDeterministic);

  // Both still deliver.
  best_effort.value()->send(text("on best effort"));
  deterministic.value()->send(text("on deterministic"));
  world.sim.run();
  EXPECT_EQ(p1.delivered(), 1u);
  EXPECT_EQ(p2.delivered(), 1u);
}

}  // namespace
}  // namespace dash::st

// Liveness: establishment must FAIL (not hang) when the peer is
// unreachable for the whole handshake.
namespace dash::st {
namespace {

TEST(St, EstablishmentFailsWhenPeerUnreachable) {
  StWorld world(2);
  // Kill the network before anything can be exchanged. Creation still
  // succeeds synchronously (admission is local)...
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  bool failed = false;
  rms.value()->on_failure([&](const Error&) { failed = true; });
  world.network->set_down(true);

  // ...but the control-channel retries must exhaust and fail the stream
  // instead of parking it forever.
  world.sim.run_until(sec(30));
  EXPECT_EQ(world.sim.pending(), 0u) << "events still pending: a retry loop leaked";
  EXPECT_TRUE(failed || rms.value()->failed());
  EXPECT_FALSE(dynamic_cast<StRms*>(rms.value().get())->established());
}

}  // namespace
}  // namespace dash::st

// Robustness: the ST's demux and control parsers face hostile bytes
// arriving straight off the network (a malicious or broken peer). Nothing
// may crash; garbage is counted and dropped.
namespace dash::st {
namespace {

TEST(StRobustness, GarbageOnDataPortIsDropped) {
  StWorld world(2);
  // A healthy stream first, so real state exists to confuse.
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto good = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(good.ok());
  good.value()->send(text("legit"));
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);

  // Host 3... does not exist; host 1 itself plays attacker with a raw
  // network RMS aimed at the ST data port.
  auto raw = world.fabric->create(1, dash::testing::loose_request(16 * 1024, 1400),
                                  {2, st::kDataPort});
  ASSERT_TRUE(raw.ok());
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    rms::Message m;
    const auto size = static_cast<std::size_t>(rng.range(1, 1300));
    Bytes data(size);
    for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
    m.data = std::move(data);
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  }
  // Crafted: correct tag, bogus component claiming a huge size.
  {
    Bytes wire;
    Writer w(wire);
    w.u8(kStDataTag);
    w.u8(3);            // claims 3 components
    w.u64(12345);       // unknown stream
    w.u64(0);
    w.i64(0);
    w.u8(0);
    w.u32(1'000'000);   // size far beyond the buffer
    rms::Message m;
    m.data = std::move(wire);
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  }
  world.sim.run();

  // The healthy stream still works afterwards.
  good.value()->send(text("still alive"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 2u);
}

TEST(StRobustness, GarbageOnControlPortIsDropped) {
  StWorld world(2);
  auto raw = world.fabric->create(1, dash::testing::loose_request(4096, 200),
                                  {2, st::kControlPort});
  ASSERT_TRUE(raw.ok());
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    rms::Message m;
    const auto size = static_cast<std::size_t>(rng.range(1, 190));
    Bytes data(size);
    for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
    m.data = std::move(data);
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  }
  world.sim.run();

  // The ST still establishes real streams afterwards.
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto good = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(good.ok());
  good.value()->send(text("after the garbage"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
}

// The ST charges a received control message's CPU cost on the bytes it
// carried. The cost must be read before the closure that takes the message
// is built: a moved-from buffer is empty, so the other order charges the
// fixed per-message cost only.
TEST(StRobustness, ControlMessageCostCountsItsBytes) {
  netrms::CostModel free_fabric;  // isolate the ST's charge on the receiver
  free_fabric.per_message = 0;
  free_fabric.per_byte_copy = 0;
  free_fabric.per_byte_checksum = 0;
  StWorld world(2, net::ethernet_traits(), 42, {}, net::Discipline::kDeadline,
                free_fabric);
  auto raw = world.fabric->create(1, dash::testing::loose_request(4096, 200),
                                  {2, st::kControlPort});
  ASSERT_TRUE(raw.ok());
  constexpr std::size_t kBytes = 150;
  rms::Message m;
  m.data = Bytes(kBytes, std::byte{0xEE});  // no such control type: ignored
  const Time before = world.host(2).cpu.busy_time();
  ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  world.sim.run();
  EXPECT_EQ(world.host(2).cpu.busy_time() - before,
            netrms::CostModel{}.message_cost(kBytes, false, false, false));
}

TEST(StRobustness, ComponentForDeletedStreamCountsUnknown) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto stream = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  stream.value()->send(text("one"));
  world.sim.run();
  stream.value()->close();
  world.sim.run();  // the kDelete reaches the peer

  // Forge a component for the now-deleted id via a raw network RMS.
  auto raw = world.fabric->create(1, dash::testing::loose_request(4096, 400),
                                  {2, st::kDataPort});
  ASSERT_TRUE(raw.ok());
  Bytes wire;
  Writer w(wire);
  w.u8(kStDataTag);
  w.u8(1);
  w.u64(1);  // the deleted ST RMS id
  w.u64(99);
  w.i64(0);
  w.u8(0);
  w.u32(4);
  w.bytes(to_bytes("boo!"));
  rms::Message m;
  m.data = std::move(wire);
  ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  world.sim.run();

  EXPECT_EQ(port.delivered(), 1u);  // nothing extra delivered
  EXPECT_GE(world.st(2).stats().unknown_dropped, 1u);
}

}  // namespace
}  // namespace dash::st
