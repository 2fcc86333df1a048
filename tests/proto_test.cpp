// Tests for the wire format, transports, and hint peers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "hints/hint_record.h"
#include "proto/hint_peer.h"
#include "proto/transport.h"
#include "proto/wire.h"

namespace bh::proto {
namespace {

ObjectId obj(std::uint64_t v) { return ObjectId{v}; }
MachineId mid(std::uint64_t v) { return MachineId{v}; }

// A peer with default cache size, batch period and distance oracle.
PeerConfig peer_config(MachineId self, std::vector<MachineId> neighbors) {
  PeerConfig cfg;
  cfg.self = self;
  cfg.neighbors = std::move(neighbors);
  return cfg;
}

// --- wire format ---

TEST(WireTest, UpdateIsTwentyBytesOnTheWire) {
  const std::vector<HintUpdate> one{{Action::kInform, obj(1), mid(2)}};
  EXPECT_EQ(encode_body(one).size(), kUpdateWireBytes);
  const std::vector<HintUpdate> five(5, {Action::kInform, obj(1), mid(2)});
  EXPECT_EQ(encode_body(five).size(), 5 * kUpdateWireBytes);
}

TEST(WireTest, BodyRoundTrip) {
  std::vector<HintUpdate> in;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    in.push_back({i % 2 ? Action::kInform : Action::kInvalidate,
                  obj(i * 0x123456789ULL), mid(i << 32 | 3128)});
  }
  auto body = encode_body(in);
  auto out = decode_body(body);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(WireTest, BodyRejectsBadLengthAndAction) {
  std::vector<std::uint8_t> short_body(19, 0);
  EXPECT_FALSE(decode_body(short_body).has_value());
  std::vector<std::uint8_t> bad_action(20, 0);  // action 0 is invalid
  EXPECT_FALSE(decode_body(bad_action).has_value());
}

TEST(WireTest, PostFramingRoundTrip) {
  std::vector<HintUpdate> in{{Action::kInform, obj(77), mid(88)},
                             {Action::kInvalidate, obj(99), mid(11)}};
  auto message = encode_post(in);
  const std::string text(message.begin(), message.end());
  EXPECT_TRUE(text.starts_with("POST /updates HTTP/1.0\r\n"));
  EXPECT_NE(text.find("Content-Length: 40"), std::string::npos);
  auto out = decode_post(message);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(WireTest, PostRejectsMalformed) {
  std::string bad = "GET /updates HTTP/1.0\r\n\r\n";
  EXPECT_FALSE(decode_post(std::span(
                   reinterpret_cast<const std::uint8_t*>(bad.data()),
                   bad.size()))
                   .has_value());
  auto message = encode_post(std::vector<HintUpdate>{
      {Action::kInform, obj(1), mid(2)}});
  message.pop_back();  // truncate
  EXPECT_FALSE(decode_post(message).has_value());
}

TEST(WireTest, EmptyBatch) {
  auto message = encode_post({});
  auto out = decode_post(message);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(WireTest, UpdateKeySeparatesEveryField) {
  const HintUpdate base{Action::kInform, ObjectId{1}, MachineId{2}};
  HintUpdate other_action = base;
  other_action.action = Action::kInvalidate;
  HintUpdate other_object = base;
  other_object.object = ObjectId{3};
  HintUpdate other_location = base;
  other_location.location = MachineId{4};

  EXPECT_EQ(update_key(base), update_key(base));
  EXPECT_NE(update_key(base), update_key(other_action));
  EXPECT_NE(update_key(base), update_key(other_object));
  EXPECT_NE(update_key(base), update_key(other_location));
}

TEST(WireTest, ComplementKeyFlipsOnlyTheAction) {
  const HintUpdate inform{Action::kInform, ObjectId{9}, MachineId{7}};
  HintUpdate invalidate = inform;
  invalidate.action = Action::kInvalidate;
  // The complement of an inform is the matching invalidate, and the mapping
  // is an involution.
  EXPECT_EQ(complement_key(inform), update_key(invalidate));
  EXPECT_EQ(complement_key(invalidate), update_key(inform));
  EXPECT_NE(complement_key(inform), update_key(inform));
}

TEST(WireTest, PairKeyIsActionBlind) {
  const HintUpdate inform{Action::kInform, ObjectId{9}, MachineId{7}};
  HintUpdate invalidate = inform;
  invalidate.action = Action::kInvalidate;
  // An update and its complement share the pair key (the coalescing
  // identity), which is the inform-form update key.
  EXPECT_EQ(pair_key(inform), pair_key(invalidate));
  EXPECT_EQ(pair_key(inform), update_key(inform));
  HintUpdate other_object = inform;
  other_object.object = ObjectId{10};
  EXPECT_NE(pair_key(inform), pair_key(other_object));
  HintUpdate other_location = inform;
  other_location.location = MachineId{8};
  EXPECT_NE(pair_key(inform), pair_key(other_location));
}

TEST(WireTest, PushTargetsRoundTrip) {
  const std::vector<std::uint16_t> ports{8001, 8002, 65535};
  const std::string encoded = encode_push_targets(ports);
  EXPECT_EQ(encoded, "8001,8002,65535");
  const auto decoded = decode_push_targets(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ports);
}

TEST(WireTest, PushTargetsEmptyListIsEmptyString) {
  EXPECT_EQ(encode_push_targets({}), "");
  const auto decoded = decode_push_targets("");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(WireTest, PushTargetsRejectsMalformed) {
  // Every malformed token invalidates the whole header: a receiver must not
  // seed hints from a half-parsed list.
  EXPECT_FALSE(decode_push_targets("8001,").has_value());   // trailing comma
  EXPECT_FALSE(decode_push_targets(",8001").has_value());   // leading comma
  EXPECT_FALSE(decode_push_targets("8001,,8002").has_value());
  EXPECT_FALSE(decode_push_targets("80x1").has_value());    // non-numeric
  EXPECT_FALSE(decode_push_targets("8001,peer").has_value());
  EXPECT_FALSE(decode_push_targets("65536").has_value());   // > port range
  EXPECT_FALSE(decode_push_targets(" 8001").has_value());   // stray space
}

// --- transports ---

TEST(TransportTest, LoopbackDeliversInOrder) {
  LoopbackTransport t;
  std::vector<int> seen;
  t.bind(mid(1), [&](MachineId, std::span<const std::uint8_t> p) {
    seen.push_back(p[0]);
  });
  t.send(mid(9), mid(1), {1});
  t.send(mid(9), mid(1), {2});
  t.send(mid(9), mid(1), {3});
  EXPECT_EQ(t.queued(), 3u);
  EXPECT_EQ(t.pump(), 3u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(TransportTest, UnboundEndpointCountsDrop) {
  LoopbackTransport t;
  t.send(mid(1), mid(2), {1});
  t.pump();
  EXPECT_EQ(t.dropped_unbound(), 1u);
}

TEST(TransportTest, PumpRespectsLimit) {
  LoopbackTransport t;
  int count = 0;
  t.bind(mid(1), [&](MachineId, std::span<const std::uint8_t>) { ++count; });
  for (int i = 0; i < 5; ++i) t.send(mid(2), mid(1), {0});
  EXPECT_EQ(t.pump(2), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(t.queued(), 3u);
}

TEST(TransportTest, LossyDropsApproximately) {
  LoopbackTransport inner;
  int received = 0;
  inner.bind(mid(1),
             [&](MachineId, std::span<const std::uint8_t>) { ++received; });
  LossyTransport lossy(inner, 0.3, 42);
  for (int i = 0; i < 10000; ++i) lossy.send(mid(2), mid(1), {0});
  inner.pump();
  EXPECT_NEAR(static_cast<double>(lossy.dropped()), 3000, 200);
  EXPECT_EQ(received + static_cast<int>(lossy.dropped()), 10000);
}

// --- hint peers ---

struct TwoPeers {
  LoopbackTransport net;
  HintPeer a, b;

  TwoPeers()
      : a(peer_config(mid(1), {mid(2)}), net, 0xA),
        b(peer_config(mid(2), {mid(1)}), net, 0xB) {}

  void exchange() {
    a.flush();
    b.flush();
    net.pump();
  }
};

TEST(HintPeerTest, InformPropagatesToNeighbor) {
  TwoPeers p;
  p.a.inform(obj(5));
  p.exchange();
  auto hint = p.b.find_nearest(obj(5));
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, mid(1));
  // The origin learns nothing about itself.
  EXPECT_EQ(p.a.find_nearest(obj(5)), std::nullopt);
}

TEST(HintPeerTest, InvalidatePropagates) {
  TwoPeers p;
  p.a.inform(obj(5));
  p.exchange();
  p.a.invalidate(obj(5));
  p.exchange();
  EXPECT_EQ(p.b.find_nearest(obj(5)), std::nullopt);
}

TEST(HintPeerTest, InvalidateOnlyMatchingLocation) {
  TwoPeers p;
  // b believes the copy is at 3; an invalidate from 1 must not disturb it.
  p.b.store().insert(obj(5), mid(3));
  p.a.invalidate(obj(5));
  p.exchange();
  EXPECT_EQ(p.b.find_nearest(obj(5)), mid(3));
}

TEST(HintPeerTest, BatchesAreMergedAndCounted) {
  TwoPeers p;
  p.a.inform(obj(5));
  p.a.inform(obj(5));  // duplicate within the period
  p.a.inform(obj(6));
  p.a.flush();
  p.net.pump();
  EXPECT_EQ(p.a.stats().batches_sent, 1u);
  EXPECT_EQ(p.a.stats().updates_sent, 2u);  // merged
  // Framing overhead + 2 * 20 bytes.
  EXPECT_GE(p.a.stats().bytes_sent, 2 * kUpdateWireBytes);
  EXPECT_EQ(p.b.stats().updates_received, 2u);
}

TEST(HintPeerTest, RelaysAlongAChainButNotBack) {
  // a - b - c: updates from a must reach c via b, and never echo to a.
  LoopbackTransport net;
  HintPeer a(peer_config(mid(1), {mid(2)}), net, 1);
  HintPeer b(peer_config(mid(2), {mid(1), mid(3)}), net, 2);
  HintPeer c(peer_config(mid(3), {mid(2)}), net, 3);

  a.inform(obj(7));
  a.flush();
  net.pump();
  b.flush();
  net.pump();
  auto hint = c.find_nearest(obj(7));
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, mid(1));
  // b did not send the update back to a.
  EXPECT_EQ(a.stats().updates_received, 0u);
}

TEST(HintPeerTest, DistanceFunctionKeepsNearestHint) {
  LoopbackTransport net;
  PeerConfig cfg{mid(10), {}, 1_MB, 60.0,
                 [](MachineId self, MachineId other) {
                   return std::abs(static_cast<double>(self.value) -
                                   static_cast<double>(other.value));
                 }};
  HintPeer p(cfg, net, 4);
  HintPeer src11(peer_config(mid(11), {mid(10)}), net, 5);
  HintPeer src99(peer_config(mid(99), {mid(10)}), net, 6);
  src99.inform(obj(1));
  src99.flush();
  net.pump();
  src11.inform(obj(1));
  src11.flush();
  net.pump();
  EXPECT_EQ(p.find_nearest(obj(1)), mid(11));  // nearer replaced farther
  // A farther advertisement does not displace the near one.
  src99.inform(obj(1));
  src99.flush();
  net.pump();
  EXPECT_EQ(p.find_nearest(obj(1)), mid(11));
}

TEST(HintPeerTest, TimerFlushesWithinMaxPeriod) {
  TwoPeers p;
  p.a.inform(obj(5));
  const SimTime deadline = p.a.next_flush_at();
  EXPECT_GE(deadline, 0.0);
  EXPECT_LE(deadline, 60.0);  // randomized uniform(0, 60) per the paper
  p.a.on_timer(deadline);
  EXPECT_EQ(p.a.stats().batches_sent, 1u);
  // The next deadline moved forward by at most another max period.
  EXPECT_GE(p.a.next_flush_at(), deadline);
  EXPECT_LE(p.a.next_flush_at(), deadline + 60.0);
}

TEST(HintPeerTest, MalformedMessageIsCountedNotApplied) {
  LoopbackTransport net;
  HintPeer a(peer_config(mid(1), {}), net, 1);
  net.send(mid(9), mid(1), {'j', 'u', 'n', 'k'});
  net.pump();
  EXPECT_EQ(a.stats().malformed_messages, 1u);
  EXPECT_EQ(a.stats().updates_received, 0u);
}

TEST(HintPeerTest, SurvivesLossyNetwork) {
  // Hints are soft state: loss only means missing knowledge, never a crash
  // or a wrong application.
  LoopbackTransport inner;
  LossyTransport lossy(inner, 0.5, 77);
  HintPeer a(peer_config(mid(1), {mid(2)}), lossy, 1);
  HintPeer b(peer_config(mid(2), {mid(1)}), lossy, 2);
  int known = 0;
  for (std::uint64_t o = 1; o <= 200; ++o) {
    a.inform(obj(o));
    a.flush();
    inner.pump();
    known += b.find_nearest(obj(o)).has_value();
  }
  EXPECT_GT(known, 50);
  EXPECT_LT(known, 150);
}

}  // namespace
}  // namespace bh::proto
