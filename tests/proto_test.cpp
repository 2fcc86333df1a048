// Tests for the wire format, transports, and hint peers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hints/hint_record.h"
#include "proto/hint_peer.h"
#include "proto/hint_relay.h"
#include "proto/transport.h"
#include "proto/wire.h"

namespace bh::proto {
namespace {

ObjectId obj(std::uint64_t v) { return ObjectId{v}; }
MachineId mid(std::uint64_t v) { return MachineId{v}; }

// A peer with the default batch period and distance oracle.
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

TEST(WireTest, PostCarriesRelayDepth) {
  const std::vector<HintUpdate> in{{Action::kInform, obj(77), mid(88)}};
  auto message = encode_post(in, 5);
  const std::string text(message.begin(), message.end());
  EXPECT_NE(text.find("\r\nX-Hop: 5\r\n"), std::string::npos);
  int hops = -1;
  auto out = decode_post(message, &hops);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
  EXPECT_EQ(hops, 5);

  // A batch originated by the sender is depth 0.
  message = encode_post(in);
  ASSERT_TRUE(decode_post(message, &hops).has_value());
  EXPECT_EQ(hops, 0);
}

TEST(WireTest, HopValuesParseMalformedAsZeroAndClamp) {
  EXPECT_EQ(parse_hops("0"), 0);
  EXPECT_EQ(parse_hops("7"), 7);
  EXPECT_EQ(parse_hops("1024"), kMaxHopValue);
  EXPECT_EQ(parse_hops("1025"), kMaxHopValue);
  EXPECT_EQ(parse_hops("18446744073709551615"), kMaxHopValue);
  EXPECT_EQ(parse_hops("18446744073709551616"), 0);  // overflows u64
  EXPECT_EQ(parse_hops(""), 0);
  EXPECT_EQ(parse_hops("-1"), 0);
  EXPECT_EQ(parse_hops("+3"), 0);
  EXPECT_EQ(parse_hops("3x"), 0);
  EXPECT_EQ(parse_hops("0x10"), 0);
}

TEST(WireTest, PostWithMalformedOrMissingHopIsDepthZero) {
  const std::vector<HintUpdate> in{{Action::kInvalidate, obj(3), mid(4)}};
  const std::vector<std::uint8_t> body = encode_body(in);
  for (const char* hop_line : {"X-Hop: junk\r\n", "X-Hop:\r\n", ""}) {
    std::string text =
        std::string("POST /updates HTTP/1.0\r\nContent-Length: 20\r\n") +
        hop_line + "\r\n";
    text.append(body.begin(), body.end());
    int hops = -1;
    const auto out = decode_post(
        std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()),
        &hops);
    ASSERT_TRUE(out.has_value()) << hop_line;
    EXPECT_EQ(*out, in);
    EXPECT_EQ(hops, 0) << hop_line;
  }
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
  PeerConfig cfg{mid(10), {}, 60.0,
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

// --- hint relay ---

using Verdict = HintRelay::Verdict;
using Op = HintRelay::Decision::Op;

HintUpdate inform_at(std::uint64_t o, std::uint64_t at) {
  return {Action::kInform, obj(o), mid(at)};
}
HintUpdate invalidate_at(std::uint64_t o, std::uint64_t at) {
  return {Action::kInvalidate, obj(o), mid(at)};
}

TEST(HintRelayTest, DecideKeepsTheNearestCopy) {
  const HintRelay relay(mid(10), HintRelay::kDefaultMaxHops, [](MachineId m) {
    return std::abs(static_cast<double>(m.value) - 10.0);
  });
  EXPECT_EQ(relay.decide(inform_at(1, 12), std::nullopt).op, Op::kInsert);
  EXPECT_EQ(relay.decide(inform_at(1, 12), mid(11)).op, Op::kKeep);  // farther
  const auto nearer = relay.decide(inform_at(1, 11), mid(12));
  EXPECT_EQ(nearer.op, Op::kInsert);
  EXPECT_EQ(nearer.loc, mid(11));
  EXPECT_EQ(relay.decide(inform_at(1, 9), mid(11)).op, Op::kKeep);  // a tie
  EXPECT_EQ(relay.decide(invalidate_at(1, 12), mid(11)).op, Op::kKeep);
  EXPECT_EQ(relay.decide(invalidate_at(1, 11), mid(11)).op, Op::kErase);
  EXPECT_EQ(relay.decide(invalidate_at(1, 11), std::nullopt).op, Op::kKeep);
  // Updates naming this cache teach it nothing.
  EXPECT_EQ(relay.decide(inform_at(1, 10), std::nullopt).op, Op::kKeep);
  // Without a distance oracle every copy is equally near: the first wins.
  const HintRelay flat(mid(10), HintRelay::kDefaultMaxHops);
  EXPECT_EQ(flat.decide(inform_at(1, 11), mid(99)).op, Op::kKeep);
  EXPECT_EQ(flat.decide(inform_at(1, 11), std::nullopt).op, Op::kInsert);
}

TEST(HintRelayTest, ReceiveQueuesAFreshUpdateOnceAndBelowTheHopBound) {
  HintRelay relay(mid(1), 3);
  EXPECT_EQ(relay.receive(inform_at(5, 7), mid(2), 0), Verdict::kQueued);
  // The same update closing a cycle through another neighbour.
  EXPECT_EQ(relay.receive(inform_at(5, 7), mid(3), 0), Verdict::kDuplicate);
  EXPECT_EQ(relay.receive(inform_at(6, 1), mid(2), 0), Verdict::kAboutSelf);
  // Relaying a depth-2 update would make it depth 3 = the bound.
  EXPECT_EQ(relay.receive(inform_at(8, 7), mid(2), 2), Verdict::kHopCapped);
  EXPECT_EQ(relay.receive(inform_at(9, 7), mid(3), 1), Verdict::kQueued);
  EXPECT_EQ(relay.pending(), 2u);

  const auto pending = relay.drain();
  EXPECT_EQ(relay.pending(), 0u);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].update, inform_at(5, 7));
  EXPECT_EQ(pending[0].exclude, mid(2));
  EXPECT_EQ(pending[0].hops, 1);
  EXPECT_EQ(pending[1].exclude, mid(3));
  EXPECT_EQ(pending[1].hops, 2);
}

TEST(HintRelayTest, ComplementRetiresTheSeenKey) {
  HintRelay relay(mid(1), 8);
  // Insert, evict, insert again: each step is news and keeps propagating.
  EXPECT_EQ(relay.receive(inform_at(5, 7), mid(2), 0), Verdict::kQueued);
  EXPECT_EQ(relay.receive(invalidate_at(5, 7), mid(2), 0), Verdict::kQueued);
  EXPECT_EQ(relay.receive(inform_at(5, 7), mid(2), 0), Verdict::kQueued);
  EXPECT_EQ(relay.receive(inform_at(5, 7), mid(3), 0), Verdict::kDuplicate);
}

TEST(HintRelayTest, OriginatedUpdatesAreQueuedAndTheirEchoDropped) {
  HintRelay relay(mid(1), 8);
  relay.originate(Action::kInform, obj(5));
  relay.originate(Action::kInform, obj(5));  // a repeat is still queued
  EXPECT_EQ(relay.receive(inform_at(5, 1), mid(3), 2), Verdict::kDuplicate);
  const auto pending = relay.drain();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].update, inform_at(5, 1));
  EXPECT_EQ(pending[0].exclude, mid(0));
  EXPECT_EQ(pending[0].hops, 0);
}

TEST(HintRelayTest, SeenSetForgetsTheOldestPastCapacity) {
  HintRelay relay(mid(1), 8);
  for (std::uint64_t o = 1; o <= HintRelay::kSeenCapacity + 1; ++o) {
    ASSERT_EQ(relay.receive(inform_at(o, 7), mid(2), 0), Verdict::kQueued);
  }
  EXPECT_EQ(relay.receive(inform_at(1, 7), mid(2), 0), Verdict::kQueued);
  EXPECT_EQ(relay.receive(inform_at(HintRelay::kSeenCapacity + 1, 7), mid(2), 0),
            Verdict::kDuplicate);
}

TEST(HintRelayTest, CoalesceRetiresPairsWithTheSameProvenanceOnly) {
  std::vector<HintRelay::Pending> drained{
      {inform_at(1, 7), mid(0), 0},
      {inform_at(2, 7), mid(0), 0},
      {invalidate_at(1, 7), mid(0), 0},   // retires with the first entry
      {invalidate_at(2, 7), mid(3), 1},   // other provenance: both stay
      {inform_at(4, 7), mid(0), 0},
  };
  EXPECT_EQ(HintRelay::coalesce(drained), 2u);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].update, inform_at(2, 7));
  EXPECT_EQ(drained[1].update, invalidate_at(2, 7));
  EXPECT_EQ(drained[2].update, inform_at(4, 7));
}

TEST(HintRelayTest, BatchesSplitByDepthKeepFirstOccurrenceAndSkipTheSender) {
  const std::vector<HintRelay::Pending> drained{
      {inform_at(1, 7), mid(0), 0},
      {inform_at(2, 7), mid(3), 1},
      {inform_at(1, 7), mid(0), 0},      // repeat within depth 0: dropped
      {invalidate_at(3, 7), mid(2), 1},  // came from the neighbour itself
      {inform_at(1, 7), mid(4), 1},      // same update, other depth: kept
      {inform_at(4, 7), mid(0), 0},
  };
  const auto batches = HintRelay::batches_for(drained, mid(2));
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].hops, 0);
  EXPECT_EQ(batches[0].updates,
            (std::vector<HintUpdate>{inform_at(1, 7), inform_at(4, 7)}));
  EXPECT_EQ(batches[1].hops, 1);
  EXPECT_EQ(batches[1].updates,
            (std::vector<HintUpdate>{inform_at(2, 7), inform_at(1, 7)}));
  EXPECT_TRUE(HintRelay::batches_for({}, mid(2)).empty());
}

// A deterministic network of relays on a random graph with cycles: a ring
// plus random chords. Batches travel in the POST framing and may be lost,
// duplicated, and delivered in any order. Each node keeps a model of the
// relay's seen-set (a key enters on every arrival or origination, its
// complement leaves), so the test can catch a relay that forwards a key
// twice while the key is still in the set.
MachineId id_of_node(std::size_t i) { return mid(i + 1); }

class RelayNetwork {
 public:
  struct Event {
    std::size_t at;
    Action action;
    ObjectId object;
  };

  RelayNetwork(std::uint64_t seed, double loss, int max_hops)
      : rng_(seed), loss_(loss), max_hops_(max_hops) {
    const std::size_t n = 5 + rng_.next_below(4);  // 5..8 nodes
    weight_.assign(n * n, 0.0);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        weight_[a * n + b] = weight_[b * n + a] = rng_.uniform(1.0, 100.0);
      }
    }
    std::set<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t a = 0; a < n; ++a) edges.insert(edge(a, (a + 1) % n));
    for (std::size_t c = 0; c < n / 2; ++c) {
      const std::size_t a = rng_.next_below(n), b = rng_.next_below(n);
      if (a != b) edges.insert(edge(a, b));
    }
    nodes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Node& node = nodes_[i];
      node.relay = std::make_unique<HintRelay>(
          id_of_node(i), max_hops_,
          [this, i](MachineId m) { return distance(i, index_of(m)); });
      node.store = hints::make_hint_store(kUnlimitedBytes);
    }
    for (const auto& [a, b] : edges) {
      nodes_[a].neighbors.push_back(id_of_node(b));
      nodes_[b].neighbors.push_back(id_of_node(a));
    }
  }

  // Each relay's distance oracle points back at this network.
  RelayNetwork(const RelayNetwork&) = delete;
  RelayNetwork& operator=(const RelayNetwork&) = delete;

  std::size_t size() const { return nodes_.size(); }
  Rng& rng() { return rng_; }

  double distance(std::size_t a, std::size_t b) const {
    return weight_[a * nodes_.size() + b];
  }

  std::optional<MachineId> hint(std::size_t at, ObjectId o) const {
    return nodes_[at].store->lookup(o);
  }

  // Injects `events` at random moments while traffic moves, then runs until
  // no relay holds a pending update and nothing is in flight. False when
  // the network is still busy after a generous step budget.
  bool run(const std::vector<Event>& events) {
    std::size_t next = 0;
    for (int step = 0; step < 200000; ++step) {
      if (next < events.size() && rng_.bernoulli(0.3)) {
        originate(events[next++]);
        continue;
      }
      if (next == events.size() && quiescent()) return true;
      if (!in_flight_.empty() && rng_.bernoulli(0.7)) {
        deliver_one();
      } else {
        flush(rng_.next_below(nodes_.size()));
      }
    }
    return false;
  }

  // Counters showing each mechanism was exercised.
  std::uint64_t relayed = 0, duplicates = 0, hop_capped = 0, coalesced = 0;
  // Most fresh keys any node's seen-set took in; below the capacity the
  // model never has to forget.
  std::size_t max_fresh_keys() const {
    std::size_t most = 0;
    for (const Node& n : nodes_) most = std::max(most, n.fresh_keys);
    return most;
  }

 private:
  struct Node {
    std::unique_ptr<HintRelay> relay;
    std::unique_ptr<hints::HintStore> store;
    std::vector<MachineId> neighbors;
    std::unordered_set<std::uint64_t> seen;  // model of the relay's seen-set
    std::size_t fresh_keys = 0;
  };
  struct Message {
    MachineId from, to;
    std::vector<std::uint8_t> post;
  };

  static std::pair<std::size_t, std::size_t> edge(std::size_t a,
                                                  std::size_t b) {
    return {std::min(a, b), std::max(a, b)};
  }
  static std::size_t index_of(MachineId m) { return m.value - 1; }

  // Records `u` in the seen-set model; true when the key was already there.
  bool note(Node& node, const HintUpdate& u) {
    node.seen.erase(complement_key(u));
    const bool fresh = node.seen.insert(update_key(u)).second;
    node.fresh_keys += fresh;
    return !fresh;
  }

  bool quiescent() const {
    if (!in_flight_.empty()) return false;
    return std::all_of(nodes_.begin(), nodes_.end(),
                       [](const Node& n) { return n.relay->pending() == 0; });
  }

  void originate(const Event& e) {
    Node& node = nodes_[e.at];
    note(node, {e.action, e.object, id_of_node(e.at)});
    node.relay->originate(e.action, e.object);
  }

  void flush(std::size_t at) {
    Node& node = nodes_[at];
    std::vector<HintRelay::Pending> pending = node.relay->drain();
    coalesced += HintRelay::coalesce(pending);
    for (const MachineId nb : node.neighbors) {
      for (const auto& batch : HintRelay::batches_for(pending, nb)) {
        EXPECT_LT(batch.hops, max_hops_) << "forwarded at the hop bound";
        if (rng_.bernoulli(loss_)) continue;
        in_flight_.push_back(
            {id_of_node(at), nb, encode_post(batch.updates, batch.hops)});
      }
    }
  }

  void deliver_one() {
    // Any in-flight message may go next; a duplicated one stays in flight.
    const std::size_t i = rng_.next_below(in_flight_.size());
    const Message m = in_flight_[i];
    if (!rng_.bernoulli(0.2)) {
      in_flight_[i] = std::move(in_flight_.back());
      in_flight_.pop_back();
    }
    Node& node = nodes_[index_of(m.to)];
    int hops = -1;
    const auto updates = decode_post(m.post, &hops);
    ASSERT_TRUE(updates.has_value());
    for (const HintUpdate& u : *updates) {
      node.relay->apply(*node.store, u);
      const bool was_seen = note(node, u);
      switch (node.relay->receive(u, m.from, hops)) {
        case Verdict::kQueued:
          EXPECT_FALSE(was_seen) << "node " << m.to.value
                                 << " relayed a key still in its seen-set";
          ++relayed;
          break;
        case Verdict::kDuplicate:
          ++duplicates;
          break;
        case Verdict::kHopCapped:
          ++hop_capped;
          break;
        case Verdict::kAboutSelf:
          break;
      }
    }
  }

  Rng rng_;
  double loss_;
  int max_hops_;
  std::vector<double> weight_;  // symmetric distance matrix
  std::vector<Node> nodes_;
  std::vector<Message> in_flight_;
};

// Object workload for RelayNetwork. "Replicated" objects only gain copies;
// "migrating" objects have at most one holder, which may evict the object
// or hand it to another node.
struct RelayWorkload {
  static constexpr std::uint64_t kReplicated = 4, kMigrating = 4;
  std::vector<std::set<std::size_t>> holders =
      std::vector<std::set<std::size_t>>(kReplicated);
  std::vector<std::optional<std::size_t>> holder =
      std::vector<std::optional<std::size_t>>(kMigrating);
  // The migrating object's last event was a copy appearing where none was,
  // so every other node must have learned exactly that holder.
  std::vector<bool> fresh_copy = std::vector<bool>(kMigrating);

  static ObjectId replicated(std::uint64_t k) { return obj(1 + k); }
  static ObjectId migrating(std::uint64_t k) { return obj(101 + k); }

  // At most one event per object: each (object, location) key is then in
  // flight in one direction only until the network goes quiet.
  std::vector<RelayNetwork::Event> epoch(RelayNetwork& net) {
    Rng& rng = net.rng();
    const std::size_t n = net.size();
    std::vector<RelayNetwork::Event> events;
    for (std::uint64_t k = 0; k < kReplicated; ++k) {
      if (!rng.bernoulli(0.5) || holders[k].size() == n) continue;
      std::size_t at = rng.next_below(n);
      while (holders[k].count(at)) at = (at + 1) % n;
      holders[k].insert(at);
      events.push_back({at, Action::kInform, replicated(k)});
    }
    for (std::uint64_t k = 0; k < kMigrating; ++k) {
      if (!rng.bernoulli(0.5)) continue;
      std::optional<std::size_t>& h = holder[k];
      fresh_copy[k] = !h;
      if (h) events.push_back({*h, Action::kInvalidate, migrating(k)});
      if (h && rng.bernoulli(0.5)) {
        h.reset();  // evicted
        continue;
      }
      const std::size_t next = (h.value_or(0) + 1 + rng.next_below(n - 1)) % n;
      h = next;
      events.push_back({next, Action::kInform, migrating(k)});
    }
    for (std::size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1], events[rng.next_below(i)]);
    }
    return events;
  }
};

TEST(HintRelayPropertyTest, LossyCyclicGraphsGoQuiescentWithoutRepeatRelays) {
  std::uint64_t relayed = 0, duplicates = 0, hop_capped = 0, coalesced = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    RelayNetwork net(seed, /*loss=*/0.25, /*max_hops=*/3);
    RelayWorkload load;
    for (int epoch = 0; epoch < 20; ++epoch) {
      // Three rounds per epoch: the same key may now be informed and
      // invalidated before the network settles, which is what coalescing
      // and complement retirement exist for.
      std::vector<RelayNetwork::Event> events;
      for (int round = 0; round < 3; ++round) {
        const auto more = load.epoch(net);
        events.insert(events.end(), more.begin(), more.end());
      }
      ASSERT_TRUE(net.run(events)) << "epoch " << epoch << " never went quiet";
    }
    ASSERT_LT(net.max_fresh_keys(), HintRelay::kSeenCapacity);
    relayed += net.relayed;
    duplicates += net.duplicates;
    hop_capped += net.hop_capped;
    coalesced += net.coalesced;
  }
  EXPECT_GT(relayed, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(hop_capped, 0u);
  EXPECT_GT(coalesced, 0u);
}

TEST(HintRelayPropertyTest, LosslessRunsConvergeToTheNearestLiveHolder) {
  std::uint64_t relayed = 0, duplicates = 0;
  for (std::uint64_t seed = 101; seed <= 140; ++seed) {
    SCOPED_TRACE(seed);
    // Graphs have at most 8 nodes, so every simple path is under the bound.
    RelayNetwork net(seed, /*loss=*/0.0, HintRelay::kDefaultMaxHops);
    RelayWorkload load;
    for (int epoch = 0; epoch < 30; ++epoch) {
      ASSERT_TRUE(net.run(load.epoch(net))) << "epoch " << epoch;
    }
    ASSERT_LT(net.max_fresh_keys(), HintRelay::kSeenCapacity);
    relayed += net.relayed;
    duplicates += net.duplicates;

    for (std::size_t at = 0; at < net.size(); ++at) {
      SCOPED_TRACE(at);
      // Replicated objects: the hint names the nearest other holder.
      for (std::uint64_t k = 0; k < RelayWorkload::kReplicated; ++k) {
        const auto h = net.hint(at, RelayWorkload::replicated(k));
        std::optional<double> nearest;
        for (const std::size_t other : load.holders[k]) {
          if (other == at) continue;
          const double d = net.distance(at, other);
          nearest = std::min(nearest.value_or(d), d);
        }
        if (!nearest) {
          EXPECT_FALSE(h.has_value());
          continue;
        }
        ASSERT_TRUE(h.has_value());
        const std::size_t named = h->value - 1;
        EXPECT_TRUE(load.holders[k].count(named));
        EXPECT_EQ(net.distance(at, named), *nearest);
      }
      // Migrating objects: the hint names the live holder, or nothing. A
      // handover can leave nothing behind (the new copy's inform lost to a
      // nearer old hint that the invalidate then erased), a fresh copy not.
      for (std::uint64_t k = 0; k < RelayWorkload::kMigrating; ++k) {
        const auto h = net.hint(at, RelayWorkload::migrating(k));
        if (load.fresh_copy[k] && load.holder[k] != at) {
          EXPECT_EQ(h, id_of_node(*load.holder[k]));
        }
        if (!h) continue;
        ASSERT_TRUE(load.holder[k].has_value()) << "hint to a dead copy";
        EXPECT_EQ(h->value - 1, *load.holder[k]);
        EXPECT_NE(*load.holder[k], at);
      }
    }
  }
  EXPECT_GT(relayed, 0u);
  EXPECT_GT(duplicates, 0u);
}

}  // namespace
}  // namespace bh::proto
