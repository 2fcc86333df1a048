// Example: a regional ISP deploys nine cooperating proxy caches — eight leaf
// proxies in two metro areas plus one metadata relay — and keeps their hint
// caches synchronized with the batched 20-byte update protocol from the
// paper's Squid prototype (Section 3.2).
//
// This example drives the *protocol* layer (bh::proto): real wire messages
// over an in-process transport, randomized batch timers, and the
// inform/invalidate/find_nearest interface commands. Requests are served
// cache-to-cache whenever a hint names a peer with the object.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/md5.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "proto/hint_peer.h"
#include "proto/transport.h"

using namespace bh;

namespace {

// Metro A proxies are machines 1..4, metro B are 5..8; machine 100 is the
// relay that glues the two metros into a hint tree (no data lives there).
MachineId proxy_id(int i) { return MachineId{static_cast<std::uint64_t>(i)}; }

double metro_distance(MachineId a, MachineId b) {
  auto metro = [](MachineId m) { return m.value <= 4 ? 0 : (m.value <= 8 ? 1 : 2); };
  if (a == b) return 0;
  return metro(a) == metro(b) ? 1 : 3;
}

struct Proxy {
  std::unique_ptr<proto::HintPeer> peer;
  std::map<std::uint64_t, bool> store;  // object -> cached locally

  bool has(ObjectId o) const { return store.count(o.value) > 0; }
};

}  // namespace

int main() {
  proto::LoopbackTransport net;
  std::map<std::uint64_t, Proxy> proxies;

  // Leaf proxies talk to the relay; the relay talks to all leaves and
  // re-advertises what one leaf tells it to the others. The tree shape is
  // the deployment's choice: the relay's hop bound and seen-set keep
  // re-advertising loop-free on any neighbour graph.
  for (int i = 1; i <= 8; ++i) {
    proto::PeerConfig cfg;
    cfg.self = proxy_id(i);
    cfg.neighbors = {proxy_id(100)};
    cfg.distance = metro_distance;
    proxies[i].peer = std::make_unique<proto::HintPeer>(cfg, net, 42 + i);
  }
  proto::PeerConfig relay_cfg;
  relay_cfg.self = proxy_id(100);
  for (int i = 1; i <= 8; ++i) relay_cfg.neighbors.push_back(proxy_id(i));
  relay_cfg.distance = metro_distance;
  proto::HintPeer relay(relay_cfg, net, 41);

  // Workload: 2000 requests for 300 Zipf-popular objects, arriving at random
  // proxies. Every proxy flushes its update batch on its randomized timer.
  Rng rng(7);
  ZipfSampler zipf(300, 0.9);
  // The Zipf stream repeats the popular URLs constantly; memoize their MD5
  // digests so only first-sight URLs pay for the full hash.
  UrlDigestCache digests;
  std::uint64_t local_hits = 0, metro_hits = 0, far_hits = 0, misses = 0;

  double now = 0;
  for (int reqs = 0; reqs < 2000; ++reqs) {
    now += rng.exponential(2.0);  // a request every ~2s across the region
    for (auto& [id, p] : proxies) p.peer->on_timer(now);
    relay.on_timer(now);
    net.pump();

    const int at = 1 + static_cast<int>(rng.next_below(8));
    Proxy& p = proxies[at];
    const ObjectId obj =
        digests.object_id("http://news.example.com/story/" +
                          std::to_string(zipf.sample(rng)));

    if (p.has(obj)) {
      ++local_hits;
      continue;
    }
    bool served = false;
    if (auto hint = p.peer->find_nearest(obj)) {
      Proxy& remote = proxies[static_cast<int>(hint->value)];
      if (remote.has(obj)) {  // direct cache-to-cache transfer
        (metro_distance(proxy_id(at), *hint) <= 1 ? metro_hits : far_hits) += 1;
        served = true;
      }
    }
    if (!served) ++misses;
    // Either way the object is now cached here; advertise it.
    p.store[obj.value] = true;
    p.peer->inform(obj);
  }
  // Drain the last batches.
  for (auto& [id, p] : proxies) p.peer->flush();
  relay.flush();
  net.pump();
  relay.flush();
  net.pump();

  std::printf("ISP cluster: 8 proxies, 2 metros, 1 metadata relay\n");
  std::printf("requests: 2000   local hits: %llu   metro cache-to-cache: %llu"
              "   cross-metro: %llu   server fetches: %llu\n",
              (unsigned long long)local_hits, (unsigned long long)metro_hits,
              (unsigned long long)far_hits, (unsigned long long)misses);

  std::uint64_t bytes = relay.stats().bytes_sent;
  std::uint64_t updates = relay.stats().updates_sent;
  for (auto& [id, p] : proxies) {
    bytes += p.peer->stats().bytes_sent;
    updates += p.peer->stats().updates_sent;
  }
  std::printf("hint protocol traffic: %llu updates, %llu bytes on the wire "
              "(%.1f bytes/s across the whole cluster)\n",
              (unsigned long long)updates, (unsigned long long)bytes,
              static_cast<double>(bytes) / now);
  std::printf("relay hint table: %zu entries of 16 bytes\n",
              relay.store().entry_count());

  const double hit_rate =
      static_cast<double>(local_hits + metro_hits + far_hits) / 2000.0;
  std::printf("\ncluster hit rate %.2f; every remote hit was located with a "
              "local hint lookup and served with a single cache-to-cache "
              "transfer — no request ever climbed a data hierarchy\n",
              hit_rate);
  return 0;
}
