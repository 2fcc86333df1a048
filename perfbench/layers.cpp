// Layer-replay harness for the traced run.
//
// Drives each module's public functions with the workload's own id, size and
// client streams, from the benchmark's code, one span per replay batch. A
// batch covers many calls because one call (tens of nanoseconds) is shorter
// than the clock reads that would bracket it; the reported figure is the
// median over batches of batch time / calls.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "cache/disk_store.h"
#include "cache/lru_cache.h"
#include "cache/sharded_lru.h"
#include "hints/hint_cache.h"
#include "hints/metadata_hierarchy.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "proto/wire.h"
#include "proxy/conn_pool.h"
#include "proxy/http.h"
#include "proxy/origin_server.h"
#include "sim/event_queue.h"

namespace pb {
namespace {

using bh::MachineId;
using bh::ObjectId;

enum Layer : std::uint16_t {
  kParse,
  kHistRecord1,
  kHistRecordN,
  kFind1,
  kFindN,
  kHintLookupN,
  kApplyBatch,
  kEncode,
  kDecode,
  kOriginExchange,
  kDiskPut,
  kDiskGet,
  kEventQueue,
  kLruAccess,
  kInform,
  kFindNearest,
  kLayerCount,
};

// Runs `batch(thread, k)` (returning the calls it made) on `threads` threads
// started together, until `budget` seconds have passed and every thread has
// run at least `min_batches`; returns each batch's seconds per call.
std::vector<double> replay(SpanLog& spans, Layer layer, int threads,
                           double budget, int min_batches,
                           const std::function<std::uint32_t(int, std::uint64_t)>&
                               batch) {
  std::vector<std::vector<double>> per_thread{std::size_t(threads)};
  std::atomic<int> ready{0};
  const auto run = [&](int t) {
    ready.fetch_add(1);
    while (ready.load() < threads) std::this_thread::yield();
    const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(budget));
    for (std::uint64_t k = 0; int(k) < min_batches || Clock::now() < t_end; ++k) {
      const auto t0 = Clock::now();
      const std::uint32_t calls = batch(t, k);
      const auto t1 = Clock::now();
      spans.record(t, SpanKind::kLayer, layer, t0, t1, calls);
      per_thread[std::size_t(t)].push_back(seconds_between(t0, t1) /
                                           std::max<std::uint32_t>(1, calls));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(run, t);
  run(0);
  for (auto& th : pool) th.join();
  std::vector<double> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

double median_ns(std::vector<double> per_call_s) {
  return median(std::move(per_call_s)) * 1e9;
}

// From several threads the cost of a call is its contended cost, which the
// median batch (often one that ran while the others were off-CPU) hides:
// report the mean instead.
double per_call_ns(const std::vector<double>& per_call_s, int threads) {
  if (threads == 1) return median_ns(per_call_s);
  double sum = 0;
  for (const double s : per_call_s) sum += s;
  return per_call_s.empty() ? 0.0 : sum / double(per_call_s.size()) * 1e9;
}

}  // namespace

const std::vector<std::string>& layer_span_names() {
  static const std::vector<std::string> names = {
      "proxy.http.parse",          "obs.histogram.record.t1",
      "obs.histogram.record.tN",   "cache.sharded_lru.find.t1",
      "cache.sharded_lru.find.tN", "hints.lookup.tN",
      "hints.apply_batch",         "proto.encode_post",
      "proto.decode_post",         "proxy.origin_exchange",
      "cache.disk_store.put",      "cache.disk_store.get_body",
      "sim.event_queue",           "cache.lru_cache.access",
      "hints.metadata_hierarchy.inform",
      "hints.metadata_hierarchy.find_nearest"};
  return names;
}

void run_layer_replays(const ReplayInput& in, double budget_seconds,
                       const std::string& scratch_dir, SpanLog& spans,
                       Result& r) {
  if (in.ids.empty()) throw std::runtime_error("layer replay: empty id stream");
  const double each = budget_seconds / double(kLayerCount);
  const int n_threads = int(cores());
  const std::size_t n = in.ids.size();
  auto id_at = [&](std::uint64_t i) { return in.ids[i % n]; };
  auto size_at = [&](std::uint64_t i) { return in.sizes[i % n]; };
  // Distinct ids in first-seen order, with their sizes.
  std::vector<std::size_t> distinct;
  {
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; i < n; ++i) {
      if (seen.insert(in.ids[i].value).second) distinct.push_back(i);
    }
  }

  // --- proxy request parsing: the workload's request bytes ---
  {
    std::vector<std::string> raw;
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 4096); ++i) {
      bh::proxy::HttpRequest req;
      req.method = "GET";
      req.target = bh::proxy::object_path(in.ids[i], in.sizes[i]);
      req.headers.emplace_back("Connection", "keep-alive");
      raw.push_back(bh::proxy::serialize(req));
    }
    bh::proxy::HttpParser parser(bh::proxy::HttpParser::Kind::kRequest);
    bool parsed_all = true;
    const auto per_call = replay(
        spans, kParse, 1, each, 3, [&](int, std::uint64_t k) {
      for (std::uint32_t j = 0; j < 256; ++j) {
        const std::string& bytes = raw[(k * 256 + j) % raw.size()];
        parser.feed(bytes);
        parsed_all &= parser.complete();
        parser.reset();
      }
      return 256u;
    });
    if (!parsed_all) r.check_failed("HttpParser rejected a workload request");
    r.layers.set("proxy.http.parse_ns", median_ns(per_call), "ns");
  }

  // --- obs::Histogram::record from 1 and from all threads ---
  {
    std::vector<double> values = in.latencies_ms;
    for (std::size_t i = 0; values.size() < 4096; ++i) {
      values.push_back(double(size_at(i)) * 1e-4);
    }
    for (const auto& [layer, threads] :
         {std::pair{kHistRecord1, 1}, std::pair{kHistRecordN, n_threads}}) {
      bh::obs::Histogram hist;
      const auto per_call = replay(spans, layer, threads, each, 3,
                                   [&](int t, std::uint64_t k) {
        const std::size_t base = (std::size_t(t) * 7919 + k * 1024) % values.size();
        for (std::uint32_t j = 0; j < 1024; ++j) {
          hist.record(values[(base + j) % values.size()]);
        }
        return 1024u;
      });
      r.layers.set(threads == 1 ? "obs.histogram.record_ns.t1"
                                : "obs.histogram.record_ns.tN",
                   per_call_ns(per_call, threads), "ns");
    }
  }

  // --- ShardedLruCache::find on the id stream ---
  {
    bh::cache::ShardedLruCache cache(1ULL << 40, 8);
    const auto body = std::make_shared<const std::string>(64, 'x');
    for (const std::size_t i : distinct) cache.insert(in.ids[i], body);
    std::atomic<std::uint64_t> found{0};
    for (const auto& [layer, threads] :
         {std::pair{kFind1, 1}, std::pair{kFindN, n_threads}}) {
      const auto per_call = replay(spans, layer, threads, each, 3,
                                   [&](int t, std::uint64_t k) {
        std::uint64_t hits = 0;
        const std::uint64_t base = std::uint64_t(t) * (n / 4 + 1) + k * 1024;
        for (std::uint32_t j = 0; j < 1024; ++j) {
          hits += cache.find(id_at(base + j)) != nullptr;
        }
        found.fetch_add(hits);
        return 1024u;
      });
      r.layers.set(threads == 1 ? "cache.sharded_lru.find_ns.t1"
                                : "cache.sharded_lru.find_ns.tN",
                   per_call_ns(per_call, threads), "ns");
    }
    if (found.load() == 0) r.check_failed("ShardedLruCache::find found nothing");
  }

  // --- StripedHintStore: lookups from all threads, batched apply ---
  {
    auto store = bh::hints::make_striped_hint_store(1ULL << 20, 8);
    for (const std::size_t i : distinct) {
      store->insert(in.ids[i], MachineId{1 + in.ids[i].value % 4});
    }
    std::atomic<std::uint64_t> hinted{0};
    const auto per_lookup = replay(spans, kHintLookupN, n_threads, each, 3,
                                   [&](int t, std::uint64_t k) {
      const std::uint64_t base = std::uint64_t(t) * (n / 4 + 1) + k * 1024;
      std::uint64_t hits = 0;
      for (std::uint32_t j = 0; j < 1024; ++j) {
        hits += store->lookup(id_at(base + j)).has_value();
      }
      hinted.fetch_add(hits);
      return 1024u;
    });
    if (hinted.load() == 0) r.check_failed("StripedHintStore::lookup found nothing");
    r.layers.set("hints.lookup_ns.tN", per_call_ns(per_lookup, n_threads), "ns");

    std::vector<ObjectId> batch_ids(64);
    const auto per_id = replay(
        spans, kApplyBatch, 1, each, 3, [&](int, std::uint64_t k) {
      for (std::size_t j = 0; j < 64; ++j) batch_ids[j] = id_at(k * 64 + j);
      using Decision = bh::hints::HintStore::BatchDecision;
      store->apply_batch(batch_ids, [&](std::size_t j, std::optional<MachineId> cur) {
        if (cur && (j + k) % 2 == 0) return Decision::erase_hint();
        return Decision::insert_loc(MachineId{1 + j % 4});
      });
      return 64u;
    });
    r.layers.set("hints.apply_batch_ns", median_ns(per_id), "ns");
  }

  // --- proto::encode_post / decode_post, per update ---
  {
    std::vector<std::vector<bh::proto::HintUpdate>> batches;
    for (std::size_t b = 0; b < 64; ++b) {
      std::vector<bh::proto::HintUpdate> ups;
      for (std::size_t j = 0; j < 64; ++j) {
        const ObjectId id = id_at(b * 64 + j);
        ups.push_back({(id.value & 1) ? bh::proto::Action::kInform
                                      : bh::proto::Action::kInvalidate,
                       id, MachineId{1 + j % 4}});
      }
      batches.push_back(std::move(ups));
    }
    std::vector<std::vector<std::uint8_t>> encoded(batches.size());
    const auto per_enc = replay(
        spans, kEncode, 1, each, 3, [&](int, std::uint64_t k) {
      const std::size_t b = k % batches.size();
      encoded[b] = bh::proto::encode_post(batches[b]);
      return 64u;
    });
    for (std::size_t b = 0; b < batches.size(); ++b) {
      encoded[b] = bh::proto::encode_post(batches[b]);
      const auto back = bh::proto::decode_post(encoded[b]);
      if (!back || *back != batches[b]) {
        r.check_failed("proto::decode_post did not invert encode_post");
        break;
      }
    }
    std::size_t decoded = 0;
    const auto per_dec = replay(
        spans, kDecode, 1, each, 3, [&](int, std::uint64_t k) {
      const auto ups = bh::proto::decode_post(encoded[k % encoded.size()]);
      decoded += ups ? ups->size() : 0;
      return 64u;
    });
    if (decoded == 0) r.check_failed("proto::decode_post decoded nothing");
    r.layers.set("proto.encode_ns", median_ns(per_enc), "ns");
    r.layers.set("proto.decode_ns", median_ns(per_dec), "ns");
  }

  // --- pooled http_call to an origin of its own (the workload's origin
  // counters stay untouched), one span per exchange ---
  {
    bh::proxy::OriginServer origin;
    bh::proxy::ConnectionPool pool;
    bh::proxy::CallOptions opts;
    opts.deadline_seconds = 5.0;
    bool ok = true;
    const auto per_call = replay(
        spans, kOriginExchange, 1, each, 5, [&](int, std::uint64_t k) {
      bh::proxy::HttpRequest req;
      req.method = "GET";
      const std::uint32_t size = std::min<std::uint32_t>(size_at(k), 4u << 20);
      req.target = bh::proxy::object_path(id_at(k), size);
      const auto resp = bh::proxy::http_call(pool, origin.port(), req, opts);
      ok &= resp && resp->status == 200 && resp->body.size() == size;
      return 1u;
    });
    origin.stop();
    if (!ok) r.check_failed("origin exchange failed during the layer replay");
    r.layers.set("proxy.origin_exchange_ms.p50", median(per_call) * 1e3, "ms");
  }

  // --- DiskStore put / get_body at the workload's sizes ---
  {
    bh::cache::DiskStore::Options dopts;
    dopts.root = scratch_dir + "/disk_store";
    dopts.capacity_bytes = 256ULL << 20;
    dopts.fsync_writes = false;
    bh::cache::DiskStore disk(dopts);
    // Up to 256 distinct objects (about 24 MB at most), each put at least
    // once before the reads.
    std::vector<std::pair<ObjectId, std::string>> objects;
    std::uint64_t bytes = 0;
    for (const std::size_t i : distinct) {
      if (bytes > (24u << 20) || objects.size() >= 256) break;
      const std::uint32_t size = std::min<std::uint32_t>(in.sizes[i], 4u << 20);
      objects.emplace_back(in.ids[i], bh::proxy::origin_body(in.ids[i], 1, size));
      bytes += size;
    }
    bool ok = true;
    const auto per_put = replay(spans, kDiskPut, 1, each, int(objects.size()),
                                [&](int, std::uint64_t k) {
      const auto& [id, body] = objects[k % objects.size()];
      ok &= disk.put(id, body);
      return 1u;
    });
    const auto per_get = replay(
        spans, kDiskGet, 1, each, 3, [&](int, std::uint64_t k) {
      const auto& [id, body] = objects[(k * 7) % objects.size()];
      const auto got = disk.get_body(id);
      ok &= got && got->size() == body.size();
      return 1u;
    });
    if (!ok) r.check_failed("DiskStore put/get_body failed during the layer replay");
    r.layers.set("cache.disk_store.put_us", median(per_put) * 1e6, "us");
    r.layers.set("cache.disk_store.get_body_us", median(per_get) * 1e6, "us");
  }

  // --- simulator modules on the same stream ---
  {
    std::uint64_t fired = 0;
    const auto per_event = replay(
        spans, kEventQueue, 1, each, 3, [&](int, std::uint64_t k) {
      bh::sim::EventQueue q;
      const double base =
          in.times.empty() ? 0.0 : in.times[(k * 1024) % in.times.size()];
      for (std::uint32_t j = 0; j < 1024; ++j) {
        const std::size_t i = (k * 1024 + j) % n;
        const double t = in.times.empty() ? double(j) : in.times[i] - base;
        q.schedule_at(std::max(0.0, t), [&fired](bh::SimTime) { ++fired; });
      }
      q.run_all();
      return 1024u;
    });
    if (fired == 0) r.check_failed("EventQueue ran no events");
    r.layers.set("sim.event_queue.op_ns", median_ns(per_event), "ns");

    std::uint64_t distinct_bytes = 0;
    for (const std::size_t i : distinct) distinct_bytes += in.sizes[i];
    bh::cache::LruCache lru(std::max<std::uint64_t>(distinct_bytes / 4, 1 << 20));
    const auto per_access = replay(
        spans, kLruAccess, 1, each, 3, [&](int, std::uint64_t k) {
      for (std::uint32_t j = 0; j < 1024; ++j) {
        const std::uint64_t i = k * 1024 + j;
        if (lru.find(id_at(i)) == nullptr) lru.insert(id_at(i), size_at(i), 1, false);
      }
      return 1024u;
    });
    r.layers.set("cache.lru_cache.access_ns", median_ns(per_access), "ns");

    const bh::net::HierarchyTopology topo(16, 4, 1);
    bh::sim::EventQueue q;
    bh::hints::MetadataHierarchy meta(topo, {}, q);
    auto node_at = [&](std::uint64_t i) {
      return bh::NodeIndex((in.clients.empty() ? i : in.clients[i % n]) % 16);
    };
    const auto per_inform = replay(
        spans, kInform, 1, each, 3, [&](int, std::uint64_t k) {
      for (std::uint32_t j = 0; j < 256; ++j) {
        const std::uint64_t i = k * 256 + j;
        meta.inform(node_at(i), id_at(i));
      }
      return 256u;
    });
    std::uint64_t nearest = 0;
    const auto per_find = replay(
        spans, kFindNearest, 1, each, 3, [&](int, std::uint64_t k) {
      for (std::uint32_t j = 0; j < 256; ++j) {
        const std::uint64_t i = k * 256 + j;
        nearest += meta.find_nearest((node_at(i) + 1) % 16, id_at(i)).has_value();
      }
      return 256u;
    });
    if (nearest == 0) r.check_failed("MetadataHierarchy::find_nearest found nothing");
    r.layers.set("hints.metadata_hierarchy.inform_ns", median_ns(per_inform), "ns");
    r.layers.set("hints.metadata_hierarchy.find_nearest_ns", median_ns(per_find), "ns");
  }
}

}  // namespace pb
