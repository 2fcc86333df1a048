// The daemon half of the benchmark: hot_hits and coop_churn.
//
// Each workload stands up in-process OriginServer/ProxyServer instances on
// ephemeral ports and drives them from four client threads, each holding one
// keep-alive ClientConnection:
//   - an open-loop phase at a fixed offered rate (lab::run_open_loop, latency
//     timed from the scheduled send) gives every end-to-end figure but
//     setup_s, and the per-layer p99;
//   - a closed-loop phase (hot_hits) gives the per-layer throughput and
//     goodput.
// Every 200 body is byte-compared with origin_body(id, v, size(id)), after
// the timed exchange and outside every timed span.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "cache/body.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "lab/openloop.h"
#include "obs/metrics.h"
#include "proxy/http.h"
#include "proxy/origin_server.h"
#include "proxy/proxy_server.h"
#include "trace/generator.h"
#include "trace/workload.h"

namespace pb {
namespace {

using bh::ObjectId;
using bh::Version;
using bh::proxy::OriginServer;
using bh::proxy::ProxyConfig;
using bh::proxy::ProxyServer;

// One client thread per core of the 4-core reference machine; each holds
// one keep-alive connection for the whole run.
constexpr int kClients = 4;
// Setups per run; setup_s is read at kQuietQuantile of their times.
constexpr int kSetupRepeats = 12;
// Per-request budget; a request past it counts as failed.
constexpr double kRequestDeadlineSeconds = 5.0;
// Open-loop window: short enough that a run has a few dozen, so the
// fastest ones can be picked (see LoadGen::open).
constexpr double kWindowSeconds = 0.5;
// The open loop's p50 and setup_s are read at this quantile of their samples
// (per-window p50s, setup times): the fastest tenth.
constexpr double kQuietQuantile = 0.1;
// Share of a pass spent in the open loop, whose fixed work gives the
// end-to-end figures; the closed loop (throughput, goodput) gets the rest.
constexpr double kOpenShare = 0.7;

// One GET the benchmark issues.
struct Req {
  ObjectId id;
  std::uint32_t size = 0;
};

// The system under test. Proxies stop before the origin, and the disk tiers'
// directories go last, on every path.
struct Fleet {
  std::vector<std::unique_ptr<TempDir>> dirs;
  std::unique_ptr<OriginServer> origin;
  std::vector<std::unique_ptr<ProxyServer>> proxies;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { stop(); }
  void stop() {
    for (auto& p : proxies) p->stop();
    if (origin) origin->stop();
  }
};

// Sums of the daemons' own counters, read through metrics_snapshot().
struct Scrape {
  std::map<std::string, double> counters;
  double request_ms_count = 0, request_ms_sum = 0;
  double flush_batch_count = 0, flush_batch_sum = 0;
  std::uint64_t invalidations = 0;

  double operator[](const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

Scrape scrape(const Fleet& f) {
  Scrape s;
  for (const auto& p : f.proxies) {
    const bh::obs::MetricsSnapshot snap = p->metrics_snapshot();
    for (const auto& [name, v] : snap.counters) s.counters[name] += double(v);
    if (const auto* h = snap.histogram("bh.proxy.request_ms")) {
      s.request_ms_count += double(h->count());
      s.request_ms_sum += h->sum();
    }
    if (const auto* h = snap.histogram("bh.proxy.flush_batch")) {
      s.flush_batch_count += double(h->count());
      s.flush_batch_sum += h->sum();
    }
  }
  s.invalidations = f.origin->invalidations_sent();
  return s;
}

// Shared state of the client threads for one run.
struct RunCtx {
  Result& r;
  bool versioned = false;     // coop_churn: writes bump versions
  SpanLog* spans = nullptr;   // non-null while a traced phase runs
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> stale{0};
  // CPU time of the client threads (requests, checks, the open-loop
  // driver's pacing), subtracted from the process's to price the servers.
  std::atomic<std::uint64_t> client_cpu_ns{0};
  std::vector<std::vector<ObjectId>> missed{std::size_t(kClients)};

  explicit RunCtx(Result& res) : r(res) {}
  double client_cpu_seconds() const { return double(client_cpu_ns.load()) * 1e-9; }
};

// CPU time the calling thread has run since its last call, or since it
// started on its first call.
std::uint64_t thread_cpu_ns_since_last() {
  thread_local double last = 0;
  const double now = thread_cpu_seconds();
  const double d = now - last;
  last = now;
  return std::uint64_t(std::max(0.0, d) * 1e9);
}

// One client: a keep-alive connection, reopened only after a failure. The
// client span covers the exchange alone; bodies are kept and byte-checked by
// check(), outside every timed span.
class Client {
 public:
  Client(int lane, std::uint16_t port, const OriginServer* origin)
      : lane_(lane), port_(port), origin_(origin) {}

  Outcome get(const Req& rq, RunCtx& ctx) {
    const Version at_send = ctx.versioned ? origin_->version_of(rq.id) : 1;
    const auto start = Clock::now();
    auto resp = exchange(rq);
    const auto end = Clock::now();
    Outcome o = Outcome::kFailed;
    if (resp) {
      const auto x_cache = resp->header("X-Cache");
      const auto outcome = parse_outcome(x_cache.value_or(""));
      if (!outcome) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "bad X-Cache '%s': id=%016llx version=%u offset=0",
                      std::string(x_cache.value_or("<none>")).c_str(),
                      static_cast<unsigned long long>(rq.id.value), at_send);
        ctx.r.check_failed(msg);
      }
      o = outcome.value_or(Outcome::kMiss);
      ctx.bytes.fetch_add(resp->body.size(), std::memory_order_relaxed);
      const Version newest = ctx.versioned ? origin_->version_of(rq.id) : 1;
      received_.push_back({rq, at_send, newest, std::move(resp->body)});
    } else {
      ctx.failed.fetch_add(1, std::memory_order_relaxed);
    }
    ctx.requests.fetch_add(1, std::memory_order_relaxed);
    if (ctx.spans != nullptr) {
      ctx.spans->record(lane_, SpanKind::kClient, std::uint16_t(o), start, end);
      if (o == Outcome::kMiss) ctx.missed[std::size_t(lane_)].push_back(rq.id);
    }
    ctx.client_cpu_ns.fetch_add(thread_cpu_ns_since_last(),
                                std::memory_order_relaxed);
    return o;
  }

  // Byte-checks every body received since the last call.
  void check(RunCtx& ctx) {
    for (const Received& x : received_) {
      const Verdict v =
          verify_body(x.rq.id, x.rq.size, x.body.view(), x.at_send, x.newest);
      if (!v.ok) ctx.r.check_failed(v.error);
      if (v.stale) ctx.stale.fetch_add(1, std::memory_order_relaxed);
    }
    received_.clear();
  }

 private:
  struct Received {
    Req rq;
    Version at_send, newest;
    bh::cache::Body body;
  };

  std::optional<bh::proxy::HttpResponse> exchange(const Req& rq) {
    if (!conn_) {
      conn_ = bh::proxy::ClientConnection::open(port_, 2.0);
      if (!conn_) return std::nullopt;
    }
    bh::proxy::HttpRequest req;
    req.method = "GET";
    req.target = bh::proxy::object_path(rq.id, rq.size);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kRequestDeadlineSeconds));
    auto resp = conn_->exchange(req, deadline, /*keep_alive=*/true);
    if (!resp || resp->status != 200) {
      conn_.reset();
      return std::nullopt;
    }
    if (!conn_->reusable()) conn_.reset();
    return resp;
  }

  int lane_;
  std::uint16_t port_;
  const OriginServer* origin_;
  std::optional<bh::proxy::ClientConnection> conn_;
  std::vector<Received> received_;
};

// A per-client request stream; called only from that client's thread.
using NextFn = std::function<Req(int client)>;

// What one open+closed pass measured. The open loop is a fixed amount of
// work (fixed rate, fixed duration, the same requests on every run), so the
// end-to-end figures come from it; the closed loop's rates are only as
// steady as the host's free CPU.
struct PhaseOut {
  // open loop
  double p50 = 0;             // window p50s at kQuietQuantile
  double p99 = 0;             // over the least-stolen windows, pooled
  double cpu_us_per_req = 0;  // server CPU per request, median window
  double origin_ratio = 0;    // origin GETs per client GET
  double rss_mb = 0;          // peak RSS through the open loop
  double late_p99 = 0;        // generator lateness
  double steal_pct = 0;       // median window's steal
  // closed loop, least-stolen windows' medians
  double rps = 0, mbps = 0;
  std::uint64_t requests = 0;
};

// The measured part of a daemon workload: an open-loop phase then a
// closed-loop phase, sharing the clients and the request streams.
class LoadGen {
 public:
  LoadGen(RunCtx& ctx, Fleet& fleet, const std::vector<std::uint16_t>& ports,
          NextFn next)
      : ctx_(ctx), fleet_(fleet), next_(std::move(next)) {
    for (int c = 0; c < kClients; ++c) {
      clients_.emplace_back(c, ports[std::size_t(c) % ports.size()],
                            fleet.origin.get());
    }
  }

  // Fetches each request once from its client (setup; not timed per call).
  void prefill(const std::vector<std::vector<Req>>& per_client) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (const Req& rq : per_client[std::size_t(c)]) {
          clients_[std::size_t(c)].get(rq, ctx_);
          clients_[std::size_t(c)].check(ctx_);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  // Sends `per_client` requests from each client's stream, closed loop
  // (warm-up; not timed per call).
  void warm(std::size_t per_client) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = 0; i < per_client; ++i) {
          clients_[std::size_t(c)].get(next_(c), ctx_);
          clients_[std::size_t(c)].check(ctx_);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  // Closed loop: every client sends its next request as soon as the last one
  // returns (and is checked). Rates are sampled per window, each with the
  // share of CPU time the host stole during it; the least-stolen windows'
  // median is reported.
  void closed(double seconds, PhaseOut& out) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        while (!stop.load(std::memory_order_relaxed)) {
          clients_[std::size_t(c)].get(next_(c), ctx_);
          clients_[std::size_t(c)].check(ctx_);
        }
      });
    }
    const double window = std::max(0.25, seconds / 20.0);
    std::vector<double> rps, mbps, steal;
    auto t_prev = Clock::now();
    CpuTimes cpu_prev = CpuTimes::read();
    const auto t_end = t_prev + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    std::uint64_t req_prev = ctx_.requests.load(), bytes_prev = ctx_.bytes.load();
    while (t_prev < t_end) {
      std::this_thread::sleep_until(
          std::min(t_end, t_prev + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(window))));
      const auto t = Clock::now();
      const CpuTimes cpu = CpuTimes::read();
      const std::uint64_t req = ctx_.requests.load(), bytes = ctx_.bytes.load();
      const double dt = seconds_between(t_prev, t);
      if (dt > window / 2 && req > req_prev) {
        rps.push_back(double(req - req_prev) / dt);
        mbps.push_back(double(bytes - bytes_prev) / dt / 1e6);
        steal.push_back(CpuTimes::steal_share(cpu_prev, cpu));
      }
      t_prev = t;
      cpu_prev = cpu;
      req_prev = req;
      bytes_prev = bytes;
    }
    stop = true;
    for (auto& t : threads) t.join();
    out.rps = least_stolen_median(rps, steal);
    out.mbps = least_stolen_median(mbps, steal);
  }

  // Open loop at `rate` requests/s in total, as back-to-back schedules of
  // kWindowSeconds each. Each window's p50 comes from run_open_loop's
  // scheduled-send histogram. On a shared VM a hypervisor stall (10-20 ms)
  // slows every request of the window it hits, and neighbours slow whole
  // stretches of a run; interference only ever slows a window, so the p50 is
  // read at the fastest tenth of the windows (kQuietQuantile), the program's
  // own speed. Server CPU per request is the median window's: stolen time is
  // not charged to the process, and a window's CPU varies with the requests
  // it happens to hold (coop_churn's demotions), so its cheapest windows are
  // the lightest, not the quietest. The p99 pools the least-stolen windows'
  // histograms. Bodies are checked between windows.
  void open(double seconds, double rate, PhaseOut& out) {
    bh::lab::OpenLoopOptions opts;
    opts.clients = kClients;
    opts.rate_per_client = rate / kClients;
    opts.duration_seconds = kWindowSeconds;
    const int windows = std::max(1, int(seconds / kWindowSeconds));
    // The generator's own arrival offsets (constant rate), to time lateness.
    std::vector<double> offsets;
    for (double t = 0; t < opts.duration_seconds; t += 1.0 / opts.rate_per_client) {
      offsets.push_back(t);
    }
    std::vector<bh::LatencyHistogram> hists;
    std::vector<double> p50, cpu_us, steal, late;
    std::vector<std::vector<double>> late_by_client(kClients);
    const std::uint64_t req0 = ctx_.requests.load();
    const std::uint64_t origin0 = fleet_.origin->requests_served();
    for (int w = 0; w < windows; ++w) {
      const CpuTimes cpu0 = CpuTimes::read();
      const double server0 = server_cpu_seconds();
      const std::uint64_t window_req0 = ctx_.requests.load();
      const auto t0 = Clock::now();
      const auto res = bh::lab::run_open_loop(opts, [&](int c, std::uint64_t seq) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(offsets[seq]));
        late_by_client[std::size_t(c)].push_back(
            std::max(0.0, ms_between(due, Clock::now())));
        return clients_[std::size_t(c)].get(next_(c), ctx_) != Outcome::kFailed;
      });
      p50.push_back(histogram_quantile(res.latency_ms, 0.50));
      cpu_us.push_back((server_cpu_seconds() - server0) * 1e6 /
                       double(std::max<std::uint64_t>(
                           1, ctx_.requests.load() - window_req0)));
      steal.push_back(CpuTimes::steal_share(cpu0, CpuTimes::read()));
      hists.push_back(res.latency_ms);
      for (Client& c : clients_) c.check(ctx_);
    }
    const double requests =
        double(std::max<std::uint64_t>(1, ctx_.requests.load() - req0));
    out.cpu_us_per_req = median(cpu_us);
    out.origin_ratio =
        double(fleet_.origin->requests_served() - origin0) / requests;
    out.rss_mb = peak_rss_mb();
    out.p50 = quantile(p50, kQuietQuantile);
    bh::LatencyHistogram quiet(0.01, 1.05);
    for (const std::size_t w : least_stolen_indices(steal)) quiet.merge(hists[w]);
    out.p99 = histogram_quantile(quiet, 0.99);
    for (auto& l : late_by_client) late.insert(late.end(), l.begin(), l.end());
    out.late_p99 = quantile(late, 0.99);
    out.steal_pct = 100.0 * median(steal);
  }

  // Open then (unless `open_only`) closed loop, `seconds` in total.
  PhaseOut phases(double seconds, double rate, bool open_only) {
    PhaseOut out;
    const std::uint64_t req0 = ctx_.requests.load();
    open(open_only ? seconds : seconds * kOpenShare, rate, out);
    if (!open_only) closed(seconds * (1 - kOpenShare), out);
    out.requests = ctx_.requests.load() - req0;
    return out;
  }

 private:
  // CPU time of the process outside the client threads: the servers' own.
  double server_cpu_seconds() const {
    return process_cpu_seconds() - ctx_.client_cpu_seconds();
  }

  RunCtx& ctx_;
  Fleet& fleet_;
  NextFn next_;
  std::vector<Client> clients_;
};

// A fleet and the load that drives it: what one measured pass runs on. A
// traced run builds one per pass, so both passes replay the same requests
// from the same state.
struct Rig {
  Fleet fleet;
  std::unique_ptr<LoadGen> load;

  virtual ~Rig() = default;
  // Brings a freshly built rig to the state its passes start from.
  virtual void warm_up() {}
  // The pass's request stream, as the layer replays' input.
  virtual ReplayInput replay_input() const = 0;
  // Workload figures for the result, after a pass.
  virtual void report(Result&) const {}
};
using BuildFn = std::function<std::unique_ptr<Rig>()>;

// Repeated setups, read like the open loop's windows: a setup is a fixed
// amount of work that interference only slows, so the fastest tenth of them
// is reported. The last rig is kept for measuring.
std::unique_ptr<Rig> repeated_setup(const BuildFn& build, Result& r) {
  std::vector<double> times;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = build();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  r.e2e.set("setup_s", quantile(times, kQuietQuantile), "s");
  return rig;
}

void set_e2e(Result& r, const PhaseOut& p) {
  r.e2e.set("p50_ms", p.p50, "ms");
  r.e2e.set("origin_fetch_ratio", p.origin_ratio, "ratio");
  r.e2e.set("peak_rss_mb", p.rss_mb, "MB");
}

// The figures that a shared host moves too much to gate on (see README.md).
// Untraced runs print them in the stamp.
void set_wall_clock(Result& r, const PhaseOut& p) {
  r.layers.set("cpu_us_per_req", p.cpu_us_per_req, "us");
  if (p.rps > 0) {  // a closed loop ran
    r.layers.set("closed_loop.throughput_rps", p.rps, "req/s");
    r.layers.set("closed_loop.goodput_mb_s", p.mbps, "MB/s");
  }
  r.layers.set("open_loop.p99_ms", p.p99, "ms");
  r.layers.set("loadgen.late_p99_ms", p.late_p99, "ms");
  r.stamp["open_loop.median_window_steal_pct"] = std::to_string(p.steal_pct);
}

// Per-layer view of a traced phase: client spans split by outcome, and the
// deltas of the daemons' own counters.
void set_layers(Result& r, RunCtx& ctx, const SpanLog& spans,
                std::uint64_t phase_requests, const Scrape& a, const Scrape& b) {
  std::vector<double> by_outcome[5];
  double sum_ms = 0;
  std::uint64_t n = 0;
  for (const Span& s : spans.collect()) {
    if (s.kind != SpanKind::kClient) continue;
    const double ms = double(s.dur_ns) / 1e6;
    by_outcome[s.label].push_back(ms);
    sum_ms += ms;
    ++n;
  }
  if (n != phase_requests) {
    r.check_failed("client spans (" + std::to_string(n) +
                   ") do not account for the traced requests (" +
                   std::to_string(phase_requests) + ")");
  }
  r.layers.set("lat.hit_ms.p50", quantile(by_outcome[0], 0.5), "ms");
  r.layers.set("lat.hit_ms.p99", quantile(by_outcome[0], 0.99), "ms");
  r.layers.set("lat.disk_ms.p50", quantile(by_outcome[1], 0.5), "ms");
  r.layers.set("lat.sibling_ms.p50", quantile(by_outcome[2], 0.5), "ms");
  r.layers.set("lat.miss_ms.p50", quantile(by_outcome[3], 0.5), "ms");
  static const char* kCountNames[] = {"lat.hit.count", "lat.disk.count",
                                      "lat.sibling.count", "lat.miss.count",
                                      "lat.failed.count"};
  for (int i = 0; i < 5; ++i) {
    r.layers.set(kCountNames[i], double(by_outcome[i].size()), "count");
  }

  auto d = [&](const char* name) { return b[name] - a[name]; };
  const double handler_n = b.request_ms_count - a.request_ms_count;
  const double handler_mean =
      handler_n > 0 ? (b.request_ms_sum - a.request_ms_sum) / handler_n : 0.0;
  r.layers.set("proxy.handler_ms.mean", handler_mean, "ms");
  r.layers.set("proxy.outside_handler_ms.mean",
               n > 0 ? sum_ms / double(n) - handler_mean : 0.0, "ms");

  const double local = d("bh.proxy.local_hits"), sib = d("bh.proxy.sibling_hits");
  const double fp = d("bh.proxy.false_positives"),
               pf = d("bh.proxy.peer_failures");
  const double origin_fetches = d("bh.proxy.origin_fetches");
  r.layers.set("proxy.local_hits", local, "count");
  r.layers.set("proxy.sibling_hits", sib, "count");
  r.layers.set("proxy.false_positives", fp, "count");
  r.layers.set("proxy.origin_fetches", origin_fetches, "count");
  r.layers.set("proxy.peer_failures", pf, "count");
  r.layers.set("proxy.quarantines", d("bh.proxy.quarantines"), "count");
  r.layers.set("hints.useful_ratio",
               sib + fp + pf > 0 ? sib / (sib + fp + pf) : 0.0, "ratio");

  const double sent = d("bh.proxy.updates_sent"),
               coalesced = d("bh.proxy.updates_coalesced");
  r.layers.set("proto.updates_sent", sent, "count");
  r.layers.set("proto.coalesce_ratio",
               sent + coalesced > 0 ? coalesced / (sent + coalesced) : 0.0,
               "ratio");
  const double batches = b.flush_batch_count - a.flush_batch_count;
  r.layers.set("proto.flush_batch.mean",
               batches > 0 ? (b.flush_batch_sum - a.flush_batch_sum) / batches
                           : 0.0,
               "count");
  // Pooled-connection reuses per client request: the daemons do not count
  // their outbound calls (a flush posts once per neighbour per relay depth),
  // so the client request count is the base.
  r.layers.set("proxy.pool_reuse_per_request",
               phase_requests > 0
                   ? d("bh.proxy.pool_reuse") / double(phase_requests)
                   : 0.0,
               "ratio");

  std::unordered_set<std::uint64_t> distinct;
  std::uint64_t misses = 0;
  for (const auto& lane : ctx.missed) {
    for (const ObjectId id : lane) distinct.insert(id.value);
    misses += lane.size();
  }
  r.layers.set("origin.miss_per_object",
               distinct.empty() ? 0.0 : double(misses) / double(distinct.size()),
               "ratio");
  r.layers.set("consistency.invalidations",
               double(b.invalidations - a.invalidations), "count");

  const double queued = d("bh.proxy.demote_queued"),
               dropped = d("bh.proxy.demote_dropped");
  r.layers.set("disk.hits", d("bh.proxy.disk.hits"), "count");
  r.layers.set("disk.promotions", d("bh.proxy.disk.promotions"), "count");
  r.layers.set("disk.demotions", d("bh.proxy.disk.demotions"), "count");
  r.layers.set("disk.demote_shed_ratio",
               queued + dropped > 0 ? dropped / (queued + dropped) : 0.0,
               "ratio");
}

// Runs the measured phases of a daemon workload in the mode `args` asks for,
// on rigs from `build`. With tracing off: one open+closed pass over `seconds`
// sets the e2e metrics. With tracing on: an untraced and a traced pass of a
// quarter each, each on a fresh rig (their difference is the tracing
// overhead), then the layer replays.
void measure(const Args& args, Result& r, RunCtx& ctx, const BuildFn& build,
             double rate, bool open_only) {
  std::unique_ptr<Rig> rig = repeated_setup(build, r);
  rig->warm_up();
  const std::string backend = rig->fleet.proxies.front()->backend_name();
  r.stamp["backend"] = backend;
  r.layers.set("proxy.backend", backend == "io_uring" ? 2.0 : 1.0, "enum");
  const CpuTimes cpu0 = CpuTimes::read();
  if (!args.trace) {
    const PhaseOut p = rig->load->phases(args.seconds, rate, open_only);
    set_e2e(r, p);
    set_wall_clock(r, p);
    stamp_host(r, cpu0, CpuTimes::read());
    rig->report(r);
    return;
  }
  const PhaseOut plain = rig->load->phases(args.seconds / 4, rate, open_only);
  set_wall_clock(r, plain);
  rig.reset();
  rig = build();
  rig->warm_up();
  SpanLog spans;
  const Scrape a = scrape(rig->fleet);
  const std::uint64_t bytes0 = ctx.bytes.load();
  ctx.spans = &spans;
  const PhaseOut traced = rig->load->phases(args.seconds / 4, rate, open_only);
  ctx.spans = nullptr;
  const Scrape b = scrape(rig->fleet);
  stamp_host(r, cpu0, CpuTimes::read());
  rig->report(r);
  set_layers(r, ctx, spans, traced.requests, a, b);
  const double body_bytes = double(ctx.bytes.load() - bytes0);
  r.layers.set("disk.zerocopy_byte_share",
               body_bytes > 0 ? (b["bh.proxy.bytes_zerocopy"] -
                                 a["bh.proxy.bytes_zerocopy"]) / body_bytes
                              : 0.0,
               "ratio");
  if (!open_only) {
    r.layers.set("trace.overhead.throughput_pct",
                 100.0 * (plain.rps - traced.rps) / plain.rps, "%");
  }
  r.layers.set("trace.overhead.p50_ms", traced.p50 - plain.p50, "ms");

  ReplayInput in = rig->replay_input();
  rig.reset();  // the replays run alone
  for (const Span& s : spans.collect()) {
    if (s.kind == SpanKind::kClient && in.latencies_ms.size() < (1u << 16)) {
      in.latencies_ms.push_back(double(s.dur_ns) / 1e6);
    }
  }
  TempDir scratch(args.workdir, args.workload + "-replay");
  run_layer_replays(in, args.seconds / 2, scratch.path(), spans, r);
  spans.write(args.workdir + "/spans-" + args.workload + ".tsv",
              [](const Span& s) -> std::string {
                if (s.kind == SpanKind::kClient) return kOutcomeNames[s.label];
                if (s.kind == SpanKind::kLayer) return layer_span_names()[s.label];
                return std::to_string(s.label);
              });
}

// --- hot_hits' synthetic catalogue -------------------------------------------

// Objects by popularity rank, with size a pure function of the id.
struct Catalog {
  std::vector<ObjectId> ids;
  std::vector<std::uint32_t> sizes;
};

ObjectId make_id(std::uint64_t seed, std::uint64_t salt, std::uint64_t n) {
  const std::uint64_t v = bh::mix64(bh::mix64(seed ^ salt) + n);
  return ObjectId{v == 0 ? 1 : v};  // id 0 is reserved by the hint stores
}

// 0.5-4 KB, uniform in u in [0, 1).
std::uint32_t hot_size(double u) { return 512 + std::uint32_t(u * (4096 - 512)); }

// A catalogue of `n` objects whose ids come from the seed and whose sizes
// come from the popularity rank through a low-discrepancy sequence: every
// seed sees the same mix of sizes at every popularity, so seeds vary the
// inputs without varying the work.
Catalog make_catalog(std::uint64_t seed, std::uint64_t salt, std::size_t n) {
  Catalog c;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = std::fmod(double(i + 1) * 0.6180339887498949, 1.0);
    c.ids.push_back(make_id(seed, salt, i));
    c.sizes.push_back(hot_size(u));
  }
  return c;
}

// Zipf-popular requests over a catalogue. With `cold_every` > 0, every
// cold_every-th request of a client names a never-seen id instead (a
// compulsory miss), so the origin is never idle in a steady state and every
// seed has the same share of them.
class ZipfStreams {
 public:
  ZipfStreams(const Catalog& cat, double exponent, std::uint64_t cold_every,
              std::uint64_t seed)
      : cat_(cat), zipf_(cat.ids.size(), exponent), cold_every_(cold_every),
        seed_(seed) {
    for (int c = 0; c < kClients; ++c) {
      rngs_.emplace_back(bh::mix64(seed ^ (0xC11E47ULL + std::uint64_t(c))));
    }
    seq_.assign(kClients, 0);
  }

  Req next(int c) {
    const std::uint64_t seq = ++seq_[std::size_t(c)];
    if (cold_every_ > 0 && seq % cold_every_ == 0) {
      // A never-seen id; its size is a pure function of the id.
      const ObjectId id = make_id(seed_, 0xC01D0000ULL + std::uint64_t(c), seq);
      return {id, hot_size(double(bh::mix64(id.value) >> 11) * 0x1.0p-53)};
    }
    const std::size_t rank = zipf_.sample(rngs_[std::size_t(c)]);
    return {cat_.ids[rank], cat_.sizes[rank]};
  }

  // The same streams, regenerated, as the replay harness's input.
  ReplayInput replay_input(std::size_t n) const {
    ZipfStreams copy(cat_, zipf_.exponent(), cold_every_, seed_);
    ReplayInput in;
    for (std::size_t i = 0; i < n; ++i) {
      const int c = int(i % kClients);
      const Req rq = copy.next(c);
      in.ids.push_back(rq.id);
      in.sizes.push_back(rq.size);
      in.clients.push_back(std::uint32_t(c));
      in.times.push_back(double(i) * 1e-4);
    }
    return in;
  }

 private:
  const Catalog& cat_;
  bh::ZipfSampler zipf_;
  std::uint64_t cold_every_;
  std::uint64_t seed_;
  std::vector<bh::Rng> rngs_;
  std::vector<std::uint64_t> seq_;
};

// Every catalogue object once, dealt round-robin over the clients.
std::vector<std::vector<Req>> prefill_lists(const Catalog& cat) {
  std::vector<std::vector<Req>> lists(kClients);
  for (std::size_t i = 0; i < cat.ids.size(); ++i) {
    lists[i % kClients].push_back({cat.ids[i], cat.sizes[i]});
  }
  return lists;
}

void finish(Result& r, RunCtx& ctx) {
  r.attempted += ctx.requests.load();
  r.failed += ctx.failed.load();
  r.layers.set("consistency.stale_reads", double(ctx.stale.load()), "count");
}

// --- coop_churn's trace ----------------------------------------------------------

// A seeded, down-scaled DEC trace, split by requesting client over the
// proxies; modify records are kept apart as the write path.
struct Trace {
  std::vector<std::vector<Req>> parts{std::size_t(kClients)};
  std::vector<std::vector<double>> part_times{std::size_t(kClients)};
  std::vector<std::pair<double, ObjectId>> modifies;
  std::uint64_t skipped = 0;
  std::uint64_t working_set = 0;
  double generate_s = 0;
  ReplayInput replay;
};

// The trace's working set, which sizes the proxies' tiers, is that of its
// first kSizingRequests requests. A rig replays them (closed loop, untimed)
// before its pass, so every pass starts with full RAM tiers: the demotions,
// disk hits and promotions of a steady state from its first window.
constexpr std::size_t kSizingRequests = 10000;

Trace make_trace(std::uint64_t seed, double scale) {
  constexpr std::uint32_t kOriginMaxBytes = 4u << 20;  // the origin's cap
  auto params = bh::trace::dec_workload().scaled(scale);
  params.seed = bh::mix64(seed ^ 0xDEC0);
  Trace t;
  const auto t0 = Clock::now();
  const auto records = bh::trace::TraceGenerator(params).generate_all();
  t.generate_s = seconds_between(t0, Clock::now());
  std::unordered_map<std::uint64_t, std::uint32_t> size_of;
  for (const auto& rec : records) {
    if (rec.object.value == 0) {
      throw std::runtime_error("trace produced the reserved object id 0");
    }
    if (rec.type == bh::trace::RecordType::kModify) {
      t.modifies.emplace_back(rec.time, rec.object);
      continue;
    }
    if (rec.uncachable || rec.error) {
      ++t.skipped;
      continue;
    }
    const std::uint32_t size = std::min(rec.size, kOriginMaxBytes);
    const auto [it, fresh] = size_of.emplace(rec.object.value, size);
    if (!fresh && it->second != size) {
      throw std::runtime_error("benchmark bug: object requested at two sizes");
    }
    if (fresh && t.replay.ids.size() < kSizingRequests) t.working_set += size;
    const std::size_t p = rec.client % kClients;
    t.parts[p].push_back({rec.object, size});
    t.part_times[p].push_back(rec.time);
    t.replay.ids.push_back(rec.object);
    t.replay.sizes.push_back(size);
    t.replay.clients.push_back(rec.client);
    t.replay.times.push_back(rec.time);
  }
  for (const auto& part : t.parts) {
    if (part.empty()) {
      throw std::runtime_error("trace too small: a proxy gets no requests");
    }
  }
  return t;
}

// The coop_churn fleet replaying its trace: replay cursors, the trace time
// each client has reached, and the writer thread that turns modify records
// into OriginServer::modify() once the clients' mean trace time passes them.
struct CoopRig : Rig {
  Trace trace;
  std::vector<std::size_t> cursor = std::vector<std::size_t>(kClients, 0);
  std::vector<std::atomic<double>> reached =
      std::vector<std::atomic<double>>(kClients);
  std::atomic<std::uint64_t> wraps{0};
  std::jthread writer;  // declared last: joined before the fleet stops

  Req next(int c) {
    const auto& part = trace.parts[std::size_t(c)];
    std::size_t& k = cursor[std::size_t(c)];
    if (k == part.size()) {
      k = 0;
      wraps.fetch_add(1);
    }
    reached[std::size_t(c)].store(trace.part_times[std::size_t(c)][k],
                                  std::memory_order_relaxed);
    return part[k++];
  }

  void start_writer() {
    for (auto& x : reached) x = 0.0;
    writer = std::jthread([this](std::stop_token stop) {
      std::size_t m = 0;
      while (!stop.stop_requested()) {
        double now = 0;
        for (const auto& x : reached) now += x.load(std::memory_order_relaxed);
        now /= kClients;
        while (m < trace.modifies.size() && trace.modifies[m].first <= now &&
               !stop.stop_requested()) {
          fleet.origin->modify(trace.modifies[m++].second);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  void warm_up() override { load->warm(kSizingRequests / kClients); }
  ReplayInput replay_input() const override { return trace.replay; }
  void report(Result& r) const override {
    r.layers.set("trace.generate_s", trace.generate_s, "s");
    r.layers.set("trace.skipped_records", double(trace.skipped), "count");
    r.stamp["trace.wraps"] = std::to_string(wraps.load());
  }
};

}  // namespace

// hot_hits: one default-config proxy in front of an in-process origin; a
// prefetched 0.5-4 KB catalogue under Zipf(0.8), so almost every request is a
// RAM hit (every 200th request names a never-seen id and goes to the origin).
void run_hot_hits(const Args& args, Result& r) {
  // req/s, fixed (never derived): 500 per client, a tenth of what one
  // client's connection can carry, so a stalled vCPU's backlog drains
  // within a few requests instead of queueing up the rest of the window.
  constexpr double kOfferedRate = 2000.0;
  const std::size_t objects = args.smoke ? 256 : 4096;
  const Catalog cat = make_catalog(args.seed, 0x4017, objects);
  struct HotRig : Rig {
    ZipfStreams streams;
    HotRig(const Catalog& cat, std::uint64_t seed)
        : streams(cat, 0.8, /*cold_every=*/200, seed) {}
    ReplayInput replay_input() const override {
      return streams.replay_input(1 << 16);
    }
  };
  RunCtx ctx(r);
  measure(args, r, ctx,
          [&] {
            auto rig = std::make_unique<HotRig>(cat, args.seed);
            Fleet& f = rig->fleet;
            f.origin = std::make_unique<OriginServer>();
            ProxyConfig cfg;  // defaults: kAuto backend, 8 shards, 8 workers
            cfg.name = "hot";
            cfg.origin_port = f.origin->port();
            f.proxies.push_back(std::make_unique<ProxyServer>(cfg));
            rig->load = std::make_unique<LoadGen>(
                ctx, f, std::vector<std::uint16_t>{f.proxies[0]->port()},
                [s = &rig->streams](int c) { return s->next(c); });
            rig->load->prefill(prefill_lists(cat));
            return rig;
          },
          kOfferedRate, /*open_only=*/false);
  finish(r, ctx);
}

// coop_churn: four proxies in a hint ring replaying a seeded, down-scaled DEC
// trace. Each request goes to its client's proxy (client % 4, one client
// thread per proxy); each modify record becomes OriginServer::modify(). RAM
// per proxy is a third of the working set, so each proxy evicts and demotes
// to a disk tier of its own (fresh directory, no fsync, async demotion) and
// serves disk hits from it by sendfile.
void run_coop_churn(const Args& args, Result& r) {
  constexpr double kOfferedRate = 1000.0;  // req/s, fixed; 250 per client
  const double scale = args.smoke ? 1.0 / 2048 : 1.0 / 224;
  RunCtx ctx(r);
  ctx.versioned = true;
  // Open loop only: a fixed stretch of the trace on every run (a closed loop
  // would replay further the faster the code, changing the mix).
  measure(args, r, ctx,
          [&] {
            auto rig = std::make_unique<CoopRig>();
            rig->trace = make_trace(args.seed, scale);
            // The working set overflows one proxy's RAM but fits in all four;
            // each proxy's disk tier holds it all.
            const std::uint64_t ws =
                std::max<std::uint64_t>(rig->trace.working_set, 3 << 20);
            Fleet& f = rig->fleet;
            f.origin = std::make_unique<OriginServer>();
            std::vector<std::uint16_t> ports;
            for (int i = 0; i < 4; ++i) {
              f.dirs.push_back(std::make_unique<TempDir>(
                  args.workdir, "coop_churn-disk" + std::to_string(i)));
              ProxyConfig cfg;
              cfg.name = "coop" + std::to_string(i);
              cfg.origin_port = f.origin->port();
              cfg.register_with_origin = true;
              cfg.flush_interval_seconds = 0.05;
              cfg.workers = 2;
              cfg.capacity_bytes = ws / 3;
              cfg.disk_path = f.dirs.back()->path();
              cfg.disk_capacity_bytes = ws;
              cfg.disk_fsync = false;
              f.proxies.push_back(std::make_unique<ProxyServer>(cfg));
              ports.push_back(f.proxies.back()->port());
            }
            for (int i = 0; i < 4; ++i) {
              f.proxies[std::size_t(i)]->add_hint_neighbor(ports[std::size_t((i + 1) % 4)]);
              f.proxies[std::size_t(i)]->add_hint_neighbor(ports[std::size_t((i + 3) % 4)]);
            }
            rig->load = std::make_unique<LoadGen>(
                ctx, f, ports, [p = rig.get()](int c) { return p->next(c); });
            rig->start_writer();
            return rig;
          },
          kOfferedRate, /*open_only=*/true);
  finish(r, ctx);
}

}  // namespace pb
