// Statistics, spans, host sampling and the metric catalogue of perfbench.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "obs/machine.h"
#include "obs/metrics.h"

namespace pb {

std::string Metrics::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    char num[64];
    // Full precision: a value is printed as measured.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += (first ? "" : ", ");
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  return out + "}";
}

void Result::check_failed(std::string why) {
  std::lock_guard lock(mu_);
  correct_ = false;
  ++error_count_;
  if (errors_.size() < 20) errors_.push_back(std::move(why));
}

bool Result::correct() const {
  std::lock_guard lock(mu_);
  return correct_;
}

std::vector<std::string> Result::errors() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out = errors_;
  if (error_count_ > errors_.size()) {
    out.push_back("... " + std::to_string(error_count_ - errors_.size()) +
                  " more check failure(s)");
  }
  return out;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * double(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, std::size_t(rank) - 1);
  return v[idx];
}

double histogram_quantile(const bh::LatencyHistogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double want = std::max(1.0, q * double(h.count()));
  const auto& counts = h.bucket_counts();
  double seen = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    if (seen + double(counts[b]) >= want) {
      // Bucket b covers (min*g^(b-1), min*g^b]; bucket 0 is (0, min].
      const double hi = h.min_value() * std::exp(h.log_growth() * double(b));
      const double lo =
          b == 0 ? 0.0 : h.min_value() * std::exp(h.log_growth() * double(b - 1));
      const double frac = (want - seen) / double(counts[b]);
      return lo + (hi - lo) * frac;
    }
    seen += double(counts[b]);
  }
  return h.max();
}

SpanLog::SpanLog() : epoch_(Clock::now()), lanes_(kLanes) {}

void SpanLog::record(int lane, SpanKind kind, std::uint16_t label,
                     Clock::time_point start, Clock::time_point end,
                     std::uint32_t count) {
  Span s;
  s.kind = kind;
  s.label = label;
  s.count = count;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - epoch_).count();
  s.dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  lanes_[std::size_t(lane) % lanes_.size()].push_back(s);
}

std::vector<Span> SpanLog::collect() const {
  std::vector<Span> all;
  for (const auto& lane : lanes_) all.insert(all.end(), lane.begin(), lane.end());
  return all;
}

void SpanLog::write(
    const std::string& path,
    const std::function<std::string(const Span&)>& label_name) const {
  std::ofstream out(path, std::ios::trunc);
  out << "kind\tlabel\tcount\tstart_ns\tdur_ns\n";
  static const char* kKinds[] = {"client", "layer", "job"};
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      out << kKinds[int(s.kind)] << '\t' << label_name(s) << '\t' << s.count
          << '\t' << s.start_ns << '\t' << s.dur_ns << '\n';
    }
  }
}

std::optional<Outcome> parse_outcome(std::string_view x_cache) {
  for (int i = 0; i < 4; ++i) {
    if (x_cache == kOutcomeNames[i]) return Outcome(i);
  }
  return std::nullopt;
}

CpuTimes CpuTimes::read() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  if (in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >>
      steal) {
    t.idle = idle;
    t.iowait = iowait;
    t.steal = steal;
    t.busy = user + nice + sys + irq + softirq;
    t.total = t.busy + idle + iowait + steal;
  }
  return t;
}

double CpuTimes::steal_share(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? double(b.steal - a.steal) / double(b.total - a.total)
                           : 0.0;
}

std::vector<std::size_t> least_stolen_indices(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  const std::size_t unstolen =
      std::size_t(std::count(steal.begin(), steal.end(), 0.0));
  order.resize(std::min(order.size(),
                        std::max({unstolen, order.size() / 4, std::size_t(3)})));
  return order;
}

std::vector<double> least_stolen(const std::vector<double>& values,
                                 const std::vector<double>& steal) {
  std::vector<double> kept;
  for (const std::size_t i : least_stolen_indices(steal)) kept.push_back(values[i]);
  return kept;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) { return double(t.tv_sec) + double(t.tv_usec) * 1e-6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

unsigned cores() { return std::max(1u, std::thread::hardware_concurrency()); }

void stamp_host(Result& r, const CpuTimes& before, const CpuTimes& after) {
  const double total = double(after.total - before.total);
  auto share = [&](std::uint64_t a, std::uint64_t b) {
    return total > 0 ? double(a - b) / total : 0.0;
  };
  const double util = share(after.busy, before.busy);
  const double steal = 100.0 * share(after.steal, before.steal);
  const double iowait = 100.0 * share(after.iowait, before.iowait);
  r.layers.set("host.cpu_util", util, "ratio");
  r.layers.set("host.steal_pct", steal, "%");
  r.layers.set("host.iowait_pct", iowait, "%");
  r.layers.set("host.cores", cores(), "count");

  bh::obs::MetricsRegistry reg;
  bh::obs::record_machine_shape(reg);
  const auto snap = reg.snapshot();
  for (const auto& [name, v] : snap.gauges) {
    std::ostringstream s;
    s << v;
    r.stamp[name] = s.str();
  }
  r.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
}

TempDir::TempDir(const std::string& root, const std::string& name) {
  namespace fs = std::filesystem;
  fs::create_directories(root);
  path_ = (fs::path(root) / (name + "-" + std::to_string(::getpid()))).string();
  fs::remove_all(path_);
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

const std::vector<MetricDef>& e2e_metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"origin_fetch_ratio", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metric_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        // figures a shared host moves too much to gate on (see README.md)
        {"cpu_us_per_req", "us"},
        {"closed_loop.throughput_rps", "req/s"},
        {"closed_loop.goodput_mb_s", "MB/s"},
        {"open_loop.p99_ms", "ms"},
        // client spans, split by X-Cache outcome
        {"lat.hit_ms.p50", "ms"},
        {"lat.hit_ms.p99", "ms"},
        {"lat.disk_ms.p50", "ms"},
        {"lat.sibling_ms.p50", "ms"},
        {"lat.miss_ms.p50", "ms"},
        {"lat.hit.count", "count"},
        {"lat.disk.count", "count"},
        {"lat.sibling.count", "count"},
        {"lat.miss.count", "count"},
        {"lat.failed.count", "count"},
        // proxy request path
        {"proxy.handler_ms.mean", "ms"},
        {"proxy.outside_handler_ms.mean", "ms"},
        {"proxy.http.parse_ns", "ns"},
        {"obs.histogram.record_ns.t1", "ns"},
        {"obs.histogram.record_ns.tN", "ns"},
        {"cache.sharded_lru.find_ns.t1", "ns"},
        {"cache.sharded_lru.find_ns.tN", "ns"},
        // metadata path
        {"hints.lookup_ns.tN", "ns"},
        {"hints.apply_batch_ns", "ns"},
        {"proto.encode_ns", "ns"},
        {"proto.decode_ns", "ns"},
        {"proxy.origin_exchange_ms.p50", "ms"},
        {"proxy.local_hits", "count"},
        {"proxy.sibling_hits", "count"},
        {"proxy.false_positives", "count"},
        {"proxy.origin_fetches", "count"},
        {"proxy.peer_failures", "count"},
        {"proxy.quarantines", "count"},
        {"hints.useful_ratio", "ratio"},
        {"proto.coalesce_ratio", "ratio"},
        {"proto.flush_batch.mean", "count"},
        {"proto.updates_sent", "count"},
        {"proxy.pool_reuse_per_request", "ratio"},
        {"origin.miss_per_object", "ratio"},
        {"consistency.invalidations", "count"},
        {"consistency.stale_reads", "count"},
        // disk tier
        {"disk.hits", "count"},
        {"disk.promotions", "count"},
        {"disk.demotions", "count"},
        {"disk.demote_shed_ratio", "ratio"},
        {"disk.zerocopy_byte_share", "ratio"},
        {"cache.disk_store.get_body_us", "us"},
        {"cache.disk_store.put_us", "us"},
        // simulator half
        {"trace.generate_s", "s"},
        {"trace.skipped_records", "count"},
        {"sweep.parallel_efficiency", "ratio"},
        {"sim.event_queue.op_ns", "ns"},
        {"cache.lru_cache.access_ns", "ns"},
        {"hints.metadata_hierarchy.inform_ns", "ns"},
        {"hints.metadata_hierarchy.find_nearest_ns", "ns"},
        // run validity
        {"loadgen.late_p99_ms", "ms"},
        {"host.cpu_util", "ratio"},
        {"host.steal_pct", "%"},
        {"host.iowait_pct", "%"},
        {"host.cores", "count"},
        {"proxy.backend", "enum"},
        {"trace.overhead.throughput_pct", "%"},
        {"trace.overhead.p50_ms", "ms"},
    };
    for (const char* job : {"hierarchy", "directory", "icp", "hints",
                            "hints-push-half", "hints-adaptive-greedy"}) {
      d.push_back({std::string("sim.job_s.") + job, "s"});
    }
    return d;
  }();
  return defs;
}

}  // namespace pb
