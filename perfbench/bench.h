// Shared pieces of the repository benchmark (perfbench).
//
// One binary runs one named workload from a seed, checks every output, and
// prints a single JSON result line: end-to-end metrics with tracing off, or
// per-layer metrics with tracing on. See perfbench/README.md for the
// workloads, the metric definitions and the per-layer -> end-to-end map.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch root for per-run directories (disk tiers, span dumps); the run
  // creates a fresh subdirectory and removes it on exit.
  std::string workdir = ".bench_build/run";
  // Shrinks every population so a workload finishes in a second or two; set
  // by the self-test's smoke runs. Checks are unchanged.
  bool smoke = false;
};

// Named metrics with units, printed as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void set(const std::string& name, double value, std::string unit) {
    values_[name] = {value, std::move(unit)};
  }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  std::string to_json() const;
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Outcome of one run. Check failures make it incorrect; a request that
// failed at the transport or got a non-200 status counts in `failed`.
class Result {
 public:
  void check_failed(std::string why);
  bool correct() const;
  std::vector<std::string> errors() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;
  Metrics layers;
  // Free-form run stamp (machine shape, backend, host deltas), printed on
  // its own line before the result so a noisy run can be explained.
  std::map<std::string, std::string> stamp;

 private:
  mutable std::mutex mu_;
  bool correct_ = true;
  std::vector<std::string> errors_;  // first few, for the log
  std::uint64_t error_count_ = 0;
};

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v);
// Exact sample quantile (nearest rank) of an unsorted sample.
double quantile(std::vector<double> v, double q);
// Quantile of a LatencyHistogram interpolated inside its bucket, so the value
// moves continuously with the sample instead of snapping to a bucket bound.
double histogram_quantile(const bh::LatencyHistogram& h, double q);

// --- spans ------------------------------------------------------------------

// What a span covers. Spans are recorded only by the benchmark's own code,
// around calls into the program.
enum class SpanKind : std::uint8_t {
  kClient = 0,  // one client request; label = outcome (see kOutcomeNames)
  kLayer = 1,   // one replay batch of a layer call; label = layer index
  kJob = 2,     // one simulator sweep job; label = config index
};

struct Span {
  SpanKind kind = SpanKind::kClient;
  std::uint16_t label = 0;
  std::uint32_t count = 1;  // calls covered (replay batches cover many)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

// In-memory span store with one lane per recording thread (no locking on the
// record path); written out once, when the run ends.
class SpanLog {
 public:
  static constexpr int kLanes = 64;

  SpanLog();
  void record(int lane, SpanKind kind, std::uint16_t label,
              Clock::time_point start, Clock::time_point end,
              std::uint32_t count = 1);
  std::vector<Span> collect() const;
  // Tab-separated dump: kind, label name, count, start_ns, dur_ns.
  void write(const std::string& path,
             const std::function<std::string(const Span&)>& label_name) const;

 private:
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> lanes_;
};

// Client-visible outcome of a GET, by X-Cache.
enum class Outcome : std::uint8_t { kHit, kDisk, kSibling, kMiss, kFailed };
inline constexpr const char* kOutcomeNames[] = {"HIT", "DISK", "SIBLING",
                                                "MISS", "FAILED"};
std::optional<Outcome> parse_outcome(std::string_view x_cache);

// --- response checking ---------------------------------------------------------

// Checks a client-visible body against the origin's deterministic content.
// The proxy caches by id alone, so `size` must be a pure function of the id.
// Any version in [1, newest] is correct (a write may race the read); a
// match older than `at_send` is a stale read, counted and not failed.
struct Verdict {
  bool ok = false;
  bool stale = false;
  bh::Version matched = 0;
  std::string error;  // names the id, the version and the byte offset
};
Verdict verify_body(bh::ObjectId id, std::size_t size, std::string_view body,
                    bh::Version at_send, bh::Version newest);

// --- host ----------------------------------------------------------------------

// Snapshot of /proc/stat's aggregate CPU line (jiffies).
struct CpuTimes {
  std::uint64_t busy = 0, idle = 0, iowait = 0, steal = 0, total = 0;
  static CpuTimes read();
  // Share of all CPU time between two snapshots that the host stole.
  static double steal_share(const CpuTimes& a, const CpuTimes& b);
};

// The samples of `values` taken while the host stole the least CPU time:
// every sample with no steal at all, or else the least-stolen quarter (at
// least three). `steal[i]` is sample i's steal share. Host interference only
// ever slows a run, so this reads the program's own speed through a shared
// machine's noise. The samples must come from a steady state (see
// coop_churn's warm-up): the quietest stretch of a run stands for all of it.
std::vector<std::size_t> least_stolen_indices(const std::vector<double>& steal);
std::vector<double> least_stolen(const std::vector<double>& values,
                                 const std::vector<double>& steal);
inline double least_stolen_median(const std::vector<double>& values,
                                  const std::vector<double>& steal) {
  return median(least_stolen(values, steal));
}
double peak_rss_mb();
// User + system CPU time of this process so far.
double process_cpu_seconds();
// CPU time of the calling thread so far.
double thread_cpu_seconds();
unsigned cores();

// Fills the run stamp common to every workload and the host-delta layer
// metrics (host.cpu_util, host.steal_pct, host.iowait_pct, host.cores).
void stamp_host(Result& r, const CpuTimes& before, const CpuTimes& after);

// A fresh directory removed (recursively) when the object dies.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& name);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- workloads -------------------------------------------------------------------

void run_hot_hits(const Args& args, Result& r);
void run_coop_churn(const Args& args, Result& r);
void run_sim_sweep(const Args& args, Result& r);

// A reported metric: name and unit (BENCHMARK.json says which way is better).
struct MetricDef {
  std::string name;
  std::string unit;
};
// Every end-to-end metric, reported by every workload with tracing off.
const std::vector<MetricDef>& e2e_metric_defs();
// Every per-layer metric, reported by every traced run (0 where a workload
// has no such layer, e.g. daemon counters under sim_sweep).
const std::vector<MetricDef>& layer_metric_defs();

// Inputs the layer-replay harness drives each module with: the workload's
// own request stream.
struct ReplayInput {
  std::vector<bh::ObjectId> ids;        // request stream, in order
  std::vector<std::uint32_t> sizes;     // size(ids[i])
  std::vector<std::uint32_t> clients;   // requesting client per request
  std::vector<double> times;            // request times (seconds), ascending
  std::vector<double> latencies_ms;     // values for the histogram replay
};

// Runs every layer replay within roughly `budget_seconds`, at 1 and at
// cores() threads where the metric asks for both, recording one span per
// replay batch and setting the per-layer metrics.
void run_layer_replays(const ReplayInput& in, double budget_seconds,
                       const std::string& scratch_dir, SpanLog& spans,
                       Result& r);

// Names for SpanKind::kLayer labels.
const std::vector<std::string>& layer_span_names();

}  // namespace pb
