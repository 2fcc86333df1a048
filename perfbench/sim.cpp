// The simulator half of the benchmark: sim_sweep.
//
// One seeded DEC trace is replayed through a fixed grid of six architectures
// under the testbed cost model by core::run_sweep_on, repeatedly, for the
// run's duration. Outputs are checked for determinism (every repeated sweep
// and one serial re-run of a seed-chosen config must give bit-identical
// registry snapshots) and for per-config accounting.
#include <string>
#include <vector>

#include "bench.h"
#include "common/hash.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "obs/export.h"
#include "trace/generator.h"
#include "trace/workload.h"

namespace pb {
namespace {

using bh::core::ExperimentConfig;
using bh::core::ExperimentResult;
using bh::core::SystemKind;

struct GridRow {
  const char* name;
  SystemKind system;
  const char* push;
};

// Fixed grid (never derived from the core count): the three baselines and
// the hint hierarchy without push, with push-half and with adaptive-greedy.
constexpr GridRow kGrid[] = {
    {"hierarchy", SystemKind::kHierarchy, "none"},
    {"directory", SystemKind::kDirectory, "none"},
    {"icp", SystemKind::kIcp, "none"},
    {"hints", SystemKind::kHints, "none"},
    {"hints-push-half", SystemKind::kHints, "push-half"},
    {"hints-adaptive-greedy", SystemKind::kHints, "adaptive-greedy"},
};

std::vector<ExperimentConfig> make_grid(const bh::trace::WorkloadParams& w,
                                        double scale) {
  std::vector<ExperimentConfig> configs;
  for (const GridRow& row : kGrid) {
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.cost_model = "testbed";
    cfg.system = row.system;
    cfg.hints.push_policy = row.push;
    // Space-constrained, as in Figure 10: 5 GB per L1 at full scale.
    const auto cap = std::uint64_t(5.0 * scale * double(1ULL << 30));
    cfg.baseline_node_capacity = cap;
    cfg.hints.l1_capacity = cap;
    configs.push_back(cfg);
  }
  return configs;
}

// Per-config accounting: every recorded request is either a hit at some
// level or a server fetch, and every config saw the same requests.
void check_accounting(const std::vector<ExperimentResult>& results,
                      Result& r) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& m = results[i].metrics;
    const std::string who = std::string(kGrid[i].name) + ": ";
    if (m.requests == 0) r.check_failed(who + "no requests recorded");
    if (m.total_hits() + m.server_fetches != m.requests) {
      r.check_failed(who + "hits + server fetches != requests");
    }
    if (m.hit_bytes > m.bytes_requested) {
      r.check_failed(who + "hit bytes exceed requested bytes");
    }
    if (m.false_positives > m.requests) {
      r.check_failed(who + "more false positives than requests");
    }
    if (results[i].snapshot.counter("bh.core.requests") != m.requests) {
      r.check_failed(who + "registry and metrics disagree on requests");
    }
    if (m.requests != results[0].metrics.requests) {
      r.check_failed(who + "request count differs from " + kGrid[0].name);
    }
  }
}

}  // namespace

void run_sim_sweep(const Args& args, Result& r) {
  const double scale = args.smoke ? 1.0 / 16384 : 1.0 / 512;
  auto params = bh::trace::dec_workload().scaled(scale);
  params.seed = bh::mix64(args.seed ^ 0x51A5);
  const std::vector<ExperimentConfig> configs = make_grid(params, scale);
  const int jobs = int(cores());

  // The setup is the trace generation, timed once before every sweep:
  // setup_s is the median. A generation takes a few milliseconds, and on a
  // shared host how long depends on where it lands (up to 1.7x between
  // stretches of a few hundred milliseconds), so it is sampled through the
  // whole run rather than in one burst at the start. Every generation from
  // the seed must give the same records, which the sweeps' bit-identical
  // snapshots check.
  std::vector<bh::trace::Record> records;
  std::vector<double> setup;
  auto generate = [&] {
    const auto t0 = Clock::now();
    records = bh::trace::TraceGenerator(params).generate_all();
    setup.push_back(seconds_between(t0, Clock::now()));
  };
  generate();

  ReplayInput replay;
  double trace_requests = 0, trace_bytes = 0;
  for (const auto& rec : records) {
    if (rec.type != bh::trace::RecordType::kRequest) continue;
    trace_requests += 1;
    trace_bytes += rec.size;
    replay.ids.push_back(rec.object);
    replay.sizes.push_back(rec.size);
    replay.clients.push_back(rec.client);
    replay.times.push_back(rec.time);
  }
  const double n_configs = double(configs.size());

  // Repeated parallel sweeps for `seconds` (at least `min_sweeps`), each
  // after a trace generation; every sweep must reproduce the first one's
  // snapshots bit for bit.
  std::vector<std::string> reference;
  std::vector<ExperimentResult> first;
  std::vector<double> cpu_us;  // process CPU per simulated request, per sweep
  // With `spans`, each sweep is recorded as one span.
  auto sweeps = [&](double seconds, int min_sweeps, std::vector<double>& wall_ms,
                    std::vector<double>& steal, SpanLog* spans) {
    const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
    while (int(wall_ms.size()) < min_sweeps || Clock::now() < t_end) {
      generate();
      const CpuTimes cpu0 = CpuTimes::read();
      const double process0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      auto results = bh::core::run_sweep_on(records, configs, {jobs});
      const auto t1 = Clock::now();
      if (spans != nullptr) {
        spans->record(0, SpanKind::kJob, std::uint16_t(configs.size()), t0, t1,
                      std::uint32_t(configs.size()));
      }
      wall_ms.push_back(ms_between(t0, t1));
      steal.push_back(CpuTimes::steal_share(cpu0, CpuTimes::read()));
      cpu_us.push_back((process_cpu_seconds() - process0) * 1e6 /
                       (trace_requests * n_configs));
      r.attempted += results.size();
      if (reference.empty()) {
        for (const auto& res : results) {
          reference.push_back(bh::obs::to_json(res.snapshot));
        }
        check_accounting(results, r);
        first = std::move(results);
        continue;
      }
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (bh::obs::to_json(results[i].snapshot) != reference[i]) {
          r.check_failed(std::string(kGrid[i].name) +
                         ": repeated sweep gave a different snapshot");
        }
      }
    }
  };
  // Sweep figures are read over the least-stolen sweeps (see bench.h).
  auto throughput = [&](const std::vector<double>& wall_ms,
                        const std::vector<double>& steal) {
    std::vector<double> rps;
    for (double ms : wall_ms) rps.push_back(trace_requests * n_configs / (ms / 1e3));
    return least_stolen_median(rps, steal);
  };

  const CpuTimes cpu0 = CpuTimes::read();
  std::vector<double> wall_ms, steal;
  sweeps(args.trace ? args.seconds / 4 : args.seconds, args.smoke ? 1 : 3,
         wall_ms, steal, nullptr);
  const std::vector<double> clean_ms = least_stolen(wall_ms, steal);

  // One seed-chosen config re-run serially must match its sweep result.
  const std::size_t pick = std::size_t(args.seed % configs.size());
  const auto serial = bh::core::run_sweep_on(records, {configs[pick]}, {1});
  r.attempted += 1;
  if (bh::obs::to_json(serial.at(0).snapshot) != reference[pick]) {
    r.check_failed(std::string(kGrid[pick].name) +
                   ": serial re-run differs from the parallel sweep");
  }

  double fetches = 0, requests = 0;
  for (const auto& res : first) {
    fetches += double(res.metrics.server_fetches);
    requests += double(res.metrics.requests);
  }
  std::vector<double> goodput;
  for (double ms : wall_ms) {
    goodput.push_back(trace_bytes * n_configs / (ms / 1e3) / 1e6);
  }
  r.e2e.set("p50_ms", quantile(clean_ms, 0.5), "ms");
  r.layers.set("cpu_us_per_req", least_stolen_median(cpu_us, steal), "us");
  r.layers.set("closed_loop.throughput_rps", throughput(wall_ms, steal), "req/s");
  r.layers.set("closed_loop.goodput_mb_s", least_stolen_median(goodput, steal),
               "MB/s");
  r.layers.set("open_loop.p99_ms", quantile(clean_ms, 0.99), "ms");
  r.e2e.set("origin_fetch_ratio", requests > 0 ? fetches / requests : 0.0,
            "ratio");

  if (args.trace) {
    // Traced sweeps: one span around each sweep.
    SpanLog spans;
    std::vector<double> traced_ms, traced_steal;
    sweeps(args.seconds / 4, 1, traced_ms, traced_steal, &spans);
    const double plain = throughput(wall_ms, steal);
    const double traced = throughput(traced_ms, traced_steal);
    r.layers.set("trace.overhead.throughput_pct",
                 plain > 0 ? 100.0 * (plain - traced) / plain : 0.0, "%");
    r.layers.set("trace.overhead.p50_ms",
                 least_stolen_median(traced_ms, traced_steal) -
                     quantile(clean_ms, 0.5),
                 "ms");

    // Each sweep job alone, one span each, for the job times and the
    // sweep's parallel efficiency.
    double job_sum = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto t0 = Clock::now();
      bh::core::run_sweep_on(records, {configs[i]}, {1});
      const auto t1 = Clock::now();
      r.attempted += 1;
      spans.record(0, SpanKind::kJob, std::uint16_t(i), t0, t1);
      const double s = seconds_between(t0, t1);
      job_sum += s;
      r.layers.set(std::string("sim.job_s.") + kGrid[i].name, s, "s");
    }
    r.layers.set("sweep.parallel_efficiency",
                 job_sum / (quantile(clean_ms, 0.5) / 1e3 * double(jobs)),
                 "ratio");
    stamp_host(r, cpu0, CpuTimes::read());
    TempDir scratch(args.workdir, "sim_sweep-replay");
    run_layer_replays(replay, args.seconds / 2, scratch.path(), spans, r);
    spans.write(args.workdir + "/spans-sim_sweep.tsv", [&](const Span& s) {
      if (s.kind == SpanKind::kLayer) return layer_span_names()[s.label];
      return s.label < configs.size() ? std::string(kGrid[s.label].name)
                                      : std::string("sweep");
    });
  } else {
    stamp_host(r, cpu0, CpuTimes::read());
  }
  r.e2e.set("setup_s", median(setup), "s");
  r.layers.set("trace.generate_s", median(setup), "s");
  r.stamp["sim.sweeps"] = std::to_string(wall_ms.size());
  r.stamp["sim.trace_requests"] = std::to_string(std::uint64_t(trace_requests));
  r.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace pb
