// perfbench: the repository benchmark.
//
//   perfbench --workload <hot_hits|coop_churn|sim_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//   perfbench --self-test [--workdir <dir>]
//
// Prints a run stamp line, then as the last line of stdout one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {...}} with every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1). An
// untraced run's stamp also carries the few per-layer figures it measured
// (wall-clock rates, host deltas); a traced run's stamp names the per-layer
// metrics the workload has no layer for, which print as 0.
// Exits non-zero, printing no result, when the run cannot be set up.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "proxy/origin_server.h"

namespace pb {
namespace {

struct WorkloadEntry {
  const char* name;
  void (*run)(const Args&, Result&);
};
constexpr WorkloadEntry kWorkloads[] = {
    {"hot_hits", run_hot_hits},
    {"coop_churn", run_coop_churn},
    {"sim_sweep", run_sim_sweep},
};

// Runs one workload and fills in the metrics it must report.
void run_workload(const Args& args, Result& r) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (args.workload != w.name) continue;
    w.run(args, r);
    if (args.trace) {
      // Layers a workload does not have (daemon counters under sim_sweep,
      // sweep jobs under the daemon workloads) report 0, and the stamp names
      // them.
      std::string absent;
      for (const MetricDef& d : layer_metric_defs()) {
        if (r.layers.has(d.name)) continue;
        r.layers.set(d.name, 0.0, d.unit);
        absent += (absent.empty() ? "" : ",") + d.name;
      }
      r.stamp["not_applicable"] = absent;
    } else {
      for (const MetricDef& d : e2e_metric_defs()) {
        if (!r.e2e.has(d.name)) r.check_failed("metric not measured: " + d.name);
      }
    }
    return;
  }
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string result_json(const Args& args, const Result& r) {
  return std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": " +
         (args.trace ? r.layers.to_json() : r.e2e.to_json()) + "}";
}

std::string stamp_json(const Args& args, const Result& r) {
  std::string out = "{\"stamp\": {\"workload\": " + json_string(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed);
  for (const auto& [k, v] : r.stamp) {
    out += ", " + json_string(k) + ": " + json_string(v);
  }
  if (!args.trace) {
    for (const auto& [name, vu] : r.layers.values()) {
      out += ", " + json_string(name) + ": " + json_string(std::to_string(vu.first));
    }
  }
  return out + "}}";
}

// --- self-test -------------------------------------------------------------

int expect(bool ok, const char* what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what);
  return ok ? 0 : 1;
}

// The checker must accept the right bytes and name id, version and offset
// for every wrong one.
int checker_tests() {
  int bad = 0;
  const bh::ObjectId id{0x1234567890abcdefULL}, other{0x0fedcba987654321ULL};
  const std::size_t size = 3000;
  const std::string good = bh::proxy::origin_body(id, 1, size);
  bad += expect(verify_body(id, size, good, 1, 1).ok, "accepts the origin body");
  const std::string odd = bh::proxy::origin_body(id, 1, 13);
  bad += expect(verify_body(id, 13, odd, 1, 1).ok,
                "accepts a body that is not a whole number of words");

  std::string corrupt = good;
  corrupt[1234] ^= 0x40;
  const Verdict c = verify_body(id, size, corrupt, 1, 1);
  bad += expect(!c.ok && c.error.find("offset=1234") != std::string::npos &&
                    c.error.find("id=1234567890abcdef") != std::string::npos &&
                    c.error.find("version=1") != std::string::npos,
                "rejects a corrupted body, naming id, version and offset");

  std::string tail = odd;
  tail[12] ^= 0x01;
  const Verdict t = verify_body(id, 13, tail, 1, 1);
  bad += expect(!t.ok && t.error.find("offset=12") != std::string::npos,
                "rejects a corrupted last byte");

  const std::string short_body = good.substr(0, size - 1);
  const Verdict s = verify_body(id, size, short_body, 1, 1);
  bad += expect(!s.ok && s.error.find("offset=2999") != std::string::npos,
                "rejects a wrong-size body");
  const std::string long_body = good + "x";
  bad += expect(!verify_body(id, size, long_body, 1, 1).ok,
                "rejects an over-long body");

  const std::string wrong_id = bh::proxy::origin_body(other, 1, size);
  bad += expect(!verify_body(id, size, wrong_id, 1, 1).ok,
                "rejects another id's body");

  const std::string v2 = bh::proxy::origin_body(id, 2, size);
  const Verdict stale = verify_body(id, size, v2, 3, 3);
  bad += expect(stale.ok && stale.stale && stale.matched == 2,
                "accepts an older version as a stale read");
  const Verdict fresh = verify_body(id, size, v2, 2, 3);
  bad += expect(fresh.ok && !fresh.stale, "version at send time is not stale");
  const std::string v4 = bh::proxy::origin_body(id, 4, size);
  bad += expect(!verify_body(id, size, v4, 3, 3).ok,
                "rejects a version newer than the origin's");

  bad += expect(parse_outcome("SIBLING") == Outcome::kSibling &&
                    !parse_outcome("BOGUS") && !parse_outcome(""),
                "X-Cache must be HIT, DISK, SIBLING or MISS");
  return bad;
}

// A tiny-size run of every workload, untraced and traced.
int smoke_tests(const std::string& workdir) {
  int bad = 0;
  for (const WorkloadEntry& w : kWorkloads) {
    for (const bool trace : {false, true}) {
      Args args;
      args.workload = w.name;
      args.seed = 7;
      args.seconds = 1.0;
      args.trace = trace;
      args.smoke = true;
      args.workdir = workdir;
      Result r;
      std::string why;
      try {
        run_workload(args, r);
      } catch (const std::exception& e) {
        why = e.what();
      }
      for (const std::string& e : r.errors()) why += (why.empty() ? "" : "; ") + e;
      const bool ok = why.empty() && r.correct() && r.attempted > 0 && r.failed == 0;
      const std::string what = std::string("smoke ") + w.name +
                               (trace ? " --trace 1" : " --trace 0") +
                               (why.empty() ? "" : ": " + why);
      bad += expect(ok, what.c_str());
    }
  }
  return bad;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  // A peer closing mid-write must surface as an error, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);

  Args args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i], value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--self-test" && i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--self-test") {
      self_test = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "perfbench: bad value for %s: '%s'\n", key.c_str(),
                   value.c_str());
      return 2;
    }
  }

  if (self_test) {
    std::printf("checker:\n");
    int bad = checker_tests();
    std::printf("smoke runs:\n");
    bad += smoke_tests(args.workdir);
    std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
    return bad == 0 ? 0 : 1;
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
    return 2;
  }

  Result r;
  try {
    run_workload(args, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& e : r.errors()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n%s\n", stamp_json(args, r).c_str(), result_json(args, r).c_str());
  return 0;
}
