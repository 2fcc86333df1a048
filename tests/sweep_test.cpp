// Parameterized sweeps: the same invariants checked across every workload
// preset, cost model, topology shape, and push policy.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/sweep.h"
#include "net/cost_model.h"
#include "net/topology.h"
#include "placement/placement.h"
#include "trace/generator.h"
#include "trace/stats.h"

namespace bh {
namespace {

// --- every workload preset satisfies the generator contract ---

class WorkloadSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSweep, GeneratorContractHolds) {
  const auto params = trace::workload_by_name(GetParam()).scaled(1.0 / 512.0);
  auto records = trace::TraceGenerator(params).generate_all();
  const auto s = trace::compute_stats(records);
  EXPECT_EQ(s.requests, params.num_requests);
  EXPECT_EQ(s.distinct_objects, params.num_objects);
  SimTime last = 0;
  for (const auto& r : records) {
    ASSERT_LE(last, r.time);
    last = r.time;
  }
}

TEST_P(WorkloadSweep, SharingRaisesHitRates) {
  // Figure 3's qualitative law for every trace: cumulative hit ratio grows
  // with the sharing level.
  core::ExperimentConfig cfg;
  cfg.workload = trace::workload_by_name(GetParam()).scaled(1.0 / 256.0);
  cfg.cost_model = "rousskov-min";
  cfg.system = core::SystemKind::kHierarchy;
  const auto r = core::run_experiment(cfg);
  const auto& c = r.levels;
  ASSERT_GT(c.requests, 0u);
  EXPECT_GT(c.hits[1], 0u);
  EXPECT_GT(c.hits[2], 0u);
  EXPECT_GT(c.hits[3], 0u);
}

TEST_P(WorkloadSweep, HintsNeverLoseToHierarchy) {
  const auto workload = trace::workload_by_name(GetParam()).scaled(1.0 / 256.0);
  const auto records = trace::TraceGenerator(workload).generate_all();
  core::ExperimentConfig cfg;
  cfg.workload = workload;
  cfg.cost_model = "testbed";
  cfg.system = core::SystemKind::kHierarchy;
  const auto hier = core::run_experiment_on(records, cfg);
  cfg.system = core::SystemKind::kHints;
  const auto hints = core::run_experiment_on(records, cfg);
  EXPECT_LT(hints.metrics.mean_response_ms(),
            hier.metrics.mean_response_ms());
}

INSTANTIATE_TEST_SUITE_P(Traces, WorkloadSweep,
                         ::testing::Values("dec", "berkeley", "prodigy"));

// --- every cost model satisfies the structural cost laws ---

class CostModelSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CostModelSweep, StructuralLaws) {
  const auto model = net::make_cost_model(GetParam());
  for (std::uint64_t bytes : {1024u, 10240u, 1048576u}) {
    // Deeper hierarchy hits cost more.
    EXPECT_LE(model->hierarchy_hit(1, bytes), model->hierarchy_hit(2, bytes));
    EXPECT_LE(model->hierarchy_hit(2, bytes), model->hierarchy_hit(3, bytes));
    EXPECT_LE(model->hierarchy_hit(3, bytes), model->hierarchy_miss(bytes));
    // Farther direct accesses cost more.
    EXPECT_LE(model->direct_hit(1, bytes), model->direct_hit(2, bytes));
    EXPECT_LE(model->direct_hit(2, bytes), model->direct_hit(3, bytes));
    // The via-L1 wrap never makes a remote access cheaper than direct.
    for (int d = 2; d <= 3; ++d) {
      EXPECT_GE(model->via_l1_hit(d, bytes), model->direct_hit(d, bytes));
    }
    EXPECT_GE(model->via_l1_miss(bytes), model->direct_miss(bytes));
    // Going through the hierarchy is never cheaper than via-L1 direct.
    EXPECT_GE(model->hierarchy_miss(bytes), model->via_l1_miss(bytes));
    // Control round trips carry no payload: cheaper than a data access.
    for (int d = 1; d <= 3; ++d) {
      EXPECT_LT(model->control_rtt(d), model->direct_hit(d, bytes));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, CostModelSweep,
                         ::testing::Values("testbed", "rousskov-min",
                                           "rousskov-max"));

// --- accounting closes for every architecture ---

class SystemSweep : public ::testing::TestWithParam<core::SystemKind> {};

TEST_P(SystemSweep, SourceAccountingCloses) {
  core::ExperimentConfig cfg;
  cfg.workload = trace::dec_workload().scaled(1.0 / 512.0);
  cfg.cost_model = "rousskov-min";
  cfg.system = GetParam();
  const auto r = core::run_experiment(cfg);
  const auto& m = r.metrics;
  EXPECT_EQ(m.total_hits() + m.server_fetches, m.requests);
  EXPECT_GT(m.requests, 0u);
  EXPECT_GT(m.mean_response_ms(), 0.0);
  EXPECT_EQ(m.latency.count(), m.requests);
  // Quantiles bracket the mean sanely.
  EXPECT_LE(m.latency.quantile(0.0), m.mean_response_ms() * 1.05 + 1);
  EXPECT_GE(m.latency.quantile(1.0), m.mean_response_ms() * 0.95 - 1);
}

TEST_P(SystemSweep, RegistrySnapshotAgreesWithLegacyFields) {
  // Every architecture populates its run registry, and the public result
  // fields (the paper's numbers plus the new tail quantiles) are exactly the
  // registry's view of the run.
  core::ExperimentConfig cfg;
  cfg.workload = trace::dec_workload().scaled(1.0 / 512.0);
  cfg.cost_model = "rousskov-min";
  cfg.system = GetParam();
  const auto r = core::run_experiment(cfg);
  const auto& snap = r.snapshot;
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap.counter("bh.core.requests"), r.metrics.requests);
  EXPECT_EQ(snap.counter("bh.core.server_fetches"), r.metrics.server_fetches);
  EXPECT_EQ(snap.counter("bh.core.hit_bytes"), r.metrics.hit_bytes);
  EXPECT_DOUBLE_EQ(snap.gauge("bh.core.trace_seconds"), r.trace_seconds);

  const auto* hist = snap.histogram("bh.core.response_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), r.metrics.requests);
  EXPECT_DOUBLE_EQ(r.response_p50_ms, hist->quantile(0.5));
  EXPECT_DOUBLE_EQ(r.response_p90_ms, hist->quantile(0.9));
  EXPECT_DOUBLE_EQ(r.response_p99_ms, hist->quantile(0.99));
  EXPECT_LE(r.response_p50_ms, r.response_p90_ms);
  EXPECT_LE(r.response_p90_ms, r.response_p99_ms);
  // The figure means are untouched by the refactor: still computed from the
  // same accumulators the registry was populated from.
  EXPECT_DOUBLE_EQ(r.metrics.mean_response_ms(),
                   snap.gauge("bh.core.total_latency_ms") /
                       double(snap.counter("bh.core.requests")));
}

INSTANTIATE_TEST_SUITE_P(
    Systems, SystemSweep,
    ::testing::Values(core::SystemKind::kHierarchy,
                      core::SystemKind::kDirectory, core::SystemKind::kHints,
                      core::SystemKind::kIcp),
    [](const auto& info) {
      return std::string(core::system_kind_name(info.param));
    });

// --- every push policy helps (or at least never hurts) with infinite disk ---

class PushSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PushSweep, PushNeverHurtsWithInfiniteDisk) {
  const auto workload = trace::dec_workload().scaled(1.0 / 256.0);
  const auto records = trace::TraceGenerator(workload).generate_all();
  core::ExperimentConfig cfg;
  cfg.workload = workload;
  cfg.cost_model = "rousskov-max";
  cfg.system = core::SystemKind::kHints;
  const auto plain = core::run_experiment_on(records, cfg);
  cfg.hints.push_policy = GetParam();
  const auto pushed = core::run_experiment_on(records, cfg);
  // With no space pressure, extra copies can only shorten distances.
  EXPECT_LE(pushed.metrics.mean_response_ms(),
            plain.metrics.mean_response_ms() * 1.002);
  // Hit ratio is not reduced by pushing.
  EXPECT_GE(pushed.metrics.hit_ratio(), plain.metrics.hit_ratio() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PushSweep,
    ::testing::Values("update-push", "push-1", "push-half", "push-all",
                      "push-ideal", "adaptive-greedy"),
    [](const auto& info) {
      return placement::make_policy(info.param)->slug();
    });

// --- topology shapes ---

class TopologySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(TopologySweep, LcaIsSymmetricAndBounded) {
  const auto [num_l1, fanout] = GetParam();
  const net::HierarchyTopology topo(num_l1, fanout, 16);
  for (NodeIndex a = 0; a < num_l1; ++a) {
    for (NodeIndex b = 0; b < num_l1; ++b) {
      const int d = topo.lca_level(a, b);
      ASSERT_EQ(d, topo.lca_level(b, a));
      ASSERT_GE(d, 1);
      ASSERT_LE(d, 3);
      ASSERT_EQ(d == 1, a == b);
    }
  }
}

TEST_P(TopologySweep, HintSystemWorksOnAnyShape) {
  const auto [num_l1, fanout] = GetParam();
  trace::WorkloadParams w = trace::dec_workload().scaled(1.0 / 1024.0);
  w.clients_per_l1 = std::max(1u, w.num_clients / num_l1);
  w.l1_per_l2 = fanout;
  core::ExperimentConfig cfg;
  cfg.workload = w;
  cfg.cost_model = "rousskov-min";
  cfg.system = core::SystemKind::kHints;
  const auto r = core::run_experiment(cfg);
  EXPECT_GT(r.metrics.requests, 0u);
  EXPECT_EQ(r.metrics.total_hits() + r.metrics.server_fetches,
            r.metrics.requests);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologySweep,
                         ::testing::Values(std::make_tuple(4u, 2u),
                                           std::make_tuple(16u, 4u),
                                           std::make_tuple(64u, 8u),
                                           std::make_tuple(30u, 7u)));

// --- golden pin: the six-architecture grid of the sim_sweep benchmark ---
//
// Every architecture's per-request state (LRU indexes, hint stores, metadata
// maps, holder and directory sets, policy state) sits on the simulator's hot
// path, so a container or bookkeeping change there must leave every figure
// bit-identical. These rows were captured from the std::unordered_map
// implementation (DEC trace scaled 1/1024, seed 1313, testbed costs, 5 GB *
// scale per node). Means are exact hex-float literals.

struct GridRow {
  const char* name;
  core::SystemKind system;
  const char* push;
};

constexpr GridRow kGrid[] = {
    {"hierarchy", core::SystemKind::kHierarchy, "none"},
    {"directory", core::SystemKind::kDirectory, "none"},
    {"icp", core::SystemKind::kIcp, "none"},
    {"hints", core::SystemKind::kHints, "none"},
    {"hints-push-half", core::SystemKind::kHints, "push-half"},
    {"hints-adaptive-greedy", core::SystemKind::kHints, "adaptive-greedy"},
};

struct GoldenRow {
  std::string_view name;
  double mean_ms;
  std::uint64_t requests, hits_l1, hits_remote_l2, hits_remote_l3, hits_l2,
      hits_l3, server_fetches, false_positives, false_negatives, pushed_hits,
      hit_bytes;
  // Architecture extras; 0 where an architecture has no such counter.
  std::uint64_t root_updates, meta_messages, copies_pushed, directory_updates,
      icp_queries;

  friend bool operator==(const GoldenRow&, const GoldenRow&) = default;
};

GoldenRow golden_row_of(const char* name, const core::ExperimentResult& r) {
  const core::Metrics& m = r.metrics;
  return {name,
          m.mean_response_ms(),
          m.requests,
          m.hits_l1,
          m.hits_remote_l2,
          m.hits_remote_l3,
          m.hits_l2,
          m.hits_l3,
          m.server_fetches,
          m.false_positives,
          m.false_negatives,
          m.pushed_hits,
          m.hit_bytes,
          r.root_updates,
          r.meta_messages,
          r.push.copies_pushed,
          r.directory_updates,
          r.icp_queries};
}

// The row as a C++ initializer, for the failure message.
std::string golden_literal(const GoldenRow& g) {
  std::ostringstream out;
  out << "{\"" << g.name << "\", " << std::hexfloat << g.mean_ms;
  for (std::uint64_t v :
       {g.requests, g.hits_l1, g.hits_remote_l2, g.hits_remote_l3, g.hits_l2,
        g.hits_l3, g.server_fetches, g.false_positives, g.false_negatives,
        g.pushed_hits, g.hit_bytes, g.root_updates, g.meta_messages,
        g.copies_pushed, g.directory_updates, g.icp_queries}) {
    out << ", " << v << "ull";
  }
  out << "},";
  return out.str();
}

class SweepGridGolden : public ::testing::TestWithParam<int> {};

TEST_P(SweepGridGolden, EveryArchitectureBitIdentical) {
  constexpr double kGridScale = 1.0 / 1024.0;
  auto workload = trace::dec_workload().scaled(kGridScale);
  workload.seed = 1313;
  const auto records = trace::TraceGenerator(workload).generate_all();
  std::vector<core::ExperimentConfig> configs;
  for (const GridRow& row : kGrid) {
    core::ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.cost_model = "testbed";
    cfg.system = row.system;
    cfg.hints.push_policy = row.push;
    const auto cap = std::uint64_t(5.0 * kGridScale * double(1_GB));
    cfg.baseline_node_capacity = cap;
    cfg.hints.l1_capacity = cap;
    configs.push_back(cfg);
  }

  static const GoldenRow kGolden[] = {
      {"hierarchy", 0x1.566a0b1cc4529p+9, 18995ull, 9655ull, 0ull, 0ull, 2166ull, 632ull, 6542ull, 0ull, 0ull, 0ull, 92813263ull, 0ull, 0ull, 0ull, 0ull, 0ull},
      {"directory", 0x1.2ec9722604061p+8, 18995ull, 9655ull, 3876ull, 1307ull, 0ull, 0ull, 4157ull, 0ull, 0ull, 0ull, 116102736ull, 0ull, 0ull, 0ull, 10525ull, 0ull},
      {"icp", 0x1.2f0e36351986bp+9, 18995ull, 9655ull, 3876ull, 0ull, 0ull, 483ull, 4981ull, 0ull, 0ull, 0ull, 108179386ull, 0ull, 0ull, 0ull, 0ull, 72569ull},
      {"hints", 0x1.f674bb5a157dcp+7, 18995ull, 9655ull, 3867ull, 1309ull, 0ull, 0ull, 4164ull, 0ull, 7ull, 0ull, 116074353ull, 4672ull, 96379ull, 0ull, 0ull, 0ull},
      {"hints-push-half", 0x1.e6797804076b9p+7, 18995ull, 10768ull, 2052ull, 1303ull, 0ull, 0ull, 4872ull, 0ull, 402ull, 5535ull, 109265188ull, 8076ull, 178216ull, 11547ull, 0ull, 0ull},
      {"hints-adaptive-greedy", 0x1.e39a1b0ea2246p+7, 18995ull, 10945ull, 2385ull, 1313ull, 0ull, 0ull, 4352ull, 0ull, 171ull, 5240ull, 113954416ull, 6071ull, 130559ull, 8871ull, 0ull, 0ull},
  };

  const auto results = core::run_sweep_on(records, configs, {GetParam()});
  ASSERT_EQ(results.size(), std::size(kGrid));
  ASSERT_EQ(std::size(kGolden), std::size(kGrid));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GoldenRow got = golden_row_of(kGrid[i].name, results[i]);
    EXPECT_TRUE(got == kGolden[i])
        << "pinned: " << golden_literal(kGolden[i])
        << "\nactual: " << golden_literal(got);
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, SweepGridGolden, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bh
