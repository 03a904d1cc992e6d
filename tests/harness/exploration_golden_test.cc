// Exploration-count goldens: the per-benchmark ExplorationStats, spec
// checker counters and choice-point counters of a default run_benchmark,
// in both exploration modes. Hot-path changes to the engine, the clocks or
// the spec checker must leave every one of these bit-identical: a refactor
// that changes a count changed what the checker explores, not just how
// fast. Values were recorded before the allocation-free hot path landed and
// match the per-pass counts perfbench reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "ds/suite.h"
#include "harness/runner.h"

namespace cds {
namespace {

struct Golden {
  const char* bench;
  mc::ExploreMode mode;
  std::uint64_t executions;
  std::uint64_t feasible;
  std::uint64_t pruned_livelock;
  std::uint64_t pruned_redundant;
  std::uint64_t rf_infeasible;
  std::uint64_t histories_checked;
  std::uint64_t justification_checks;
  std::uint64_t schedule_choice_points;
  std::uint64_t rf_choice_points;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << g.bench
            << (g.mode == mc::ExploreMode::kRf ? " (rf)" : " (schedule)");
}

using M = mc::ExploreMode;
constexpr Golden kGoldens[] = {
    {"ms-queue", M::kSchedule, 8909, 1673, 3400, 3836, 0, 4596, 3064, 143347,
     188093},
    {"ms-queue", M::kRf, 3184, 238, 290, 380, 2276, 554, 399, 10520, 62657},
    {"mcs-lock", M::kSchedule, 19035, 5538, 7379, 6118, 0, 5538, 0, 353158,
     208223},
    {"mcs-lock", M::kRf, 28942, 5005, 3048, 1638, 19251, 5005, 0, 288630,
     360444},
    {"ticket-lock", M::kSchedule, 6885, 1385, 3531, 1969, 0, 1385, 0, 75370,
     67144},
    {"ticket-lock", M::kRf, 8951, 1275, 1607, 68, 6001, 1275, 0, 34591,
     101201},
    {"spsc-queue", M::kSchedule, 150, 60, 0, 90, 0, 1142, 223, 901, 749},
    {"spsc-queue", M::kRf, 53, 19, 0, 0, 34, 296, 67, 0, 342},
};

class ExplorationGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ExplorationGolden, CountsAreBitIdentical) {
  const Golden& g = GetParam();
  ds::register_all_benchmarks();
  const harness::Benchmark* b = harness::find_benchmark(g.bench);
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  opts.engine.explore = g.mode;
  const harness::RunResult r = harness::run_benchmark(*b, opts);

  EXPECT_EQ(r.verdict, mc::Verdict::kVerifiedExhaustive);
  EXPECT_EQ(r.mc.executions, g.executions);
  EXPECT_EQ(r.mc.feasible, g.feasible);
  EXPECT_EQ(r.mc.pruned_livelock, g.pruned_livelock);
  EXPECT_EQ(r.mc.pruned_redundant, g.pruned_redundant);
  EXPECT_EQ(r.mc.pruned_bound, 0u);
  EXPECT_EQ(r.mc.rf_infeasible, g.rf_infeasible);
  EXPECT_EQ(r.spec.histories_checked, g.histories_checked);
  EXPECT_EQ(r.spec.justification_checks, g.justification_checks);
  EXPECT_EQ(r.metrics.counter_value("engine.schedule_choice_points"),
            g.schedule_choice_points);
  EXPECT_EQ(r.metrics.counter_value("engine.rf_choice_points"),
            g.rf_choice_points);
  EXPECT_EQ(r.metrics.counter_value("engine.sleep_set_prunes"),
            g.pruned_redundant);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ExplorationGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.bench;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (info.param.mode == M::kRf ? "_rf" : "_schedule");
    });

}  // namespace
}  // namespace cds
