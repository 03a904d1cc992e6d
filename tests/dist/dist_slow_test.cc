// Slow distributed fault-tolerance test: kill a worker mid-run AND force
// work stealing on the retried shard. One big shard, four workers: the
// first worker is SIGKILLed the moment the shard arrives, the retry lands
// on a survivor, and the idle workers then steal from it — the preempted
// partial result plus the frontier sub-shards must merge to counters
// bit-identical to the serial run. The run's journal is then resumed by
// the --jobs path, which must replay every shard — re-minting the
// stolen shard's sub-shards from its journaled frontier — to the same
// counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dist/chaos.h"
#include "dist/coordinator.h"
#include "fuzz/program.h"
#include "harness/parallel.h"
#include "harness/runner.h"

namespace cds {
namespace {

constexpr const char* kBigShape =
    "litmus v1\n"
    "locations 3\n"
    "t0 store x 1 relaxed\n"
    "t0 store y 1 release\n"
    "t0 load z acquire\n"
    "t1 load y acquire\n"
    "t1 load x relaxed\n"
    "t1 store z 1 release\n"
    "t2 store z 2 release\n"
    "t2 load y acquire\n"
    "t2 store x 3 relaxed\n"
    "t3 load z acquire\n"
    "t3 store x 2 relaxed\n"
    "t3 load y relaxed\n";

TEST(DistSlow, KillAndStealKeepsCountersBitIdentical) {
  fuzz::Program p;
  std::string err;
  ASSERT_TRUE(fuzz::Program::parse(kBigShape, &p, &err)) << err;
  std::vector<std::uint64_t> obs;
  harness::Benchmark b;
  b.name = "kill-and-steal";
  b.display = "Kill-and-steal (synthetic)";
  b.spec = nullptr;
  b.tests.push_back(p.test_fn(&obs));

  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(b, opts);
  ASSERT_TRUE(serial.mc.exhausted);
  const auto expect_serial_counters = [&](const harness::RunResult& m) {
    EXPECT_EQ(m.verdict, mc::Verdict::kVerifiedExhaustive);
    EXPECT_EQ(m.mc.executions, serial.mc.executions);
    EXPECT_EQ(m.mc.feasible, serial.mc.feasible);
    EXPECT_EQ(m.mc.pruned_livelock, serial.mc.pruned_livelock);
    EXPECT_EQ(m.mc.pruned_bound, serial.mc.pruned_bound);
    EXPECT_EQ(m.mc.pruned_redundant, serial.mc.pruned_redundant);
    EXPECT_EQ(m.mc.violations_total, serial.mc.violations_total);
    EXPECT_EQ(m.mc.max_trail_depth, serial.mc.max_trail_depth);
    EXPECT_TRUE(m.mc.exhausted);
  };
  const std::string journal = testing::TempDir() + "kill-and-steal.journal";
  std::remove(journal.c_str());

  dist::DistOptions d;
  d.dist_workers = 4;
  d.max_shards = 1;   // one big shard: everything else must come from
  d.shard_depth = 1;  // stealing its frontier
  d.steal_after_seconds = 0.05;
  d.lease_seconds = 5.0;  // leases are not the mechanism under test here
  d.worker_chaos.kill_on_assignment = 1;  // first worker dies immediately
  d.journal_path = journal;
  dist::DistRunResult r = dist::run_benchmark_distributed(b, opts, d);

  EXPECT_GE(r.retries, 1u) << "the killed worker's shard must be retried";
  EXPECT_GE(r.steals, 1u) << "idle workers must preempt the big shard";
  EXPECT_GE(r.steal_subshards, 1u);
  EXPECT_GT(r.shards, 1u) << "stealing must mint sub-shards";
  EXPECT_EQ(r.failed_shards, 0u);
  expect_serial_counters(r.merged);

  // Same plan, other transport: the fork-pool path resumes the journal.
  harness::ParallelOptions par;
  par.jobs = 4;
  par.max_shards = 1;
  par.shard_depth = 1;
  par.journal_path = journal;
  par.resume = true;
  harness::ParallelRunResult pr = harness::run_benchmark_parallel(b, opts, par);
  ASSERT_TRUE(pr.resume_error.empty()) << pr.resume_error;
  EXPECT_TRUE(pr.resumed);
  EXPECT_EQ(pr.replayed_shards, r.shards)
      << "every shard, minted sub-shards included, must replay";
  EXPECT_EQ(pr.shards, r.shards);
  EXPECT_EQ(pr.crashed_shards, 0u);
  expect_serial_counters(pr.merged);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace cds
