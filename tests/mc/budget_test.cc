// Budget, watchdog, degradation, and verdict tests: the fail-safe layer
// that turns "the DFS runs forever / OOMs / aborts" into an inconclusive
// verdict with coverage numbers (or a sampled counterexample).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "mc/atomic.h"
#include "mc/engine.h"
#include "mc/sync.h"

namespace cds::mc {
namespace {

// A single execution that runs much longer than the wall budget: the
// deadline must trip *inside* the execution (via the periodic step check),
// not only between executions.
TEST(Budget, DeadlineTripsMidExecution) {
  Config cfg;
  cfg.time_budget_seconds = 0.05;
  cfg.max_steps = 100'000'000;
  cfg.collect_trace = false;
  cfg.sample_executions = 8;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    // Loads, not stores: loads are visible steps but do not grow the
    // location history, so the execution is long yet memory-flat.
    int sink = 0;
    for (int i = 0; i < 50'000'000; ++i) sink += a->load(MemoryOrder::relaxed);
    (void)sink;
  });
  EXPECT_TRUE(stats.hit_time_budget);
  EXPECT_GE(stats.pruned_bound, 1u);
  EXPECT_EQ(stats.feasible, 0u);
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);
  EXPECT_FALSE(stats.exhausted);
  // The budget is a hard ceiling, not a suggestion: the mid-execution
  // check keeps a single monster execution from overshooting by much.
  EXPECT_LT(stats.seconds, 2.0);
}

// Starve the DFS phase entirely (fraction 0) so only the first canonical
// execution runs exhaustively; that execution satisfies the assertion, but
// random-walk sampling flips the store order about half the time and must
// find the seeded violation.
TEST(Budget, SamplingFindsSeededViolationAfterDegradation) {
  Config cfg;
  cfg.time_budget_seconds = 30.0;  // generous; the DFS share is zero
  cfg.dfs_budget_fraction = 0.0;
  cfg.sample_executions = 512;
  cfg.seed = 42;
  Engine e(cfg);
  TestFn body = [](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    int t1 = x.spawn([a] { a->store(1, MemoryOrder::relaxed); });
    int t2 = x.spawn([a] { a->store(2, MemoryOrder::relaxed); });
    x.join(t1);
    x.join(t2);
    // Schedule-dependent: fails whenever t1's store lands last. The DFS's
    // first (canonical, thread-order) execution passes.
    model_assert(a->load(MemoryOrder::relaxed) == 2, "t2 must win");
  };
  auto stats = e.explore(body);
  EXPECT_TRUE(stats.hit_time_budget);  // the zero-width DFS deadline
  EXPECT_GT(stats.sampled, 0u);
  EXPECT_GT(stats.violations_total, 0u);
  EXPECT_EQ(stats.verdict, Verdict::kFalsified);
  EXPECT_EQ(stats.seed, 42u);
  EXPECT_GT(stats.max_trail_depth, 0u);  // coverage depth was tracked

  // Same seed, same config => bit-identical degraded run.
  Engine e2(cfg);
  auto replay = e2.explore(body);
  EXPECT_EQ(replay.sampled, stats.sampled);
  EXPECT_EQ(replay.violations_total, stats.violations_total);
}

// Allocation accounting: an execution that grows the arena past the cap is
// cut short, the exploration degrades, and the verdict is inconclusive.
TEST(Budget, MemoryBudgetDegradesToSampling) {
  Config cfg;
  cfg.memory_budget_bytes = 1u << 20;  // 1 MB
  cfg.sample_executions = 4;
  cfg.collect_trace = false;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    for (int i = 0; i < 200; ++i) {
      x.make<std::array<char, 64 * 1024>>();  // 64 KB per visible op
      a->store(i, MemoryOrder::relaxed);
    }
  });
  EXPECT_TRUE(stats.hit_memory_budget);
  EXPECT_EQ(stats.sampled, 4u);
  EXPECT_GE(stats.pruned_bound, 1u);
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);
}

// Regression: memory_usage_estimate() must count the heap storage behind
// each message's `sync` timestamps and the live release-sequence heads,
// not just the inline Message bytes. This body makes that storage
// dominate: thousands of padding locations inflate the writer's coherence
// view, so every release store snapshots a ~4096-entry view into the new
// message's sync (and again into its release-sequence head) -- roughly
// 32 KB of heap per store against ~90 inline bytes. Before the fix the
// estimate saw only the inline bytes (well under this budget) and the cap
// never tripped.
TEST(Budget, MemoryBudgetSeesReleaseSequenceSyncStorage) {
  Config cfg;
  cfg.memory_budget_bytes = 1u << 19;  // 512 KB
  cfg.sample_executions = 0;
  cfg.collect_trace = false;
  cfg.max_executions = 1;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    Atomic<int>* last = nullptr;
    for (int i = 0; i < 4096; ++i) last = x.make<Atomic<int>>(0, "pad");
    for (int i = 0; i < 256; ++i) last->store(i, MemoryOrder::release);
  });
  EXPECT_TRUE(stats.hit_memory_budget);
  EXPECT_GE(stats.pruned_bound, 1u);
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);
}

// Two spinners that can never be released: every execution is pruned as a
// livelock, so the DFS makes no feasible progress and the watchdog must
// fire (and degradation must still terminate).
TEST(Budget, WatchdogFiresOnNoProgressDfs) {
  Config cfg;
  cfg.watchdog_no_progress_execs = 2;
  cfg.sample_executions = 8;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    auto* b = x.make<Atomic<int>>(0, "b");
    int t1 = x.spawn([&x, a, b] {
      b->store(1, MemoryOrder::relaxed);
      while (a->load(MemoryOrder::relaxed) == 0) x.yield();
    });
    int t2 = x.spawn([&x, a, b] {
      b->store(2, MemoryOrder::relaxed);
      while (a->load(MemoryOrder::relaxed) == 0) x.yield();
    });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_TRUE(stats.watchdog_fired);
  EXPECT_GE(stats.pruned_livelock, 2u);
  EXPECT_EQ(stats.feasible, 0u);
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);
}

// Overflowing the modeled-thread limit used to abort the whole process;
// now it fails only the offending execution as an engine-fatal diagnostic,
// which taints the verdict but never counts as a property violation.
TEST(Budget, ThreadLimitOverflowIsRecoverable) {
  Config cfg;
  cfg.max_threads = 3;  // root + 2
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    // A bounded array: the overflowing spawn abandons the execution
    // mid-body, and an abandoned fiber stack never runs destructors.
    int tids[6] = {};
    for (int i = 0; i < 6; ++i)
      tids[i] = x.spawn([a] { a->store(1, MemoryOrder::relaxed); });
    for (int t : tids) x.join(t);
  });
  EXPECT_GT(stats.engine_fatal_execs, 0u);
  EXPECT_EQ(stats.violations_total, 0u);  // diagnostic, not a violation
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);
  // And the process is still alive to run the next exploration.
  Engine e2;
  auto ok = e2.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    a->store(1, MemoryOrder::relaxed);
  });
  EXPECT_EQ(ok.verdict, Verdict::kVerifiedExhaustive);
}

TEST(Budget, MutexUnlockByNonOwnerIsRecoverable) {
  Engine e;
  auto stats = e.explore([](Exec& x) {
    auto* m = x.make<Mutex>("m");
    int t = x.spawn([m] { m->lock(); });  // t ends still holding the lock
    x.join(t);
    m->unlock();  // root never locked it
  });
  EXPECT_GT(stats.engine_fatal_execs, 0u);
  EXPECT_EQ(stats.violations_total, 0u);
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);
}

TEST(Budget, VerdictReflectsExhaustionAndViolations) {
  Engine e;
  auto ok = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    int t = x.spawn([a] { a->store(1, MemoryOrder::release); });
    x.join(t);
    model_assert(a->load(MemoryOrder::acquire) == 1, "joined store visible");
  });
  EXPECT_TRUE(ok.exhausted);
  EXPECT_EQ(ok.sampled, 0u);
  EXPECT_EQ(ok.verdict, Verdict::kVerifiedExhaustive);

  Engine e2;
  auto bad = e2.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    model_assert(a->load(MemoryOrder::relaxed) == 1, "always false");
  });
  EXPECT_GT(bad.violations_total, 0u);
  EXPECT_EQ(bad.verdict, Verdict::kFalsified);
}

// An execution cap (without budgets) is "stopped early", not "proved":
// the verdict must stay inconclusive even though nothing failed.
TEST(Budget, ExecutionCapYieldsInconclusive) {
  Config cfg;
  cfg.max_executions = 2;
  cfg.sample_executions = 0;  // caps do not degrade; the user asked to stop
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    int t1 = x.spawn([a] { a->store(1, MemoryOrder::relaxed); });
    int t2 = x.spawn([a] { a->store(2, MemoryOrder::relaxed); });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_TRUE(stats.hit_execution_cap);
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.sampled, 0u);
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);
}

}  // namespace
}  // namespace cds::mc
