// Checkpoint/resume: render/parse round trip, torn-file rejection, and the
// convergence property — a resumed exploration ends with the exact stats
// and verdict of an uninterrupted one, in-process and across a SIGKILL.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "harness/runner.h"
#include "mc/atomic.h"
#include "mc/checkpoint.h"
#include "mc/engine.h"
#include "mc/trace.h"
#include "support/stats_fill.h"

namespace cds {
namespace {

mc::Checkpoint full_checkpoint() {
  mc::Checkpoint cp;
  cp.test_name = "ms-queue#1";
  cp.test_index = 1;
  cp.config.seed = 0x9e3779b97f4a7c15ull;
  cp.phase = mc::Checkpoint::Phase::kSampling;
  cp.rng_state = 88172645463325252ull;
  cp.elapsed_seconds = 1.25;
  cp.config.stale_read_bound = 5;
  cp.config.max_steps = 4321;
  cp.config.strengthen_to_sc = true;
  cp.config.enable_sleep_sets = false;
  cp.config.explore = mc::ExploreMode::kRf;
  cp.stats = testing_support::distinct_fields<mc::ExplorationStats>(1);
  cp.last_progress_exec = 998;
  cp.violations.push_back(mc::Violation{
      mc::ViolationKind::kDataRace, "read of 'head' races with write by T2",
      17, {}, 0});
  cp.violations.push_back(mc::Violation{
      mc::ViolationKind::kCrash, "SIGSEGV at address 0x10", 23, {}, 1});
  cp.extra.emplace_back("spec.cur.histories_checked", 4200);
  cp.extra.emplace_back("prior.executions", 312);
  cp.trail = {
      mc::Choice{mc::ChoiceKind::kSchedule, 1, 2},
      mc::Choice{mc::ChoiceKind::kReadsFrom, 0, 3},
  };
  return cp;
}

void expect_equal(const mc::Checkpoint& a, const mc::Checkpoint& b) {
  EXPECT_EQ(a.test_name, b.test_name);
  EXPECT_EQ(a.test_index, b.test_index);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.config.stale_read_bound, b.config.stale_read_bound);
  EXPECT_EQ(a.config.max_steps, b.config.max_steps);
  EXPECT_EQ(a.config.strengthen_to_sc, b.config.strengthen_to_sc);
  EXPECT_EQ(a.config.enable_sleep_sets, b.config.enable_sleep_sets);
  EXPECT_EQ(a.config.explore, b.config.explore);
  EXPECT_EQ(testing_support::rows(a.stats), testing_support::rows(b.stats));
  EXPECT_EQ(a.last_progress_exec, b.last_progress_exec);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].kind, b.violations[i].kind) << i;
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail) << i;
    EXPECT_EQ(a.violations[i].execution_index, b.violations[i].execution_index);
    EXPECT_EQ(a.violations[i].test_index, b.violations[i].test_index) << i;
    EXPECT_EQ(mc::render_choices(a.violations[i].trail),
              mc::render_choices(b.violations[i].trail))
        << i;
  }
  ASSERT_EQ(a.extra.size(), b.extra.size());
  for (std::size_t i = 0; i < a.extra.size(); ++i) {
    EXPECT_EQ(a.extra[i], b.extra[i]) << i;
  }
  ASSERT_EQ(a.trail.size(), b.trail.size());
  for (std::size_t i = 0; i < a.trail.size(); ++i) {
    EXPECT_EQ(a.trail[i].kind, b.trail[i].kind) << i;
    EXPECT_EQ(a.trail[i].chosen, b.trail[i].chosen) << i;
    EXPECT_EQ(a.trail[i].num, b.trail[i].num) << i;
  }
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  mc::Checkpoint cp = full_checkpoint();
  mc::Checkpoint back;
  std::string err;
  ASSERT_TRUE(mc::parse_checkpoint(mc::render_checkpoint(cp), &back, &err))
      << err;
  expect_equal(cp, back);
}

TEST(Checkpoint, ViolationDetailAndTrailRoundTripExactly) {
  // Checkpoint violations are the shard-result record: the detail is
  // escaped (not flattened) and the trail rides along.
  mc::Checkpoint cp = full_checkpoint();
  cp.violations.push_back(mc::Violation{
      mc::ViolationKind::kSpecAssertion,
      "postcondition failed\n  at C:\\queue.cc:12\n", 41,
      {mc::Choice{mc::ChoiceKind::kSchedule, 1, 2},
       mc::Choice{mc::ChoiceKind::kReadsFrom, 2, 3},
       mc::Choice{mc::ChoiceKind::kSchedule, 0, 4}},
      1});
  mc::Checkpoint back;
  std::string err;
  ASSERT_TRUE(mc::parse_checkpoint(mc::render_checkpoint(cp), &back, &err))
      << err;
  ASSERT_EQ(back.violations.size(), cp.violations.size());
  EXPECT_EQ(back.violations.back().detail, cp.violations.back().detail);
  EXPECT_EQ(mc::render_choices(back.violations.back().trail),
            "S 1/2\nR 2/3\nS 0/4\n");
  expect_equal(cp, back);
}

TEST(Checkpoint, RoundTripAllPhases) {
  for (auto phase :
       {mc::Checkpoint::Phase::kStart, mc::Checkpoint::Phase::kDfs,
        mc::Checkpoint::Phase::kSampling}) {
    mc::Checkpoint cp = full_checkpoint();
    cp.phase = phase;
    if (phase != mc::Checkpoint::Phase::kDfs) cp.trail.clear();
    mc::Checkpoint back;
    std::string err;
    ASSERT_TRUE(mc::parse_checkpoint(mc::render_checkpoint(cp), &back, &err))
        << mc::to_string(phase) << ": " << err;
    expect_equal(cp, back);
  }
}

TEST(Checkpoint, EveryTruncationIsRejected) {
  // A SIGKILL mid-write can leave any prefix behind (the atomic
  // temp+rename makes that a .tmp, but belt and braces): every
  // line-boundary prefix must be rejected cleanly, never crash or parse.
  std::string text = mc::render_checkpoint(full_checkpoint());
  for (std::size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    std::string prefix = text.substr(0, pos + 1);
    if (prefix.size() == text.size()) break;
    mc::Checkpoint back;
    std::string err;
    EXPECT_FALSE(mc::parse_checkpoint(prefix, &back, &err))
        << "prefix of " << prefix.size() << " bytes was accepted";
    EXPECT_FALSE(err.empty());
  }
  std::string no_end = text.substr(0, text.rfind("end"));
  mc::Checkpoint back;
  std::string err;
  EXPECT_FALSE(mc::parse_checkpoint(no_end, &back, &err));
  EXPECT_NE(err.find("missing 'end' terminator"), std::string::npos) << err;
}

TEST(Checkpoint, CorruptedFieldsAreRejectedWithActionableErrors) {
  const std::string text = mc::render_checkpoint(full_checkpoint());
  auto reject = [&](const std::string& from, const std::string& to,
                    const char* expect_msg) {
    std::string bad = text;
    std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    mc::Checkpoint back;
    std::string err;
    EXPECT_FALSE(mc::parse_checkpoint(bad, &back, &err)) << from;
    EXPECT_NE(err.find(expect_msg), std::string::npos)
        << "'" << from << "' -> '" << to << "': " << err;
  };
  reject("cdsspec-checkpoint v5", "cdsspec-checkpoint v7",
         "unsupported version: 'cdsspec-checkpoint v7'");
  // A stale checkpoint would resume with counters silently zeroed or
  // misread; the version gate turns that into a fresh start.
  reject("cdsspec-checkpoint v5", "cdsspec-checkpoint v4",
         "unsupported version: 'cdsspec-checkpoint v4'");
  reject("cdsspec-checkpoint v5", "cdsspec-checkpoint v3",
         "unsupported version: 'cdsspec-checkpoint v3'");
  reject("phase sampling", "phase lunch", "unknown phase");
  reject("executions=", "exekutions=", "unknown key");
  reject("feasible=", "feasible=nine", "malformed value");
  reject("watchdog=", "watchdog", "malformed entry");
  // A repeated key must not stand in for a missing one.
  reject(" feasible=" + std::to_string(full_checkpoint().stats.feasible),
         " executions=7", "duplicate key 'executions'");
  reject("feasible=", "feasible= ", "malformed value");
  reject("feasible=", "feasible=123456789012345678901", "malformed value");
  reject("max_steps=", "max_steps=-", "malformed value");
  reject("v data-race", "v data-rice", "malformed violation line");
  reject("x prior.executions 312", "x prior.executions", "malformed extra");
  reject("S 1/2", "S 9/2", "out of range");
}

TEST(Checkpoint, MissingStatsKeyIsRejected) {
  const mc::Checkpoint cp = full_checkpoint();
  std::string text = mc::render_checkpoint(cp);
  const std::string sampled = " sampled=" + std::to_string(cp.stats.sampled);
  std::size_t at = text.find(sampled);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, sampled.size());
  mc::Checkpoint back;
  std::string err;
  EXPECT_FALSE(mc::parse_checkpoint(text, &back, &err));
  EXPECT_NE(err.find("missing key 'sampled'"), std::string::npos) << err;
}

TEST(Checkpoint, ExtraHelpersSetAndGet) {
  mc::Checkpoint cp;
  EXPECT_EQ(cp.extra_value("absent", 7), 7u);
  cp.set_extra("spec.histories", 10);
  cp.set_extra("spec.histories", 11);  // overwrite, not append
  EXPECT_EQ(cp.extra.size(), 1u);
  EXPECT_EQ(cp.extra_value("spec.histories"), 11u);
}

TEST(Checkpoint, FingerprintMismatchNamesTheFlag) {
  mc::Config cfg;
  cfg.test_name = "ms-queue#1";
  cfg.seed = 42;
  mc::Checkpoint cp;
  cp.config = mc::ConfigFingerprint::from(cfg);
  EXPECT_EQ(cp.config.mismatch(cfg), "");
  cfg.seed = 43;
  EXPECT_NE(cp.config.mismatch(cfg).find("--seed"), std::string::npos);
  cfg.seed = 42;
  cfg.enable_sleep_sets = !cfg.enable_sleep_sets;
  EXPECT_NE(cp.config.mismatch(cfg).find("sleep_sets"),
            std::string::npos);
  cfg.enable_sleep_sets = !cfg.enable_sleep_sets;
  cfg.explore = mc::ExploreMode::kRf;
  std::string msg = cp.config.mismatch(cfg);
  EXPECT_NE(msg.find("--explore"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'schedule'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'rf'"), std::string::npos) << msg;
}

TEST(Checkpoint, FileIoAtomicWriteAndTornFileRejection) {
  const std::string path = testing::TempDir() + "/checkpoint_test.ckpt";
  mc::Checkpoint cp = full_checkpoint();
  std::string err;
  ASSERT_TRUE(mc::write_checkpoint_file(path, cp, &err)) << err;
  // The atomic write leaves no temp file behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  mc::Checkpoint back;
  ASSERT_TRUE(mc::load_checkpoint_file(path, &back, &err)) << err;
  expect_equal(cp, back);

  // A torn file (e.g. copied off a dying disk) degrades to a parse error
  // that names the file, so the caller can start fresh instead of crash.
  std::string text = mc::render_checkpoint(cp);
  {
    std::ofstream f(path, std::ios::trunc);
    f << text.substr(0, text.size() / 2);
  }
  EXPECT_FALSE(mc::load_checkpoint_file(path, &back, &err));
  EXPECT_NE(err.find(path), std::string::npos) << err;
  std::remove(path.c_str());
  EXPECT_FALSE(mc::load_checkpoint_file(path, &back, &err));
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Resume convergence
// ---------------------------------------------------------------------------

// Three-thread relaxed message-passing cycle: enough schedule and
// reads-from branching for a few hundred executions, all feasible.
void cyclic_body(mc::Exec& x) {
  auto* a = x.make<mc::Atomic<int>>(0, "a");
  auto* b = x.make<mc::Atomic<int>>(0, "b");
  auto* c = x.make<mc::Atomic<int>>(0, "c");
  mc::Atomic<int>* v[3] = {a, b, c};
  int tids[3];
  for (int i = 0; i < 3; ++i) {
    tids[i] = x.spawn([v, i] {
      v[i]->store(1, mc::MemoryOrder::relaxed);
      (void)v[(i + 1) % 3]->load(mc::MemoryOrder::relaxed);
      v[i]->store(2, mc::MemoryOrder::relaxed);
      (void)v[(i + 2) % 3]->load(mc::MemoryOrder::relaxed);
    });
  }
  for (int tid : tids) x.join(tid);
}

void expect_stats_converged(const mc::ExplorationStats& a,
                            const mc::ExplorationStats& b) {
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.pruned_bound, b.pruned_bound);
  EXPECT_EQ(a.pruned_livelock, b.pruned_livelock);
  EXPECT_EQ(a.pruned_redundant, b.pruned_redundant);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.max_trail_depth, b.max_trail_depth);
  EXPECT_EQ(a.violations_total, b.violations_total);
  EXPECT_EQ(a.rf_infeasible, b.rf_infeasible);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.verdict, b.verdict);
}

TEST(Checkpoint, DfsResumeConvergesToUninterruptedStats) {
  const std::string path = testing::TempDir() + "/checkpoint_dfs_resume.ckpt";
  std::remove(path.c_str());

  mc::Config cfg;
  cfg.test_name = "cp-test#0";

  // Baseline: one uninterrupted exhaustive run.
  mc::ExplorationStats base = mc::Engine(cfg).explore(cyclic_body);
  ASSERT_TRUE(base.exhausted);
  ASSERT_EQ(base.verdict, mc::Verdict::kVerifiedExhaustive);
  ASSERT_GE(base.executions, 60u)
      << "body too small to interrupt mid-exploration";

  // Interrupted: stop at the cap, leaving the cadence checkpoint behind
  // (written before the cap check, so it is resumable).
  mc::Config capped = cfg;
  capped.checkpoint_path = path;
  capped.checkpoint_every_execs = 10;
  capped.max_executions = base.executions / 2;
  mc::ExplorationStats partial = mc::Engine(capped).explore(cyclic_body);
  ASSERT_TRUE(partial.hit_execution_cap);
  ASSERT_LT(partial.executions, base.executions);

  mc::Checkpoint cp;
  std::string err;
  ASSERT_TRUE(mc::load_checkpoint_file(path, &cp, &err)) << err;
  EXPECT_EQ(cp.phase, mc::Checkpoint::Phase::kDfs);
  EXPECT_EQ(cp.config.mismatch(cfg), "");
  EXPECT_FALSE(cp.stats.hit_execution_cap)
      << "cadence checkpoints precede the cap decision";

  // Resume without the cap: the run must converge to the baseline exactly.
  mc::Engine resumed(cfg);
  resumed.set_resume(cp);
  mc::ExplorationStats final_stats = resumed.explore(cyclic_body);
  expect_stats_converged(final_stats, base);
  std::remove(path.c_str());
}

TEST(Checkpoint, RfDfsResumeConvergesToUninterruptedStats) {
  const std::string path = testing::TempDir() + "/checkpoint_rf_resume.ckpt";
  std::remove(path.c_str());

  mc::Config cfg;
  cfg.test_name = "cp-rf#0";
  cfg.explore = mc::ExploreMode::kRf;

  mc::ExplorationStats base = mc::Engine(cfg).explore(cyclic_body);
  ASSERT_TRUE(base.exhausted);
  ASSERT_GT(base.feasible, 0u) << "rf mode must complete some executions";

  mc::Config capped = cfg;
  capped.checkpoint_path = path;
  capped.checkpoint_every_execs = 5;
  capped.max_executions = base.executions / 2;
  mc::ExplorationStats partial = mc::Engine(capped).explore(cyclic_body);
  ASSERT_TRUE(partial.hit_execution_cap);

  mc::Checkpoint cp;
  std::string err;
  ASSERT_TRUE(mc::load_checkpoint_file(path, &cp, &err)) << err;
  EXPECT_EQ(cp.config.explore, mc::ExploreMode::kRf);
  EXPECT_EQ(cp.config.mismatch(cfg), "");
  // A schedule-mode run must refuse the rf checkpoint outright.
  mc::Config sched = cfg;
  sched.explore = mc::ExploreMode::kSchedule;
  EXPECT_NE(cp.config.mismatch(sched).find("--explore"),
            std::string::npos);

  // Resume without the cap: bit-identical stats, including the rf
  // counters (the interrupted prefix's counts carry over exactly).
  mc::Engine resumed(cfg);
  resumed.set_resume(cp);
  expect_stats_converged(resumed.explore(cyclic_body), base);
  std::remove(path.c_str());
}

// Sleep-set persistence audit (regression): sleep sets are per-execution
// state rebuilt deterministically while the engine replays the trail
// prefix, so nothing needs checkpointing — but a bug there would surface
// as resumed pruned_redundant drifting from the baseline. Interrupt the
// DFS at EVERY execution index in turn and resume; each resumed run must
// reproduce the baseline counters exactly, on a body where sleep sets
// actually prune (pruned_redundant > 0). "Sweep" routes it to the slow
// label.
TEST(CheckpointSweep, ResumeAtEveryDepthRebuildsSleepSetState) {
  const std::string path = testing::TempDir() + "/checkpoint_sleep_sweep.ckpt";
  mc::Config cfg;
  cfg.test_name = "cp-sleep#0";

  mc::ExplorationStats base = mc::Engine(cfg).explore(cyclic_body);
  ASSERT_TRUE(base.exhausted);
  ASSERT_GT(base.pruned_redundant, 0u)
      << "body must exercise sleep-set pruning for the audit to have teeth";

  // Sample a bounded set of interruption depths: each probe costs a capped
  // run plus a full resume, so probing every depth would be quadratic in
  // the body's execution count.
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, base.executions / 12);
  for (std::uint64_t k = 1; k < base.executions; k += stride) {
    std::remove(path.c_str());
    mc::Config capped = cfg;
    capped.checkpoint_path = path;
    capped.checkpoint_every_execs = 1;
    capped.max_executions = k;
    mc::ExplorationStats partial = mc::Engine(capped).explore(cyclic_body);
    ASSERT_TRUE(partial.hit_execution_cap) << "k=" << k;

    mc::Checkpoint cp;
    std::string err;
    ASSERT_TRUE(mc::load_checkpoint_file(path, &cp, &err))
        << "k=" << k << ": " << err;
    mc::Engine resumed(cfg);
    resumed.set_resume(cp);
    mc::ExplorationStats final_stats = resumed.explore(cyclic_body);
    EXPECT_EQ(final_stats.pruned_redundant, base.pruned_redundant)
        << "k=" << k << ": sleep-set pruning diverged after resume";
    expect_stats_converged(final_stats, base);
  }
  std::remove(path.c_str());
}

// Copies the checkpoint file's text partway through an exploration, so the
// test can resume from a genuinely mid-run snapshot.
class CheckpointSnatcher : public mc::ExecutionListener {
 public:
  CheckpointSnatcher(std::string path, int at) : path_(std::move(path)), at_(at) {}
  bool on_execution_complete(mc::Engine&) override {
    if (++completions_ == at_) {
      std::string err;
      if (!mc::read_text_file(path_, &snatched_, &err)) snatched_.clear();
    }
    return true;
  }
  [[nodiscard]] const std::string& snatched() const { return snatched_; }

 private:
  std::string path_;
  int at_;
  int completions_ = 0;
  std::string snatched_;
};

TEST(Checkpoint, SamplingResumeRestoresRngStream) {
  const std::string path = testing::TempDir() + "/checkpoint_sampling.ckpt";
  std::remove(path.c_str());

  mc::Config cfg;
  cfg.test_name = "cp-sampling#0";
  cfg.sampling_only = true;
  cfg.sample_executions = 120;

  // Baseline: a full uninterrupted sampling run.
  mc::ExplorationStats base = mc::Engine(cfg).explore(cyclic_body);
  ASSERT_EQ(base.sampled, 120u);

  // Instrumented run: snatch the cadence checkpoint mid-walk.
  mc::Config ckpt_cfg = cfg;
  ckpt_cfg.checkpoint_path = path;
  ckpt_cfg.checkpoint_every_execs = 40;
  CheckpointSnatcher snatcher(path, 60);
  mc::Engine instrumented(ckpt_cfg);
  instrumented.set_listener(&snatcher);
  mc::ExplorationStats full = instrumented.explore(cyclic_body);
  expect_stats_converged(full, base);
  ASSERT_FALSE(snatcher.snatched().empty()) << "no checkpoint seen mid-run";

  mc::Checkpoint cp;
  std::string err;
  ASSERT_TRUE(mc::parse_checkpoint(snatcher.snatched(), &cp, &err)) << err;
  EXPECT_EQ(cp.phase, mc::Checkpoint::Phase::kSampling);
  ASSERT_GT(cp.stats.sampled, 0u);
  ASSERT_LT(cp.stats.sampled, 120u);

  // Resuming mid-stream must draw the same remaining random walks: the
  // persisted RNG state, not the seed, decides what comes next.
  mc::Engine resumed(cfg);
  resumed.set_resume(cp);
  mc::ExplorationStats final_stats = resumed.explore(cyclic_body);
  expect_stats_converged(final_stats, base);
  std::remove(path.c_str());
}

#if defined(__unix__) || defined(__APPLE__)

// The end-to-end containment story: a benchmark run SIGKILLed mid-flight
// resumes from its checkpoint and converges to the stats and verdict of an
// uninterrupted run. "Slow" in the suite name routes it to the slow label.
// A run whose budget runs out must leave its checkpoint behind — that is
// the resume use case that needs no kill at all: re-run with a bigger
// budget and --resume, and the exploration continues where it stopped.
// Only a conclusive verdict retires the file.
TEST(Checkpoint, InconclusiveRunKeepsItsCheckpointForResume) {
  const std::string path = testing::TempDir() + "/checkpoint_inconclusive.ckpt";
  std::remove(path.c_str());

  harness::Benchmark bench;
  bench.name = "cp-inconclusive";
  bench.display = "Inconclusive keeps checkpoint (synthetic)";
  bench.spec = nullptr;
  bench.tests.push_back(cyclic_body);

  harness::RunOptions opts;
  harness::RunResult base = harness::run_benchmark(bench, opts);
  ASSERT_EQ(base.verdict, mc::Verdict::kVerifiedExhaustive);
  ASSERT_GE(base.mc.executions, 60u);

  // Cap the run well short of exhaustion: inconclusive, checkpoint kept.
  harness::RunOptions capped = opts;
  capped.engine.max_executions = base.mc.executions / 2;
  capped.engine.checkpoint_every_execs = 10;
  capped.engine.checkpoint_path = path;
  harness::RunResult cut = harness::run_benchmark(bench, capped);
  EXPECT_EQ(cut.verdict, mc::Verdict::kInconclusive);
  ASSERT_TRUE(std::ifstream(path).good())
      << "budget-limited run must keep its checkpoint for --resume";

  // Resume with the cap lifted: converges and retires the checkpoint.
  mc::Checkpoint cp;
  std::string err;
  ASSERT_TRUE(mc::load_checkpoint_file(path, &cp, &err)) << err;
  harness::RunOptions resume_opts = opts;
  resume_opts.engine.checkpoint_every_execs = 10;
  resume_opts.engine.checkpoint_path = path;
  ASSERT_EQ(cp.config.mismatch(resume_opts.engine), "");
  resume_opts.resume = &cp;
  harness::RunResult res = harness::run_benchmark(bench, resume_opts);
  expect_stats_converged(res.mc, base.mc);
  EXPECT_EQ(res.verdict, base.verdict);
  EXPECT_FALSE(std::ifstream(path).good())
      << "conclusive verdict retires the checkpoint";
  std::remove(path.c_str());
}

TEST(CheckpointSlow, KillAndResumeConvergesToBaseline) {
  const std::string path = testing::TempDir() + "/checkpoint_kill_resume.ckpt";
  std::remove(path.c_str());

  harness::Benchmark bench;
  bench.name = "cp-kill-resume";
  bench.display = "Kill+resume (synthetic)";
  bench.spec = nullptr;
  bench.tests.push_back([](mc::Exec& x) {
    // Tiny first test: the kill should land in the second one, so resume
    // also exercises the skip-already-finished-tests path.
    auto* a = x.make<mc::Atomic<int>>(0, "a");
    int t = x.spawn([a] { a->store(1, mc::MemoryOrder::relaxed); });
    (void)a->load(mc::MemoryOrder::relaxed);
    x.join(t);
  });
  bench.tests.push_back(cyclic_body);
  // Repeated rounds multiply the state space so the second test reliably
  // outlives the kill delay; the cap bounds the total runtime either way.
  bench.tests.push_back([](mc::Exec& x) {
    auto* a = x.make<mc::Atomic<int>>(0, "a");
    auto* b = x.make<mc::Atomic<int>>(0, "b");
    int t1 = x.spawn([&] {
      for (int i = 1; i <= 3; ++i) {
        a->store(i, mc::MemoryOrder::relaxed);
        (void)b->load(mc::MemoryOrder::relaxed);
      }
    });
    int t2 = x.spawn([&] {
      for (int i = 1; i <= 3; ++i) {
        b->store(i, mc::MemoryOrder::relaxed);
        (void)a->load(mc::MemoryOrder::relaxed);
      }
    });
    x.join(t1);
    x.join(t2);
  });

  harness::RunOptions opts;
  opts.engine.max_executions = 60000;
  opts.engine.checkpoint_every_execs = 200;

  // Baseline: uninterrupted, no checkpointing.
  harness::RunResult base = harness::run_benchmark(bench, opts);

  harness::RunOptions ckpt_opts = opts;
  ckpt_opts.engine.checkpoint_path = path;
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    (void)harness::run_benchmark(bench, ckpt_opts);
    _exit(0);
  }
  // Kill as soon as a checkpoint exists (plus a beat, to land mid-test).
  for (int i = 0; i < 20000; ++i) {
    if (std::ifstream(path).good()) break;
    usleep(1000);
  }
  usleep(200 * 1000);
  kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);

  harness::RunResult res;
  mc::Checkpoint cp;
  std::string err;
  if (mc::load_checkpoint_file(path, &cp, &err)) {
    EXPECT_EQ(cp.config.mismatch(ckpt_opts.engine), "");
    ckpt_opts.resume = &cp;
    res = harness::run_benchmark(bench, ckpt_opts);
    EXPECT_FALSE(std::ifstream(path).good())
        << "checkpoint deleted once the benchmark completes";
  } else {
    // The child finished (and deleted the file) before the kill landed;
    // degrade to a fresh run — convergence must hold trivially.
    res = harness::run_benchmark(bench, opts);
  }

  expect_stats_converged(res.mc, base.mc);
  EXPECT_EQ(res.verdict, base.verdict);
  std::remove(path.c_str());
}

#endif  // fork-capable platforms

}  // namespace
}  // namespace cds
