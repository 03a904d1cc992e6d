// Run harness shared by tests and benchmarks: couples an Engine with a
// SpecChecker, aggregates results, and drives the paper's injection
// experiment (Section 6.4.2) over the registered benchmark suite.
#ifndef CDS_HARNESS_RUNNER_H
#define CDS_HARNESS_RUNNER_H

#include <string>
#include <vector>

#include "inject/inject.h"
#include "mc/engine.h"
#include "obs/metrics.h"
#include "spec/checker.h"
#include "spec/specification.h"

namespace cds::harness {

struct RunOptions {
  mc::Config engine;
  spec::SpecChecker::Options checker;

  // Resume state loaded from engine.checkpoint_path (non-owning; must stay
  // alive across the run). The caller is responsible for the fingerprint
  // check; run_benchmark additionally sanity-checks the test identity and
  // falls back to a fresh run on mismatch.
  const mc::Checkpoint* resume = nullptr;

  // Template for checkpoints written during this run: its `extra` entries
  // and violation records (the harness's accumulated prior-test state) are
  // carried into every checkpoint file. Populated by run_benchmark.
  mc::Checkpoint checkpoint_base;

  // Subtree-restriction prefix for parallel sharding (see
  // harness/parallel.h): when non-empty, the engine explores only the
  // executions extending this pinned choice prefix. Incompatible with
  // `resume`.
  std::vector<mc::Choice> subtree;
};

struct RunResult {
  mc::ExplorationStats mc;
  spec::SpecChecker::Stats spec;
  // Metrics registry harvested from the engine(s): counters/histograms are
  // per-execution-pure (sharded runs sum to the serial values), gauges are
  // peaks, timers are wall time. See obs/metrics.h.
  obs::Registry metrics;
  std::vector<mc::Violation> violations;
  std::vector<std::string> reports;
  // Work-stealing preemption frontier (see Engine::preempt_frontier):
  // non-empty only when mc.preempted, i.e. the run was asked to stop
  // early and the unexplored remainder of its subtree should be re-split
  // from this trail.
  std::vector<mc::Choice> frontier;
  // Weakest verdict across the aggregated explorations: falsified beats
  // inconclusive beats verified-exhaustive, so "proved" is only claimed
  // when every unit test ran its state space to exhaustion.
  mc::Verdict verdict = mc::Verdict::kVerifiedExhaustive;

  [[nodiscard]] bool detected_builtin() const;
  [[nodiscard]] bool detected_admissibility() const;
  [[nodiscard]] bool detected_assertion() const;
  [[nodiscard]] bool any_detection() const {
    return detected_builtin() || detected_admissibility() || detected_assertion();
  }
};

// Explores `test` under the model checker with specification checking.
RunResult run_with_spec(const mc::TestFn& test, const RunOptions& opts = {});

// ---------------------------------------------------------------------------
// Benchmark registry (the paper's Section 6 suite)
// ---------------------------------------------------------------------------

struct Benchmark {
  std::string name;     // key; also the inject-site benchmark key
  std::string display;  // paper's row label (Figure 7/8)
  const spec::Specification* spec;
  std::vector<mc::TestFn> tests;  // unit tests, all explored
  // True when the spec's correctness argument depends on calls staying
  // CONCURRENT (Figure-6-style justification); strengthening every
  // operation to seq_cst then totally orders the ordering points and
  // strips that justification, so suite-wide SC sweeps must skip the
  // benchmark. Registration is the single source of truth: the property
  // tests, the stress smoke test, and the cross-backend suite all derive
  // their benchmark lists from this registry instead of hardcoding names.
  bool spec_requires_concurrency = false;
};

void register_benchmark(Benchmark b);
[[nodiscard]] const std::vector<Benchmark>& benchmarks();
[[nodiscard]] const Benchmark* find_benchmark(const std::string& name);

// Runs every unit test of a benchmark; sums exploration stats and merges
// detections.
//
// With engine.checkpoint_path set, the engine checkpoints periodically
// inside each test, the harness writes a Phase::kStart checkpoint between
// tests (carrying the accumulated totals of the finished ones), and the
// file is deleted once the whole benchmark completes. Passing the loaded
// checkpoint back through RunOptions::resume skips already-finished tests
// and resumes the interrupted one mid-exploration; the resumed run
// converges to the same aggregate stats and verdict as an uninterrupted
// one, violation records and their trails included.
RunResult run_benchmark(const Benchmark& b, const RunOptions& opts = {});

// The finished tests' totals as a checkpoint's "prior.*" extras (the
// engine round-trips them without interpretation), so a kill+resume
// mid-benchmark restores them. decode_prior returns false, leaving
// *total untouched, when the checkpoint carries none.
void encode_prior(const RunResult& total, mc::Checkpoint* cp);
bool decode_prior(const mc::Checkpoint& cp, RunResult* total);

// ---------------------------------------------------------------------------
// Injection experiment (Figure 8)
// ---------------------------------------------------------------------------

enum class Detection { kNone, kBuiltin, kAdmissibility, kAssertion };

[[nodiscard]] const char* to_string(Detection d);

// What happened to a trial as a *process*: it finished and was classified,
// or its (fork-isolated) child crashed, or it exceeded the per-trial
// timeout even after the retry. Crashed/timed-out trials record an
// outcome and the campaign moves on to the remaining sites.
enum class TrialStatus { kCompleted, kCrashed, kTimedOut };

[[nodiscard]] const char* to_string(TrialStatus s);

struct InjectionOutcome {
  inject::Site site;
  Detection how = Detection::kNone;
  TrialStatus status = TrialStatus::kCompleted;
  mc::Verdict verdict = mc::Verdict::kInconclusive;
  int term_signal = 0;   // signal that killed a crashed child (0 if exit code)
  bool retried = false;  // timed out once and re-ran at a tighter cap
  double seconds = 0.0;
};

// Fail-safe controls for the injection campaign. Defaults keep every
// trial fork-isolated so one crashing or hanging trial cannot take the
// sweep down with it.
struct SweepOptions {
  // Run each trial in a forked child (POSIX only; ignored elsewhere).
  // Without isolation a crash or hang hits the whole campaign.
  bool fork_isolation = true;
  // Wall-clock cap per trial (0 = none). Only enforced under fork
  // isolation; inline trials should use RunOptions::engine budgets.
  double trial_timeout_seconds = 120.0;
  // After a timeout, retry this many times at a tighter execution cap and
  // an engine-level time budget (so the retry degrades instead of hanging).
  int timeout_retries = 1;
  // Root seed; per-trial engine seeds are derived from it and the site id.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

struct InjectionSummary {
  std::string benchmark;
  int injections = 0;
  int builtin = 0;
  int admissibility = 0;
  int assertion = 0;
  int undetected = 0;  // completed trials with no detection
  int crashed = 0;
  int timed_out = 0;
  std::vector<InjectionOutcome> outcomes;

  [[nodiscard]] int completed() const {
    return injections - crashed - timed_out;
  }
  // Detection rate over trials that actually completed; crashed/timed-out
  // trials are reported separately rather than counted as undetected.
  [[nodiscard]] double detection_rate() const {
    return completed() == 0
               ? 1.0
               : static_cast<double>(completed() - undetected) / completed();
  }
};

// Weakens each injectable site of the benchmark in turn (one per trial,
// covering every memory-order parameter its tests exercise) and classifies
// the detection with the paper's priority: built-in, then admissibility,
// then assertion. Each trial is fork-isolated with a per-trial timeout
// (see SweepOptions); a crashing or hanging trial is recorded as that
// site's outcome and the campaign continues.
InjectionSummary run_injection_experiment(const Benchmark& b,
                                          const RunOptions& opts = {},
                                          const SweepOptions& sweep = {});

}  // namespace cds::harness

#endif  // CDS_HARNESS_RUNNER_H
