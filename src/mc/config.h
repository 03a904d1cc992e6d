// Exploration configuration.
#ifndef CDS_MC_CONFIG_H
#define CDS_MC_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "support/kv.h"

namespace cds::mc {

// Deliberately unsound engine variants, reachable only through the
// test-only Config hook below. The fuzzer's differential oracles
// (src/fuzz/oracle.h) must catch each of them; they exist so the
// self-validation layer can prove it would notice a real soundness
// regression of the same shape.
enum class UnsoundHook : std::uint8_t {
  kNone = 0,
  // seq_cst loads ignore the per-location SC floors, admitting stale
  // reads the SC total order forbids (an over-approximation: extra
  // behaviors appear in the seq_cst-only fragment).
  kScLoadIgnoresFloor,
  // Sleeping threads are never woken by conflicting operations, so the
  // sleep-set reduction prunes subtrees it has no sibling coverage for
  // (an under-approximation: DFS misses behaviors sampling can reach).
  kSleepSetNeverWakes,
};

// What the DFS branches on (see --explore).
enum class ExploreMode : std::uint8_t {
  // Branch on every scheduler choice point (plus reads-from picks):
  // CDSChecker-style enumeration with sleep-set reduction.
  kSchedule = 0,
  // Reads-from equivalence (Tunç et al.): non-seq_cst atomic loads never
  // branch the scheduler. They execute greedily at their earliest
  // placement and branch only on their reads-from assignment, where a
  // trailing "wait for the next same-location write" alternative stands in
  // for every later placement. Each completed execution is the
  // representative of one rf equivalence class; executions whose wait
  // choices are never satisfied are infeasible classes, pruned and counted
  // separately (ExplorationStats::rf_infeasible). Behavior sets, verdicts
  // and per-class counters are identical to kSchedule's; only the number
  // of explored executions shrinks.
  kRf,
};

[[nodiscard]] inline const char* to_string(ExploreMode m) {
  return m == ExploreMode::kRf ? "rf" : "schedule";
}

// Wire images of the enumerations in the config table (support/kv.h).
inline std::uint64_t to_wire(ExploreMode m) {
  return static_cast<std::uint64_t>(m);
}
inline bool from_wire(std::uint64_t w, ExploreMode* m) {
  *m = static_cast<ExploreMode>(w);
  return w <= static_cast<std::uint64_t>(ExploreMode::kRf);
}
inline std::uint64_t to_wire(UnsoundHook h) {
  return static_cast<std::uint64_t>(h);
}
inline bool from_wire(std::uint64_t w, UnsoundHook* h) {
  *h = static_cast<UnsoundHook>(w);
  return w <= static_cast<std::uint64_t>(UnsoundHook::kSleepSetNeverWakes);
}

// Every Config field that crosses a process or file boundary, declared
// once: X(member, wire key, shape). A shard assignment carries every row
// (its `engine` line), so a socket worker explores exactly the tree the
// coordinator planned. Rows of shape `flag` or `tree` shape the choice
// tree itself; they make up ConfigFingerprint below, which .trail files,
// checkpoints and the shard journal pin so that a replay or resume under
// other values is refused. A `flag` row is set by the command-line flag
// --<key>, and mismatch messages name that flag. `run` rows only bound or
// instrument a run.
#define CDS_ENGINE_CONFIG(X)                          \
  X(seed, "seed", flag)                               \
  X(stale_read_bound, "stale", flag)                  \
  X(max_steps, "max_steps", tree)                     \
  X(strengthen_to_sc, "strengthen_sc", tree)          \
  X(enable_sleep_sets, "sleep_sets", tree)            \
  X(explore, "explore", flag)                         \
  X(max_threads, "threads", run)                      \
  X(max_executions, "execs", run)                     \
  X(max_recorded_violations, "viol", run)             \
  X(stop_on_first_violation, "stop_first", run)       \
  X(collect_trace, "trace", run)                      \
  X(time_budget_seconds, "time_us", run)              \
  X(memory_budget_bytes, "mem", run)                  \
  X(watchdog_no_progress_execs, "watchdog", run)      \
  X(sample_executions, "samples", run)                \
  X(dfs_budget_fraction, "dfs_ppm", run)              \
  X(contain_crashes, "contain", run)                  \
  X(sampling_only, "sampling_only", run)              \
  X(unsound_hook, "unsound", run)

struct Config {
  // Hard cap on modeled threads per execution (including the test's root
  // thread).
  int max_threads = 32;

  // How many times per execution a single thread may choose to read a
  // message older than the newest eligible one. This is the operational
  // analogue of CDSChecker's memory-liveness fairness bound: it keeps
  // spin loops that keep re-reading stale values from making the DFS tree
  // infinite while preserving bounded-staleness behaviors.
  std::uint32_t stale_read_bound = 3;

  // Per-execution bound on visible operations; executions that exceed it
  // are counted as explored but infeasible (pruned).
  std::uint64_t max_steps = 20000;

  // Stop exploring after this many executions (0 = exhaustive).
  std::uint64_t max_executions = 0;

  // Keep at most this many violation records per exploration.
  std::uint32_t max_recorded_violations = 16;

  // Stop the whole exploration at the first violation (built-in or
  // spec-level) instead of continuing to enumerate.
  bool stop_on_first_violation = false;

  // Record a compact per-execution event trace (used in diagnostics).
  bool collect_trace = true;

  // Sleep-set partial-order reduction (sound; prunes redundant
  // interleavings). Disable only for ablation measurements.
  bool enable_sleep_sets = true;

  // Equivalence relation the DFS enumerates representatives of. Part of
  // the config fingerprint: trails, checkpoints and shard journals
  // recorded in one mode never resume or replay under the other. Under
  // strengthen_to_sc every load is seq_cst, so kRf degenerates to
  // kSchedule (no load is ever deferred).
  ExploreMode explore = ExploreMode::kSchedule;

  // The paper's Section 2 "Strengthen the Atomics" alternative: coerce
  // every atomic operation to seq_cst. Under this mode the relaxed
  // behaviors disappear (and classic linearizability applies), at the
  // modeled cost the paper's developers avoid paying.
  bool strengthen_to_sc = false;

  // ---- resource budgets & fail-safe degradation -------------------------
  // Exhaustive DFS under C/C++11 is unbounded in the worst case; budgets
  // turn "runs forever" into "returns an inconclusive verdict with
  // coverage numbers".

  // Wall-clock budget for the whole exploration (0 = unlimited). Checked
  // between executions and every few hundred steps inside one, so a
  // single long execution cannot overshoot by much.
  double time_budget_seconds = 0.0;

  // Memory budget in bytes (0 = unlimited) over the engine's per-execution
  // arena, location histories, and trace buffer. Exceeding it ends the
  // current execution and (like the time budget) degrades to sampling.
  std::size_t memory_budget_bytes = 0;

  // Exploration-level watchdog: if this many consecutive executions finish
  // without a single feasible (checkable) one — the DFS is grinding through
  // pruned/livelocked subtrees only — treat the budget as exhausted.
  // Disabled by default so unbudgeted exhaustive runs stay bit-identical;
  // the CLI arms it whenever a budget flag is passed.
  std::uint64_t watchdog_no_progress_execs = 0;

  // When a budget (time, memory, watchdog) is exhausted, fall back from
  // exhaustive DFS to seeded random-walk sampling instead of stopping
  // cold: up to this many sampled executions, still subject to the final
  // wall-clock deadline. 0 disables degradation.
  std::uint64_t sample_executions = 2048;

  // Fraction of the time budget reserved for the DFS phase when
  // degradation is enabled; the remainder funds the sampling phase.
  double dfs_budget_fraction = 0.8;

  // Seed for the sampling phase's RNG (and anything else the engine
  // randomizes). Echoed in ExplorationStats so degraded runs are
  // reproducible.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  // Cooperative preemption hook (work stealing): polled between DFS
  // executions. When it returns true the engine stops after the execution
  // it just tallied, marks the run preempted (stats.preempted), and
  // records the last explored execution's trail as the preempt frontier —
  // the unexplored remainder of the subtree is exactly the right-sibling
  // subtrees of that trail (see mc::split_remaining_frontier), so a
  // coordinator can hand the rest out as fresh shards. Null = never
  // preempt (the default; the hot path is one null check).
  std::function<bool()> stop_request;

  // ---- observability ----------------------------------------------------

  // Emit a one-line progress heartbeat to stderr at most every this many
  // seconds while explore() runs (0 = off, the default: the disabled hot
  // path is a single null-pointer branch). Parallel workers inherit the
  // interval, so `--jobs` runs beat per worker.
  double progress_interval_seconds = 0.0;

  // Label prefixed to heartbeat lines; falls back to test_name when empty
  // (the parallel harness stamps "name#test shard i/N" per shard).
  std::string progress_label;

  // ---- persistence & containment ----------------------------------------

  // When non-empty, the engine periodically writes its DFS frontier (plus
  // counters and RNG state) to this file via write-to-temp+rename, so a
  // killed exploration resumes from the last checkpoint instead of
  // restarting (see mc/checkpoint.h and Engine::set_resume).
  std::string checkpoint_path;

  // Checkpoint cadence: write every this many executions, in both the DFS
  // and sampling phases (a checkpoint is also forced whenever a budget
  // exhausts or the watchdog fires).
  std::uint64_t checkpoint_every_execs = 1000;

  // Identity fingerprint stamped into checkpoints and .trail repros, e.g.
  // "msqueue#2" (benchmark name '#' unit-test index). Resume and replay
  // reject files whose fingerprint does not match the current run.
  std::string test_name;
  std::uint32_t test_index = 0;

  // Signal-to-verdict containment: catch SIGSEGV/SIGBUS/SIGFPE/SIGABRT
  // raised while a modeled-thread fiber runs (i.e. inside the test body),
  // convert the crash into a Violation{kCrash} carrying the current trail,
  // and end the exploration with Verdict::kFalsified instead of letting
  // the signal kill the checker process. Disable only to debug the
  // containment layer itself with a native debugger.
  bool contain_crashes = true;

  // ---- self-validation hooks (src/fuzz, tools/cdsspec-fuzz) -------------

  // Skip the DFS phase entirely and draw `sample_executions` seeded
  // random-walk executions. The fuzzer's DFS-vs-sampling oracle runs the
  // same program both ways and requires every sampled behavior to appear
  // in the exhaustive set.
  bool sampling_only = false;

  // Test-only soundness sabotage; see UnsoundHook. Never set outside the
  // self-validation tests.
  UnsoundHook unsound_hook = UnsoundHook::kNone;

  // Calls f(wire_key, member) for every CDS_ENGINE_CONFIG row.
  template <class Self, class F>
  static void each(Self& s, F&& f) {
    CDS_ENGINE_CONFIG(CDS_CONFIG_VISIT)
  }
};

// Config's defaults, built once (a ConfigFingerprint starts from them).
inline const Config& default_config() {
  static const Config c;
  return c;
}

#define CDS_CONFIG_IF_flag(...) __VA_ARGS__
#define CDS_CONFIG_IF_tree(...) __VA_ARGS__
#define CDS_CONFIG_IF_run(...)
#define CDS_CONFIG_FP_MEMBER(member, key, shape) \
  CDS_CONFIG_IF_##shape(                         \
      decltype(Config::member) member = default_config().member;)
#define CDS_CONFIG_FP_ZIP(member, key, shape) \
  CDS_CONFIG_IF_##shape(f(key, #shape, a.member, b.member);)

// The tree-shaping rows of CDS_ENGINE_CONFIG, with Config's defaults: what
// a .trail file or checkpoint was recorded under, and what the shard
// journal checksums (as render_fields of it).
struct ConfigFingerprint {
  CDS_ENGINE_CONFIG(CDS_CONFIG_FP_MEMBER)

  [[nodiscard]] static ConfigFingerprint from(const Config& cfg) {
    ConfigFingerprint fp;
    zip(fp, cfg, [](const char*, const char*, auto& to, const auto& v) {
      to = v;
    });
    return fp;
  }
  void apply(Config* cfg) const {
    zip(*cfg, *this, [](const char*, const char*, auto& to, const auto& v) {
      to = v;
    });
  }
  // "" when `cfg` has the same values; otherwise the first row that
  // differs, named by its flag.
  [[nodiscard]] std::string mismatch(const Config& cfg) const {
    std::string out;
    zip(*this, cfg,
        [&](const char* key, const char* shape, const auto& file,
            const auto& run) {
          if (!out.empty() || file == run) return;
          const std::string name = std::string_view(shape) == "flag"
                                       ? std::string("--") + key
                                       : std::string(key);
          out = name + " mismatch: file has " + show(file) +
                ", this run has " + show(run);
        });
    return out;
  }

  // Calls f(wire_key, member) for every row, as render_fields and
  // parse_fields expect.
  template <class Self, class F>
  static void each(Self& s, F&& f) {
    zip(s, s, [&](const char* key, const char*, auto& v, const auto&) {
      f(key, v);
    });
  }

 private:
  // Calls f(key, shape, a.member, b.member) for every tree-shaping row.
  template <class A, class B, class F>
  static void zip(A& a, B& b, F&& f) {
    CDS_ENGINE_CONFIG(CDS_CONFIG_FP_ZIP)
  }
  template <class T>
  static std::string show(const T& v) {
    using support::to_wire;
    return std::to_string(to_wire(v));
  }
  static std::string show(ExploreMode m) {
    return std::string("'") + to_string(m) + "'";
  }
};

}  // namespace cds::mc

#endif  // CDS_MC_CONFIG_H
