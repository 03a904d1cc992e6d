// Exploration statistics, shared by the engine, the checkpoint layer, and
// the harness (lives outside engine.h so mc/checkpoint.h can persist it
// without pulling in the whole engine).
#ifndef CDS_MC_STATS_H
#define CDS_MC_STATS_H

#include <cstdint>

#include "mc/violation.h"
#include "support/kv.h"

namespace cds::support {
template <>
inline constexpr mc::Verdict initial<mc::Verdict> = mc::Verdict::kInconclusive;
}  // namespace cds::support

namespace cds::mc {

inline std::uint64_t to_wire(Verdict v) {
  return static_cast<std::uint64_t>(v);
}
inline bool from_wire(std::uint64_t w, Verdict* v) {
  *v = static_cast<Verdict>(w);
  return w <= static_cast<std::uint64_t>(Verdict::kInconclusive);
}

// Every ExplorationStats field, declared once: X(type, member, wire key,
// fold). The members, merge_shard_stats, the shard-result `stats` line,
// the checkpoint `stats` line and the harness's `prior.*` extras are all
// generated from this table (see support/kv.h), so adding a counter is
// one row here plus the line in the engine that bumps it.
//
// Disjoint subtree shards partition the executions of a serial run, so
// counters sum exactly (merged counts from an exhaustive sharded run are
// bit-identical to the serial run's); budget/stop flags are sticky ORs,
// exhaustion is an AND (every shard must finish its subtree), and depth
// is a max. `seconds` sums shard CPU time, so it exceeds wall time when
// shards ran concurrently.
#define CDS_EXPLORATION_STATS(X)                                              \
  X(std::uint64_t, executions, "executions", sum) /* DFS + sampled */        \
  X(std::uint64_t, feasible, "feasible", sum)     /* completed, checkable */ \
  X(std::uint64_t, pruned_bound, "pruned_bound", sum) /* step bound/budget */ \
  X(std::uint64_t, pruned_livelock, "pruned_livelock", sum) /* spinners */   \
  X(std::uint64_t, pruned_redundant, "pruned_redundant", sum) /* sleep set */ \
  X(std::uint64_t, builtin_violation_execs, "builtin", sum)                  \
  X(std::uint64_t, engine_fatal_execs, "fatal", sum) /* internal error */    \
  X(std::uint64_t, crash_execs, "crash", sum) /* contained kCrash */         \
  X(std::uint64_t, violations_total, "violations_total", sum) /* + spec */   \
  /* Wait-starved (infeasible) reads-from classes; 0 in schedule mode. */    \
  X(std::uint64_t, rf_infeasible, "rf_infeasible", sum)                      \
  X(std::uint64_t, sampled, "sampled", sum) /* random-walk phase */          \
  X(std::uint64_t, max_trail_depth, "max_depth", max)                        \
  X(double, seconds, "seconds_us", sum)                                      \
  X(bool, hit_execution_cap, "cap", any)                                     \
  X(bool, stopped_early, "stopped", any)                                     \
  X(bool, hit_time_budget, "time", any)                                      \
  X(bool, hit_memory_budget, "mem", any)                                     \
  X(bool, watchdog_fired, "watchdog", any) /* no-progress DFS */             \
  X(bool, exhausted, "exhausted", all) /* whole bounded tree enumerated */   \
  X(std::uint64_t, seed, "seed", keep) /* reproduces sampled runs */         \
  X(bool, preempted, "preempted", keep)                                      \
  X(Verdict, verdict, "verdict", keep)

struct ExplorationStats {
  CDS_EXPLORATION_STATS(CDS_STATS_MEMBER)

  // Calls f(wire_key, field) for every row, in table order; `Self` is
  // ExplorationStats or const ExplorationStats.
  template <class Self, class F>
  static void each(Self& s, F&& f) {
    CDS_EXPLORATION_STATS(CDS_STATS_VISIT)
  }
};

// `preempted`: the exploration stopped because Config::stop_request
// tripped (work stealing); counters cover a prefix of the subtree, and
// the engine's preempt_frontier() names the last explored execution so a
// coordinator can re-split the remainder. It is not folded: a preempted
// shard plus its re-split sub-shards jointly cover the subtree, so the
// merger clears the flag (and the stopped_early it implies) before
// folding the partial result in. The verdict is not folded either — it
// needs run-level context (crashed workers, falsifying shard priority);
// see weaken_verdict and the shard pipeline.
inline void merge_shard_stats(ExplorationStats& into,
                              const ExplorationStats& from) {
  CDS_EXPLORATION_STATS(CDS_STATS_FOLD)
}

// Merges `v` into `into`, keeping the weaker claim: falsified beats
// inconclusive beats verified-exhaustive.
inline void weaken_verdict(Verdict& into, Verdict v) {
  if (v == Verdict::kFalsified || into == Verdict::kFalsified) {
    into = Verdict::kFalsified;
  } else if (v == Verdict::kInconclusive) {
    into = Verdict::kInconclusive;
  }
}

}  // namespace cds::mc

#endif  // CDS_MC_STATS_H
