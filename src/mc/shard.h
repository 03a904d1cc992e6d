// Parallel sharding substrate: splits a DFS exploration into disjoint
// subtrees by enumerating trail prefixes, and fans work units out to forked
// worker processes over a pipe-based protocol.
//
// Because every execution is a deterministic function of its choice
// sequence (mc/trail.h), the subtrees rooted at the children of any choice
// point partition the executions below it. enumerate_shard_prefixes probes
// the tree breadth-first — one throwaway execution per interior prefix —
// to materialize that partition up to a configurable depth; a worker
// exploring prefix P with Engine::set_subtree(P) then enumerates exactly
// the executions a serial DFS would have visited under P, so merged shard
// counters are bit-identical to a serial run's (see mc/stats.h
// merge_shard_stats).
#ifndef CDS_MC_SHARD_H
#define CDS_MC_SHARD_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mc/config.h"
#include "mc/engine.h"
#include "mc/trail.h"

namespace cds::mc {

struct ShardPlan {
  // Disjoint subtree roots in DFS order; together they cover the whole
  // tree. A prefix equal to a complete execution's trail is a leaf unit
  // (the worker runs exactly one execution).
  std::vector<std::vector<Choice>> prefixes;
  // Executions spent probing (discarded; workers re-explore them).
  std::uint64_t probe_executions = 0;
};

// Enumerates up to ~`max_units` disjoint subtree prefixes by expanding
// branch points breadth-first to at most `depth` choice levels. The probe
// runs single executions under `cfg` with budgets/checkpointing stripped;
// `cfg`'s tree-shaping knobs (max_steps, stale_read_bound, sleep sets,
// strengthen_to_sc) are honored since they define the tree being split.
// Always returns at least one prefix (the empty prefix = the whole tree).
ShardPlan enumerate_shard_prefixes(const Config& cfg, const TestFn& test,
                                   int depth, std::size_t max_units);

// Decomposes the unexplored remainder of a preempted shard into disjoint
// subtree prefixes. `frontier` is the trail of the last execution the
// shard explored (Engine::preempt_frontier) and `pinned` the length of
// its own prefix: the remainder is exactly the right-sibling subtrees of
// the frontier at every level >= pinned, i.e. prefixes
//   frontier[0..i) + Choice{kind_i, a, num_i}   for a in (chosen_i, num_i)
// The returned prefixes are in serial DFS order (deepest level first,
// alternatives ascending), and together with the executions the shard
// already counted they partition the shard's subtree — so merging the
// partial result and the sub-shards' results reproduces the undisturbed
// shard bit-identically. Returns empty when the frontier was the
// subtree's last execution (nothing remained).
std::vector<std::vector<Choice>> split_remaining_frontier(
    std::size_t pinned, const std::vector<Choice>& frontier);

// DFS order over subtree prefixes of one choice tree: lexicographic on
// the chosen alternatives, with a proper prefix ordering before its
// extensions (its subtree's first execution precedes them). The merge
// layers sort dynamically created shards with this so violations and
// record caps behave exactly as in a serial DFS.
bool prefix_dfs_less(const std::vector<Choice>& a,
                     const std::vector<Choice>& b);

// ---------------------------------------------------------------------------
// fork_map: run N opaque work units across forked workers
// ---------------------------------------------------------------------------

struct UnitResult {
  // False = the worker process died (crashed/killed) while this unit was
  // assigned to it; `text` is empty and the unit was not retried, so a
  // crash deterministically becomes that shard's outcome.
  bool ran = false;
  std::string text;
  // Coordinator-side timing (seconds since fork_map entry) and the worker
  // slot that computed the unit: observability only — never part of the
  // deterministic merged result.
  double assigned_seconds = 0.0;
  double done_seconds = 0.0;
  int worker = -1;
};

struct ForkMapOptions {
  int jobs = 1;
  // Test hook: the worker assigned this unit raises SIGKILL instead of
  // running it, exercising the coordinator's worker-crash containment.
  std::ptrdiff_t sigkill_on_unit = -1;
  // Invoked in the coordinating process the moment a unit reaches its
  // final state — computed by a worker, run inline, or crashed
  // (`ran == false`). Callers use this to journal outcomes write-ahead of
  // the merge; the callback runs before fork_map returns the unit to
  // anyone else, so an fsync inside it orders the durable record strictly
  // before consumption.
  std::function<void(std::size_t, const UnitResult&)> on_result;
};

// Runs `work(i)` for every i in [0, n) and returns results indexed by
// unit. With jobs > 1 on POSIX, forks `jobs` workers and feeds them units
// dynamically over pipes (results stream back length-prefixed); a worker
// death marks its in-flight unit crashed and the remaining workers carry
// on. Falls back to sequential in-process execution when jobs <= 1, fork
// is unavailable, or worker setup fails. `work` must be safe to run in a
// forked child (no reliance on threads, which fork does not carry over).
std::vector<UnitResult> fork_map(
    std::size_t n, const std::function<std::string(std::size_t)>& work,
    const ForkMapOptions& opts);

}  // namespace cds::mc

#endif  // CDS_MC_SHARD_H
