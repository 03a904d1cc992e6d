// Shard-result wire format and the shared per-shard run entry point.
//
// One unit test's one shard, as produced by a worker (a fork_map child, a
// distributed worker, or the sequential fallback). Line oriented;
// multi-line payloads (violation details, spec reports) are escaped onto
// single lines so the whole message parses line-by-line:
//
//   shard-result v5
//   stats executions=.. feasible=.. ... preempted=0|1 verdict=0|1|2
//   spec checked=.. inadmissible=.. ... r_cycle=0|1
//   violations <n>
//   v <wire-kind> <exec_index> <test_index> <nchoices> <escaped detail>
//   S 1/2                                  # nchoices trail lines
//   ...                                    # (mc::render_violation)
//   reports <n>
//   rep <escaped report>
//   metrics <n>
//   m <obs wire line>                      # see obs::Registry::render_wire
//   frontier <n>
//   S 1/2                                  # n trail lines (see below)
//   end
//
// The `stats` and `spec` lines carry every row of the ExplorationStats
// and SpecChecker::Stats tables (support::render_fields), each key exactly
// once. A preempted shard (the engine's stop-request hook tripped — work
// stealing) reports the trail of the last execution it explored as its
// frontier; the coordinator decomposes the unexplored right-sibling
// subtrees of that trail into fresh sub-shards (mc::split_remaining_
// frontier), so the partial result plus the sub-shards' results cover
// exactly the executions the undisturbed shard would have explored.
// Complete shards always carry `preempted=0` and an empty frontier.
// v5 generates both lines from the stats tables (dropping the rf class
// counter, which duplicated feasible, and adding seed).
//
// Parsing is strict-versioned: a stale payload (say, in a journal written
// by an older build) is treated as corrupt (shard recomputed or failed)
// rather than silently merged with missing or misread fields.
#ifndef CDS_HARNESS_SHARD_RESULT_H
#define CDS_HARNESS_SHARD_RESULT_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.h"
#include "mc/stats.h"
#include "mc/trail.h"
#include "obs/metrics.h"
#include "spec/checker.h"

namespace cds::harness {

struct ShardResult {
  mc::ExplorationStats stats;
  spec::SpecChecker::Stats spec;
  obs::Registry metrics;
  std::vector<mc::Violation> violations;
  std::vector<std::string> reports;
  // Preemption (work stealing): the trail of the shard's last explored
  // execution, set only when stats.preempted. The shard's own prefix is a
  // prefix of this trail.
  std::vector<mc::Choice> frontier;
};

std::string render_shard_result(const RunResult& r);

// Strict parse; on failure *err carries a "line N: ..." diagnostic and
// *out is untouched (no partially applied sections).
bool parse_shard_result(const std::string& text, ShardResult* out,
                        std::string* err);

// ---------------------------------------------------------------------------
// Shared shard execution
// ---------------------------------------------------------------------------

// Everything a worker needs to run one shard. The seed and sampling
// budget are pre-derived by the planner (coordinator) rather than inside
// the worker, so a shard retried on a different worker — or a sub-shard
// minted by work stealing — reproduces the exact same exploration.
struct ShardUnit {
  std::size_t test_index = 0;
  std::vector<mc::Choice> prefix;
  // Cosmetic shard label numbers ("shard i/N" in progress heartbeats).
  std::size_t ordinal = 0;
  std::size_t total = 1;
  std::uint64_t engine_seed = 0;
  std::uint64_t sample_executions = 0;
};

// Derives a ShardUnit from the base options the way the parallel planner
// does: per-shard seed, sample budget divided across shards.
ShardUnit make_shard_unit(const RunOptions& base, std::size_t test_index,
                          std::vector<mc::Choice> prefix, std::size_t ordinal,
                          std::size_t total);

// One shard, end to end, inside a worker process (or inline in the
// sequential fallback): run the unit test's subtree with spec checking
// and serialize the result. `stop_request`, when non-null, is polled
// between executions; if it returns true the shard preempts, reporting
// its partial counters and its frontier for re-splitting.
std::string run_shard_unit(const Benchmark& b, const RunOptions& base,
                           const ShardUnit& u,
                           const std::function<bool()>& stop_request = nullptr);

}  // namespace cds::harness

#endif  // CDS_HARNESS_SHARD_RESULT_H
