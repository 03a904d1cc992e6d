// Sharded benchmark runs: the one shard pipeline behind both `--jobs` and
// `--dist-workers`.
//
// Each unit test's DFS tree is split into disjoint subtree prefixes
// (mc/shard.h), every shard runs in a forked worker process, and the
// per-shard results merge into one RunResult with a deterministic verdict:
//
//   - falsified   if any shard falsified; shards merge in DFS order, so
//                 the surfaced witness is the serial run's first violation;
//   - verified-exhaustive only if EVERY shard exhausted its subtree, no
//                 shard hit an internal engine error, and no worker died;
//   - inconclusive otherwise (including any crashed worker: its shard's
//                 subtree was not covered).
//
// The pipeline has four steps, each implemented once in ShardPipeline:
//
//   1. plan     — enumerate every test's shard prefixes with stable global
//                 indices (test order, then DFS order within the test);
//   2. journal  — open the write-ahead journal (dist/journal.h), and on
//                 resume validate its header against this plan and replay
//                 it: journaled results are applied, a preempted result
//                 mints the sub-shards covering its unexplored remainder,
//                 journaled failures stay failed;
//   3. run      — run pending shards on the mc::fork_map pool, journaling
//                 each outcome before the merge reads it;
//   4. merge    — fold each test's shards in mc::prefix_dfs_less order.
//
// The two sharded modes differ only in transport. run_benchmark_parallel
// runs every test's pending shards on the local pool.
// run_benchmark_distributed (dist/coordinator.h) leases them to socket
// workers first and finishes whatever is left on the same pool.
//
// A worker-process death (crash, OOM-kill, SIGKILL) on the pool is
// contained as that shard's outcome — the shard is recorded failed, never
// retried, and the remaining workers keep draining the queue.
//
// For exhaustive runs the merged execution counters are bit-identical to a
// serial (--jobs 1) run: disjoint prefixes partition the execution tree
// and per-execution state (sleep sets, stale-read budgets) is a pure
// function of the trail, so each worker enumerates exactly the executions
// serial DFS visits under its prefix.
#ifndef CDS_HARNESS_PARALLEL_H
#define CDS_HARNESS_PARALLEL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/chaos.h"
#include "dist/journal.h"
#include "harness/runner.h"
#include "harness/shard_result.h"
#include "mc/shard.h"

namespace cds::harness {

// Planning and durability options shared by both sharded modes.
struct ShardPipelineOptions {
  // Prefix-enumeration depth: shards are subtrees rooted at most this many
  // choice points below the root. Deeper = more, finer shards (better load
  // balance, more probe executions).
  int shard_depth = 2;
  // Cap on shard count per unit test; 0 = 4 per worker.
  std::size_t max_shards = 0;
  // Write-ahead shard-outcome journal (dist/journal.h). Every shard
  // outcome is durable before the merge consumes it; empty = no
  // durability. The file is kept on completion (it is the run's audit
  // log). Either mode can resume the other's journal.
  std::string journal_path;
  // Replay an existing journal before running: shards it records are
  // satisfied from their journaled results, only the rest recompute, and
  // this incarnation runs under a bumped epoch. A journal recorded under
  // a different benchmark/config/shard plan, or unreadable, sets
  // resume_error instead of merging incompatible state. With no journal on disk, resume degrades
  // to a fresh run.
  bool resume = false;
  // Coordinator-side fault injection (journal-append crash windows).
  dist::CoordinatorChaos coord_chaos;
};

struct ParallelOptions : ShardPipelineOptions {
  int jobs = 1;
  // Test hook: SIGKILL the worker holding this shard index (applies to
  // every unit test; use single-test benchmarks in containment tests).
  std::ptrdiff_t sigkill_shard = -1;
};

// Coordinator-side timing of one shard's stay on a worker, for the
// Chrome-trace export (--trace-out): observability only, never merged into
// the deterministic counters.
struct ShardSpan {
  std::string name;  // "bench#test shard u/N"
  int worker = -1;
  // Offsets are cumulative over unit tests: seconds since this test's
  // fork_map entry plus the sum of every earlier test's last shard end,
  // so the spans of consecutive tests line up on one timeline.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;  // assignment-to-result wall time
};

// What both sharded modes report about the shard pipeline.
struct ShardRunResult {
  RunResult merged;
  std::uint64_t shards = 0;  // planned + minted from preempted frontiers
  std::uint64_t probe_executions = 0;
  // Durability (journal) bookkeeping.
  std::uint64_t epoch = 0;            // this incarnation (0 = no journal)
  bool resumed = false;               // a prior journal was replayed
  std::uint64_t replayed_shards = 0;  // shards satisfied from the journal
  std::uint64_t journal_quarantined_bytes = 0;  // torn-tail bytes set aside
  // Non-empty: resume was rejected (journal recorded under a different
  // benchmark, config fingerprint, or shard plan); nothing was run.
  std::string resume_error;
};

struct ParallelRunResult : ShardRunResult {
  int jobs = 1;
  std::uint64_t crashed_shards = 0;  // worker died / result unparseable
  std::vector<ShardSpan> spans;
};

struct PipelineShard {
  // kRunning is only used by the socket transport (leased to a worker).
  enum class State { kPending, kRunning, kDone, kFailed };
  State state = State::kPending;
  ShardUnit unit;
  ShardResult result;  // valid when kDone
};

class ShardPipeline {
 public:
  // Step 1: plans every test's shards. `workers` sizes the default shard
  // cap. `out` receives the pipeline's bookkeeping and, from merge(), the
  // merged result.
  ShardPipeline(const Benchmark& b, const RunOptions& opts,
                const ShardPipelineOptions& o, int workers,
                ShardRunResult* out);

  // Step 2. Returns false, with out->resume_error set and the verdict
  // inconclusive, when the journal on disk records a different plan or
  // cannot be read (another journal version, an I/O error).
  bool open_journal();

  // Appends `r` write-ahead. A failed append is reported once and the run
  // continues without durability.
  void journal(const dist::JournalRecord& r);

  // A shard's result text arrived: strict parse (a preempted result's
  // frontier must extend the shard's prefix), journal the raw text, then
  // apply it. False (with *why) = the payload is untrusted; nothing was
  // journaled or applied and corrupt_results was bumped.
  bool accept_result(std::size_t sidx, std::uint64_t attempt,
                     const std::string& text, std::string* why);

  // Records the shard's final outcome as failed (journaled first).
  void fail(std::size_t sidx, std::uint64_t attempt, const std::string& why);

  // Shards not yet done or failed; `test` < 0 = every test.
  [[nodiscard]] std::vector<std::size_t> unresolved(
      std::ptrdiff_t test = -1) const;

  // Step 3: runs shards `idx` on the fork pool, accepting or failing each
  // as the pool reports it. The returned entries carry the pool's timing
  // (their result text has been applied already). `sigkill_unit` indexes
  // `idx` (mc::ForkMapOptions::sigkill_on_unit).
  std::vector<mc::UnitResult> run_on_pool(const std::vector<std::size_t>& idx,
                                          int jobs,
                                          std::ptrdiff_t sigkill_unit = -1);

  // Step 4: merges into out->merged and journals the final verdict.
  // Returns the number of shards that never produced a result.
  std::uint64_t merge();

  std::vector<PipelineShard> shards;
  std::uint64_t minted = 0;           // sub-shards from preempted results
  std::uint64_t corrupt_results = 0;  // result payloads that did not parse

 private:
  bool parse(std::size_t sidx, const std::string& text, ShardResult* sr,
             std::string* why) const;
  std::size_t apply(std::size_t sidx, ShardResult sr);
  void replay(const dist::JournalReplay& rep);
  bool refuse_resume(std::string why);

  const Benchmark& b_;
  const RunOptions& opts_;
  const ShardPipelineOptions& o_;
  ShardRunResult& out_;
  dist::JournalWriter journal_;
};

// Parallel analog of run_benchmark(). The serial checkpoint options in
// `opts` are ignored; sharded runs checkpoint through the write-ahead
// journal (`journal_path`/`resume`) instead, replaying completed shards to
// a bit-identical verdict and counter set. The engine time budget, if
// any, applies per shard rather than across the whole benchmark.
ParallelRunResult run_benchmark_parallel(const Benchmark& b,
                                         const RunOptions& opts,
                                         const ParallelOptions& par);

}  // namespace cds::harness

#endif  // CDS_HARNESS_PARALLEL_H
