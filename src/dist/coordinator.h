// Distributed coordinator: owns the shard queue for one benchmark and
// hands shards out to socket-connected workers under wall-clock leases.
//
// Elasticity and fault model:
//   - every assignment is a fresh *attempt id*; results and failures are
//     keyed by attempt, so a result from a revoked attempt (a worker that
//     went quiet past its lease and reported late) is dropped as stale
//     instead of double-merged — a shard's counters enter the merge
//     exactly once no matter how many attempts it took;
//   - a worker that disconnects, crashes, or misses heartbeats past the
//     lease has its attempt revoked and the shard retried with
//     exponential backoff + deterministic jitter, up to max_shard_retries;
//     after that the shard is recorded as a contained permanent failure
//     (verdict degrades to inconclusive, the run completes);
//   - when the queue drains while long shards still run, the coordinator
//     asks the oldest running shard's worker to preempt (work stealing);
//     the preempted partial result plus the sub-shards split from its
//     frontier (mc::split_remaining_frontier) cover exactly the executions
//     the undisturbed shard would have explored, keeping merged counters
//     bit-identical to a serial run;
//   - if no worker ever connects within the deadline — or every worker is
//     gone and none returns — the remaining shards gracefully degrade to
//     the local fork pool, so `--dist-workers` never strands a run.
//
// Planning, the journal (header check, replay), the fork-pool fallback and
// the DFS-order merge are the shard pipeline shared with --jobs
// (harness/parallel.h); this file adds only the socket transport.
//
// All dist bookkeeping (retries, leases, steals, reconnects) is exported
// as dist.* gauges, never counters: the deterministic counter set must
// stay bit-identical to --jobs 1 under every failure injection.
#ifndef CDS_DIST_COORDINATOR_H
#define CDS_DIST_COORDINATOR_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "dist/chaos.h"
#include "dist/worker.h"
#include "harness/parallel.h"
#include "harness/runner.h"

namespace cds::dist {

// Planning and durability fields (shard_depth, max_shards, journal_path,
// resume, coord_chaos) come from the shared pipeline options; a 0
// max_shards means max(dist_workers, 1) * 4.
struct DistOptions : harness::ShardPipelineOptions {
  // Address to listen on ("host:port" or "unix:PATH"). Empty = an
  // automatic per-process Unix socket under /tmp, removed on completion.
  std::string listen;
  // Local worker processes to fork and point at the listen address
  // (localhost convenience mode; 0 = external workers only).
  int dist_workers = 0;
  // Lease duration per assignment. Heartbeats renew it; an attempt whose
  // lease lapses is revoked and retried. Workers are told to heartbeat at
  // a third of this.
  double lease_seconds = 5.0;
  // Retries after the first attempt before a shard is recorded as a
  // permanent (contained) failure. 0 = single attempt.
  int max_shard_retries = 3;
  // Fall back to the local fork pool (max(dist_workers, 1) wide) when no
  // worker has connected this long after startup, or when all workers are
  // gone this long.
  double connect_deadline_seconds = 5.0;
  // Steal from a running shard only after it has held its assignment this
  // long. 0 = half the lease.
  double steal_after_seconds = 0.0;
  bool enable_steal = true;
  // Fault injection applied to the FIRST forked local worker (chaos
  // tests / the CI chaos step). External workers configure their own.
  ChaosOptions worker_chaos;
  // Benchmark resolver inherited by forked local workers; defaults to the
  // benchmark under test plus the global registry.
  BenchmarkResolver resolve;
  // Forwarded to workers' shard children as the progress interval.
  double worker_progress_interval_seconds = 0.0;
};

struct DistRunResult : harness::ShardRunResult {
  std::uint64_t retries = 0;          // attempts rescheduled (any cause)
  std::uint64_t leases_expired = 0;   // revocations by lease timeout
  std::uint64_t steals = 0;           // preemption requests sent
  std::uint64_t steal_subshards = 0;  // sub-shards minted from frontiers
  std::uint64_t failed_shards = 0;    // shards that never produced a result
  std::uint64_t stale_results = 0;    // revoked-attempt reports dropped
  std::uint64_t corrupt_results = 0;  // unparseable result payloads
  std::uint64_t workers_connected = 0;  // peak concurrent workers
  std::uint64_t connections_total = 0;  // hellos accepted (incl. reconnects)
  bool fell_back_local = false;
  std::string listen_address;  // resolved address actually listened on
  std::uint64_t fenced_results = 0;  // out-of-epoch reports dropped
};

// Distributed analog of run_benchmark_parallel: the same shard pipeline
// with socket workers in front of the fork pool. With `journal_path` set,
// every shard outcome is journaled write-ahead of the merge, and `resume`
// continues an interrupted run to a bit-identical verdict and counter set.
DistRunResult run_benchmark_distributed(const harness::Benchmark& b,
                                        const harness::RunOptions& opts,
                                        const DistOptions& d);

}  // namespace cds::dist

#endif  // CDS_DIST_COORDINATOR_H
