// Checkpoint/resume for the exploration engine.
//
// Because the explorer is stateless, the entire DFS frontier is the current
// trail: each recorded Choice carries its alternative count, so "where the
// enumeration is" and "what remains" are both implied by one choice
// sequence. A checkpoint is therefore small — the trail, the exploration
// counters, the sampling RNG state, and the elapsed budget — and a resumed
// run converges to the exact stats and verdict of an uninterrupted one.
//
// Files are written atomically (write-to-temp + rename, see mc/trace.h), so
// a SIGKILL or power loss mid-write leaves either the previous complete
// checkpoint or a stray .tmp, never a torn file; the parser still rejects
// truncated/corrupted input cleanly so a damaged file degrades to a fresh
// start instead of a crash.
//
// Format (line-oriented, '#' comments, order fixed):
//   cdsspec-checkpoint v5
//   test msqueue#1
//   test_index 1
//   phase dfs                       # start | dfs | sampling
//   rng 88172645463325252
//   elapsed 1.250000
//   config seed=11400714819323198485 stale=3 max_steps=20000 ...
//   stats executions=1000 feasible=940 ... verdict=2 last_progress=1000
//   violations 1
//   v data-race 17 0 2 read of 'head' races with write by T2
//   S 1/2                           # the violation's 2-choice trail
//   R 0/3
//   extra 2
//   x spec.cur.histories 4200
//   x prior.executions 312
//   trail 3
//   S 1/2
//   R 0/3
//   S 0/2
//   end
//
// `config` is the .trail format's ConfigFingerprint line and `v` the
// shard-result violation record (mc/trace.h), so details and trails
// round-trip exactly.
#ifndef CDS_MC_CHECKPOINT_H
#define CDS_MC_CHECKPOINT_H

#include <string>
#include <utility>
#include <vector>

#include "mc/config.h"
#include "mc/stats.h"
#include "mc/trail.h"
#include "mc/violation.h"

namespace cds::mc {

struct Checkpoint {
  // v5: the config fingerprint is the .trail format's `config` line (the
  // seed and the exploration mode joined it), and violations are the
  // shard-result record, keeping escaped details and trails.
  // v4: the `stats` line carries every ExplorationStats row (mc/stats.h)
  // and absorbed the old `flags` line; the rf class counter is gone.
  // v3: the exploration mode (--explore schedule|rf) joined the config
  // fingerprint and the stats line gained the rf class counters; a v2
  // checkpoint would resume with those counters silently zeroed.
  // v2: RNG stream change (rejection-sampled Xorshift64::below); resuming a
  // v1 sampling-phase checkpoint would not reproduce the interrupted run.
  static constexpr int kVersion = 5;

  // Where the interrupted run was:
  //   kStart    — about to begin this test from scratch (the harness writes
  //               these between a benchmark's unit tests);
  //   kDfs      — mid-DFS; `trail` is the frontier, resume advances past it;
  //   kSampling — DFS is over (budget/watchdog), mid random-walk phase.
  enum class Phase : std::uint8_t { kStart, kDfs, kSampling };

  std::string test_name;  // e.g. "msqueue#1"
  std::uint64_t test_index = 0;
  Phase phase = Phase::kStart;
  std::uint64_t rng_state = 0;    // sampling RNG mid-stream state
  double elapsed_seconds = 0.0;   // wall time already spent (budget offset)

  // Resume rejects a checkpoint recorded under different exploration
  // parameters (config.mismatch).
  ConfigFingerprint config;

  // Counters and flags of the current (partial) test. `seconds`, `seed`
  // and `verdict` are recomputed on resume; the integer fields and budget
  // flags carry over exactly.
  ExplorationStats stats;
  std::uint64_t last_progress_exec = 0;  // watchdog bookkeeping

  // Recorded violation diagnostics, with their trails.
  std::vector<Violation> violations;

  // Opaque counters from layers above the engine (the spec checker's
  // stats, the harness's accumulated prior-test totals). Keys contain no
  // whitespace; the engine round-trips them without interpretation.
  std::vector<std::pair<std::string, std::uint64_t>> extra;

  // The DFS frontier (kDfs only; empty otherwise).
  std::vector<Choice> trail;

  [[nodiscard]] std::uint64_t extra_value(const std::string& key,
                                          std::uint64_t fallback = 0) const;
  void set_extra(const std::string& key, std::uint64_t value);
};

[[nodiscard]] const char* to_string(Checkpoint::Phase p);

[[nodiscard]] std::string render_checkpoint(const Checkpoint& cp);
bool parse_checkpoint(const std::string& text, Checkpoint* out,
                      std::string* err);

// Atomic write (temp + rename) / load with clean rejection of torn files.
bool write_checkpoint_file(const std::string& path, const Checkpoint& cp,
                           std::string* err);
bool load_checkpoint_file(const std::string& path, Checkpoint* out,
                          std::string* err);

}  // namespace cds::mc

#endif  // CDS_MC_CHECKPOINT_H
