// Differential oracles for the exploration engine's own correctness.
//
// A behavior of a litmus program is the tuple of every value its loads /
// RMWs / CASes observed plus the final value of every location; the
// behavior *set* of a program is what the engine claims the C/C++11 model
// admits. Three independent cross-checks validate that claim:
//
//  1. kScInterleaving — for seq_cst-only programs, the model collapses to
//     interleaving semantics, so a brute-force enumerator over thread
//     interleavings is an exact oracle: the sets must agree exactly.
//  2. kMonotonicity — metamorphic: strengthening any single operation's
//     memory order (inject::strengthen, the reverse of the injection
//     framework's weakening walk) must never ADD behaviors.
//  3. kSampling — every behavior the seeded random-walk phase observes
//     must lie inside the exhaustive DFS set.
//
// A disagreement on any oracle means the engine under- or over-
// approximates the memory model; tools/cdsspec-fuzz minimizes the
// offending program and emits a self-contained repro.
#ifndef CDS_FUZZ_ORACLE_H
#define CDS_FUZZ_ORACLE_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fuzz/program.h"
#include "mc/config.h"
#include "mc/stats.h"
#include "mc/trail.h"

namespace cds::fuzz {

using BehaviorSet = std::set<std::string>;

// Serializes one behavior: "r:<obs,...>|f:<finals,...>". Fixed slot order
// makes string equality behavior equality; shared by the DFS collector,
// the stress backend, and the herd7 exporter.
[[nodiscard]] std::string behavior_string(
    const std::vector<std::uint64_t>& obs,
    const std::vector<std::uint64_t>& finals);

struct OracleConfig {
  // Safety caps on the engine runs; a program that exceeds them is
  // reported as skipped (inconclusive), never as agreement.
  std::uint64_t max_executions = 2000000;
  std::uint64_t max_steps = 20000;
  // Effectively unbounded for <=12-op programs, so the fairness bound
  // cannot perturb the metamorphic comparison.
  std::uint32_t stale_read_bound = 64;
  // Random-walk executions for the sampling oracle.
  std::uint64_t sample_executions = 256;
  std::uint64_t seed = 1;
  // Worker processes for the exhaustive-DFS collection phase (mc/shard.h).
  // 1 = in-process serial exploration; sharding changes neither the
  // behavior set nor the exhausted flag, only wall-clock time.
  int jobs = 1;
  // Node cap for the brute-force interleaving enumerator.
  std::uint64_t max_interleaving_nodes = 4000000;
  // Exploration equivalence (schedule vs reads-from classes); both modes
  // must produce the same behavior set — the rf-vs-schedule differential
  // tests run every oracle under each.
  mc::ExploreMode explore = mc::ExploreMode::kSchedule;
  // Self-validation sabotage, threaded through to the engine.
  mc::UnsoundHook unsound_hook = mc::UnsoundHook::kNone;
};

// The exploration's counters plus its behavior set. Sharded runs fold
// their shards' counters with merge_shard_stats, bit-identical to a
// serial run.
struct McBehaviors : mc::ExplorationStats {
  BehaviorSet behaviors;
};

// Explores `p` to exhaustion (or, with sampling_only, draws the seeded
// random walk) and collects its behavior set.
[[nodiscard]] McBehaviors mc_behaviors(const Program& p,
                                       const OracleConfig& cfg,
                                       bool sampling_only = false);

// Brute-force interleaving enumeration; only meaningful for sc_only()
// programs. Returns false (capped) if the node budget was exceeded.
bool interleaving_behaviors(const Program& p, const OracleConfig& cfg,
                            BehaviorSet* out);

// Runs `p` for `iters` iterations on the stress backend (real std::threads,
// seeded preemption; harness/stress_backend.h) and collects the observed
// behavior set. A stress sample is an under-approximation of the model's
// set on any correct implementation, so the containment
// `stress_behaviors(...) ⊆ mc_behaviors(...).behaviors` is the
// cross-backend differential oracle: a stress behavior the DFS never
// enumerates means one of the two backends is wrong.
[[nodiscard]] BehaviorSet stress_behaviors(const Program& p,
                                           std::uint64_t iters,
                                           int threads_mult,
                                           std::uint64_t seed);

enum class OracleKind : std::uint8_t {
  kScInterleaving,
  kMonotonicity,
  kSampling,
};

[[nodiscard]] const char* to_string(OracleKind k);

struct Disagreement {
  OracleKind oracle;
  std::string detail;  // human-readable: which behaviors, which site
  // For kMonotonicity: the strengthened variant whose set grew (equal to
  // the base program otherwise).
  Program witness;
};

struct CheckResult {
  std::vector<Disagreement> disagreements;
  bool skipped = false;       // caps exceeded; nothing was validated
  std::string skip_reason;
  int oracles_run = 0;

  [[nodiscard]] bool agreed() const {
    return disagreements.empty() && !skipped;
  }
};

// Every strengthenable site of `p` as (thread, op index, is-cas-failure-
// order) triples, and the variant with that one site strengthened.
struct StrengthenSite {
  int thread = 0;
  int index = 0;
  bool failure_order = false;
};
[[nodiscard]] std::vector<StrengthenSite> strengthen_sites(const Program& p);
[[nodiscard]] Program strengthen_at(const Program& p, const StrengthenSite& s);

// Runs every applicable oracle on `p`: kScInterleaving for sc_only()
// programs, kMonotonicity + kSampling for all programs.
[[nodiscard]] CheckResult check_program(const Program& p,
                                        const OracleConfig& cfg);

// ---------------------------------------------------------------------------
// One-execution witnesses (.trail repros, see mc/trace.h)
// ---------------------------------------------------------------------------

// A single recorded execution that exhibits an offending behavior of a
// disagreement: the choice trail pins it down exactly, so a repro replays
// in one execution instead of a full oracle re-run.
struct WitnessTrail {
  std::vector<mc::Choice> choices;
  std::string behavior;       // serialized behavior of the witnessed execution
  bool sampling = false;      // recorded during the random-walk phase
  // For kMonotonicity the trail drives strengthen_at(p, site), not p itself.
  bool strengthened = false;
  StrengthenSite site;
};

// After check_program reported a disagreement of `kind` on `p` (typically
// the minimized program), re-runs the relevant exploration and captures the
// trail of the first execution whose behavior lies outside the oracle's
// reference set. Returns false when no single execution witnesses the
// disagreement (e.g. the engine *misses* behaviors rather than admitting
// extras) — those repros replay via the full oracle re-run only.
bool witness_trail(const Program& p, const OracleConfig& cfg, OracleKind kind,
                   WitnessTrail* out);

// Strictly replays one recorded choice trail of `p` and reports the
// behavior that execution exhibits. Returns false on replay divergence or
// a non-completing execution, with the reason in *err.
bool replay_behavior(const Program& p, const OracleConfig& cfg,
                     const std::vector<mc::Choice>& choices,
                     std::string* behavior, std::string* err);

}  // namespace cds::fuzz

#endif  // CDS_FUZZ_ORACLE_H
