// Persistent trails: a compact, versioned textual format for choice
// sequences (.trail files), plus the config fingerprint that makes a trail
// a self-contained one-execution repro.
//
// The explorer is stateless: every execution is a deterministic function of
// its recorded choice sequence. Serializing that sequence turns any
// execution — in particular a violating one — into a one-file artifact that
// `cdsspec-run --replay-trail <file>` (or cdsspec-fuzz, for litmus
// programs) re-executes deterministically, with the debug-build replay
// determinism assertion promoted to a runtime divergence check.
//
// Format (line-oriented, '#' starts a comment, order fixed):
//   cdsspec-trail v3
//   test msqueue#2
//   backend stress                       # optional: "model" (default) or
//                                        # "stress"; any other token rejected
//   kind data-race                       # optional: wire_name(ViolationKind)
//   detail read of 'head' races ...      # optional, escaped onto one line
//   inject msqueue/enqueue-tail-store    # optional: active injection site
//   config seed=11400714819323198485 stale=3 max_steps=20000 ...
//                                        # (one line; see below)
//   choices 3
//   S 1/2                                # schedule: chose 1 of 2
//   R 0/3                                # reads-from: chose 0 of 3
//   S 0/2
//   end
//
// The `config` line is the ConfigFingerprint (mc/config.h): every
// tree-shaping row of the config table, each key exactly once (seed,
// stale, max_steps, strengthen_sc, sleep_sets, explore); enums by their
// wire value (explore=1 is rf).
#ifndef CDS_MC_TRACE_H
#define CDS_MC_TRACE_H

#include <string>
#include <vector>

#include "mc/config.h"
#include "mc/trail.h"
#include "mc/violation.h"
#include "support/kv.h"

namespace cds::mc {

struct TrailFile {
  // v3: one `config` line carries every tree-shaping row of the config
  // table; the seed and the exploration mode joined it, and `detail` is
  // escaped instead of flattened.
  // v2: Xorshift64::below() switched from modulo reduction to rejection
  // sampling, changing every random-mode choice stream; v1 trails recorded
  // from sampled executions would silently replay a different schedule, so
  // the version gates them out.
  static constexpr int kVersion = 3;

  // Identity: which test body this trail drives ("<benchmark>#<index>" for
  // registry benchmarks, "litmus" for fuzzer programs).
  std::string test_name;

  // Which backend recorded the trail: "" or "model" for the model checker
  // (the parser normalizes "model" to "" so round-trips are exact),
  // "stress" for the stress backend. Model trails carry the engine's
  // choice sequence and replay exactly; stress trails carry the iteration
  // seed (config.seed) plus the thread-major preemption decision stream,
  // and replay by re-running the iteration under that seed (probabilistic
  // — the decision stream is deterministic, the hardware schedule is not).
  std::string backend;

  // What the recorded execution exhibited ("" when the trail was exported
  // manually rather than from a violation).
  std::string kind;
  std::string detail;

  // The bug-injection site active when the trail was recorded ("" for an
  // unmodified run). Opaque to this layer; cdsspec-run re-activates the
  // named site before replaying, since the injected memory order shapes
  // the choice tree the trail indexes into.
  std::string inject_site;

  // The tree-shaping config the trail was recorded under. Replaying under
  // other values would desynchronize the trail, so replay applies it.
  ConfigFingerprint config;

  std::vector<Choice> choices;
};

// Serialization. parse_trail accepts exactly render_trail's output (plus
// comments/blank lines) and rejects truncated, corrupted, or
// version-mismatched input with an actionable message naming the line.
[[nodiscard]] std::string render_trail(const TrailFile& t);
bool parse_trail(const std::string& text, TrailFile* out, std::string* err);

// File I/O. Writing is atomic (write to "<path>.tmp", then rename), so a
// crash mid-write never leaves a torn .trail behind.
bool write_trail_file(const std::string& path, const TrailFile& t,
                      std::string* err);
bool load_trail_file(const std::string& path, TrailFile* out,
                     std::string* err);

// Shared text-file plumbing (also used by mc/checkpoint.cc).
bool write_text_file_atomic(const std::string& path, const std::string& text,
                            std::string* err);
bool read_text_file(const std::string& path, std::string* out,
                    std::string* err);

// Renders the choices-only body ("S 1/2\n..."): shared with the
// checkpoint, shard-result and shard-assignment formats, which embed the
// same trail section.
[[nodiscard]] std::string render_choices(const std::vector<Choice>& v);
// Reads `n` choice lines.
bool parse_choices(support::LineReader& r, std::uint64_t n,
                   std::vector<Choice>* out);

// One violation record, shared by the shard-result and checkpoint formats:
//   v <wire-kind> <exec_index> <test_index> <nchoices> <escaped detail>
// followed by its trail's nchoices choice lines.
[[nodiscard]] std::string render_violation(const Violation& v);
bool parse_violation(support::LineReader& r, Violation* out);

}  // namespace cds::mc

#endif  // CDS_MC_TRACE_H
