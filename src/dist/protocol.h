// Wire protocol for the distributed coordinator/worker fleet.
//
// Line-oriented over a byte stream (TCP or Unix-domain socket), in the
// same discipline as the shard-result format: every message is either a
// single control line or a control line announcing a length-prefixed
// payload block. The coordinator speaks assign/steal/quit; workers speak
// hello/heartbeat/result/failed.
//
//   worker -> coordinator
//     hello cdsspec-dist v1 pid=<pid>
//     hb <shard_id>
//     result <shard_id> <nbytes>\n<nbytes of shard-result v5 text>
//     failed <shard_id> <escaped reason>
//
//   coordinator -> worker
//     welcome cdsspec-dist v1 hb_us=<heartbeat us> epoch=<incarnation>
//     assign <shard_id> <nbytes>\n<nbytes of shard-assign v2 text>
//     steal <shard_id>
//     quit
//
// The welcome epoch is the coordinator's journal incarnation: a resumed
// coordinator greets with a higher epoch, and since attempt ids embed
// the epoch in their high 32 bits, results a worker computed for a
// previous incarnation can never collide with a fresh attempt id.
//
// The assign payload carries everything a (possibly remote, freshly
// started) worker needs to reproduce the coordinator's exploration tree
// bit-exactly: the benchmark key, the unit (test index, subtree prefix,
// pre-derived seed and sampling budget), and the tree-shaping and budget
// configuration:
//
//   shard-assign v2
//   id <shard_id>
//   bench <escaped benchmark key>
//   unit test=<i> ordinal=<k> total=<n> seed=<engine seed> samples=<n>
//   engine seed=.. stale=.. ... explore=.. threads=.. ... unsound=..
//   checker histories=.. sampled=.. ... seed=..
//   prefix <n>
//   S 1/2                                  # n subtree-prefix choices
//   end
//
// The `engine` and `checker` lines carry every row of the mc::Config and
// SpecChecker::Options tables (support::render_fields). v2 generates them
// from those tables, which added the exploration mode: a v1 worker ran
// schedule mode under rf prefixes. Parsing is strict: unknown keys,
// missing keys, bad counts, or truncation reject the whole message with a
// line/token diagnostic and leave the output object untouched.
#ifndef CDS_DIST_PROTOCOL_H
#define CDS_DIST_PROTOCOL_H

#include <cstdint>
#include <string>

#include "harness/shard_result.h"
#include "mc/config.h"
#include "spec/checker.h"

namespace cds::dist {

inline constexpr const char* kProtocolVersion = "cdsspec-dist v1";
inline constexpr std::uint64_t kAssignVersion = 2;

// ---------------------------------------------------------------------------
// Control lines
// ---------------------------------------------------------------------------

struct ControlLine {
  enum class Kind : std::uint8_t {
    kHello,
    kWelcome,
    kHeartbeat,
    kResult,
    kFailed,
    kAssign,
    kSteal,
    kQuit,
  };
  Kind kind = Kind::kQuit;
  std::uint64_t shard_id = 0;     // hb / result / failed / assign / steal
  std::uint64_t payload_len = 0;  // result / assign
  std::uint64_t pid = 0;          // hello
  std::uint64_t heartbeat_us = 0; // welcome
  std::uint64_t epoch = 0;        // welcome (coordinator incarnation)
  std::string reason;             // failed (unescaped)
};

std::string render_hello(std::uint64_t pid);
std::string render_welcome(std::uint64_t heartbeat_us, std::uint64_t epoch);
std::string render_heartbeat(std::uint64_t shard_id);
std::string render_result_header(std::uint64_t shard_id, std::uint64_t len);
std::string render_failed(std::uint64_t shard_id, const std::string& reason);
std::string render_assign_header(std::uint64_t shard_id, std::uint64_t len);
std::string render_steal(std::uint64_t shard_id);
std::string render_quit();

// Strict parse of one control line (no trailing newline). On failure *err
// names the offending token and *out is untouched.
bool parse_control_line(const std::string& line, ControlLine* out,
                        std::string* err);

// ---------------------------------------------------------------------------
// Assignment payload
// ---------------------------------------------------------------------------

struct Assignment {
  std::uint64_t shard_id = 0;
  std::string bench;  // benchmark registry key
  harness::ShardUnit unit;
  // Tree-shaping and budget knobs forwarded so a standalone worker
  // explores the exact same bounded tree as the coordinator planned.
  mc::Config engine;
  spec::SpecChecker::Options checker;
};

std::string render_assignment(const Assignment& a);

// Strict parse; on failure *err carries a "line N: ..." diagnostic and
// *out is untouched.
bool parse_assignment(const std::string& text, Assignment* out,
                      std::string* err);

}  // namespace cds::dist

#endif  // CDS_DIST_PROTOCOL_H
