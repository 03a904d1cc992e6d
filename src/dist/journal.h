// Write-ahead shard-outcome journal: the durability layer that makes a
// coordinated run (--dist-workers or --jobs) survive the coordinating
// process being SIGKILL'd, OOM-killed, or rebooted mid-run.
//
// The coordinator appends one checksummed record per event — run header,
// shard leased, shard result, sub-shards minted by work stealing,
// permanent failure — and fsyncs each append *before* the merge state
// consumes the event. On restart with --resume the journal is replayed:
// completed shards are satisfied from their journaled result text,
// in-flight ones are re-enqueued, and preempted shards re-mint their
// sub-shards deterministically (mc::split_remaining_frontier is a pure
// function of the journaled frontier), so the resumed run's verdict and
// merged counters are bit-identical to an uninterrupted one.
//
// Format (line-oriented; one record per line; `<esc>` =
// support::escape_line, so multi-line payloads ride on a single line):
//
//   cdsspec-journal v2
//   run epoch=<e> shards=<n> planhash=<8hex> fingerprint=<8hex> bench=<esc> #crc=<8hex>
//   lease shard=<i> attempt=<id> #crc=<8hex>
//   result shard=<i> attempt=<id> payload=<esc shard-result v5 text> #crc=<8hex>
//   mint parent=<i> count=<n> #crc=<8hex>
//   failed shard=<i> attempt=<id> reason=<esc> #crc=<8hex>
//   done verdict=<v> #crc=<8hex>
//
// Numeric fields are strict (support::parse_kv_line: decimal u64, each
// key exactly once; the hex digests exactly eight lowercase digits), and
// a record's one free-text field comes last. v2: the config fingerprint
// became the checksum of render_fields(mc::ConfigFingerprint); a v1
// journal is refused by version rather than as a config mismatch.
//
// Every record carries a CRC-32 of its own body; a torn or corrupted
// tail (power loss mid-append, bit rot) is detected on load, set aside
// in "<path>.quarantined", and the journal truncated back to the last
// good record — never a crash, never silent data loss. Each coordinator
// incarnation appends its own `run` record with a monotonically
// increasing epoch; attempt ids are minted as (epoch << 32 | counter),
// so a worker surviving from a previous incarnation can never collide
// with a fresh attempt id (epoch fencing).
#ifndef CDS_DIST_JOURNAL_H
#define CDS_DIST_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/chaos.h"
#include "harness/shard_result.h"
#include "mc/config.h"

namespace cds::dist {

struct JournalRecord {
  enum class Kind : std::uint8_t { kRun, kLease, kResult, kMint, kFailed, kDone };
  Kind kind = Kind::kRun;

  // kRun: one per coordinator incarnation.
  std::uint64_t epoch = 0;
  std::uint64_t shards = 0;       // planned shard count
  std::uint32_t plan_hash = 0;    // journal_plan_hash of the planned units
  std::uint32_t fingerprint = 0;  // journal_config_fingerprint
  std::string bench;

  // kLease / kResult / kFailed (kMint: `shard` is the preempted parent).
  std::uint64_t shard = 0;
  std::uint64_t attempt = 0;  // 0 = local fork-pool path (no lease)
  std::uint64_t count = 0;    // kMint: sub-shards appended

  // kResult: the raw shard-result v5 text exactly as the worker sent it
  // (pre-normalization, so replay re-mints preempted shards' sub-shards
  // from the journaled frontier). kFailed: the failure reason.
  std::string payload;

  std::uint64_t verdict = 0;  // kDone
};

// One line including the " #crc=XXXXXXXX" suffix and trailing newline.
std::string render_journal_record(const JournalRecord& r);

// Strict parse of one record line (no trailing newline): bad verb,
// missing field, or CRC mismatch fails with *out untouched.
bool parse_journal_record(const std::string& line, JournalRecord* out,
                          std::string* err);

// Deterministic digest of a shard plan: a resumed run re-plans and must
// land on the identical partition before any journaled result is trusted.
std::uint32_t journal_plan_hash(const std::vector<harness::ShardUnit>& units);

// Digest of the exploration-shaping config (render_fields of its
// mc::ConfigFingerprint, checksummed), pairing with the plan hash in the
// run header.
std::uint32_t journal_config_fingerprint(const mc::Config& engine);

struct JournalReplay {
  bool found = false;  // file existed with a valid magic header
  std::vector<JournalRecord> records;  // valid records, journal order
  std::uint64_t last_epoch = 0;        // max epoch across run records
  // Torn/corrupt tail handling: bytes set aside in "<path>.quarantined"
  // and a human diagnostic. Empty note = the journal was clean.
  std::uint64_t quarantined_bytes = 0;
  std::string quarantine_note;
};

// Loads and validates `path`. A missing file is found=false (fresh
// start), not an error. A torn or corrupt tail is quarantined to
// "<path>.quarantined" and the journal truncated back to its last good
// record so subsequent appends continue a clean file; a file whose magic
// header is damaged is quarantined whole. Returns false, leaving the file
// in place, for a journal of another version (the message names both)
// or a filesystem-level failure reading the file.
bool load_journal(const std::string& path, JournalReplay* out,
                  std::string* err);

// Appender with fsync-per-record write-ahead discipline. append()
// returns only after the record is durable (file fsync'd; the directory
// is fsync'd once at creation), so a caller that applies the event after
// append() observes strict WAL ordering.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Opens for appending, creating (with magic header) if missing or
  // `truncate` is set. fsyncs the containing directory on creation.
  bool open(const std::string& path, bool truncate, std::string* err);
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  // Chaos injections fire inside append(), after the record is durable.
  void set_chaos(const CoordinatorChaos& chaos) { chaos_ = chaos; }

  bool append(const JournalRecord& r, std::string* err);
  [[nodiscard]] std::uint64_t appends() const { return appends_; }

  void close_file();

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t appends_ = 0;
  std::uint64_t result_appends_ = 0;
  CoordinatorChaos chaos_;
};

}  // namespace cds::dist

#endif  // CDS_DIST_JOURNAL_H
