#include "dist/journal.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "mc/stats.h"
#include "mc/trace.h"
#include "support/io.h"
#include "support/kv.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_DIST_JOURNAL_POSIX 1
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cds::dist {

namespace {

// v2: the config fingerprint became render_fields(mc::ConfigFingerprint),
// so a v1 journal's fingerprint can never match; it is refused by version.
constexpr const char* kMagic = "cdsspec-journal v2";

std::string with_crc(std::string body) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, " #crc=%08" PRIx32,
                support::crc32(body));
  body += suffix;
  body += '\n';
  return body;
}

}  // namespace

std::string render_journal_record(const JournalRecord& r) {
  using support::escape_line;
  std::string body;
  char hex[40];
  switch (r.kind) {
    case JournalRecord::Kind::kRun:
      std::snprintf(hex, sizeof hex, "%08" PRIx32 " fingerprint=%08" PRIx32,
                    r.plan_hash, r.fingerprint);
      body = "run epoch=" + std::to_string(r.epoch) +
             " shards=" + std::to_string(r.shards) + " planhash=" + hex +
             " bench=" + escape_line(r.bench);
      break;
    case JournalRecord::Kind::kLease:
      body = "lease shard=" + std::to_string(r.shard) +
             " attempt=" + std::to_string(r.attempt);
      break;
    case JournalRecord::Kind::kResult:
      body = "result shard=" + std::to_string(r.shard) +
             " attempt=" + std::to_string(r.attempt) +
             " payload=" + escape_line(r.payload);
      break;
    case JournalRecord::Kind::kMint:
      body = "mint parent=" + std::to_string(r.shard) +
             " count=" + std::to_string(r.count);
      break;
    case JournalRecord::Kind::kFailed:
      body = "failed shard=" + std::to_string(r.shard) +
             " attempt=" + std::to_string(r.attempt) +
             " reason=" + escape_line(r.payload);
      break;
    case JournalRecord::Kind::kDone:
      body = "done verdict=" + std::to_string(r.verdict);
      break;
  }
  return with_crc(std::move(body));
}

bool parse_journal_record(const std::string& line, JournalRecord* out,
                          std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err) *err = why + ": '" + line.substr(0, 120) + "'";
    return false;
  };
  // " #crc=XXXXXXXX" is always the last 14 bytes; the CRC covers
  // everything before it.
  if (line.size() < 15) return fail("record too short");
  const std::size_t cpos = line.size() - 14;
  std::uint64_t want = 0;
  if (line.compare(cpos, 6, " #crc=") != 0 ||
      !support::parse_hex32(std::string_view(line).substr(cpos + 6), &want)) {
    return fail("missing or malformed crc suffix");
  }
  const std::string body = line.substr(0, cpos);
  if (support::crc32(body) != want) return fail("crc mismatch");

  // "<verb> k=v ... [<tail>=<escaped free text>]": the numeric fields
  // parse strictly (support::parse_kv_line); a record's free-text field,
  // if it has one, is last and runs to the end of the body.
  JournalRecord r;
  std::string_view fields = body;
  const std::string_view verb = support::take_word(&fields);
  std::string why;
  auto tail = [&](const char* key, std::string* to) {
    const std::string k = std::string(" ") + key + "=";
    const std::size_t at = fields.find(k);
    if (at == std::string_view::npos) return false;
    *to = support::unescape_line(fields.substr(at + k.size()));
    fields = fields.substr(0, at);
    return true;
  };
  bool ok = false;
  if (verb == "run") {
    std::uint64_t plan = 0, fp = 0;
    r.kind = JournalRecord::Kind::kRun;
    ok = tail("bench", &r.bench) && !r.bench.empty() &&
         support::parse_kv_line(
             fields,
             {{"epoch", &r.epoch},
              {"shards", &r.shards},
              {"planhash", &plan, support::parse_hex32},
              {"fingerprint", &fp, support::parse_hex32}},
             &why);
    r.plan_hash = static_cast<std::uint32_t>(plan);
    r.fingerprint = static_cast<std::uint32_t>(fp);
  } else if (verb == "lease") {
    r.kind = JournalRecord::Kind::kLease;
    ok = support::parse_kv_line(
        fields, {{"shard", &r.shard}, {"attempt", &r.attempt}}, &why);
  } else if (verb == "result" || verb == "failed") {
    const bool result = verb == "result";
    r.kind = result ? JournalRecord::Kind::kResult
                    : JournalRecord::Kind::kFailed;
    ok = tail(result ? "payload" : "reason", &r.payload) &&
         support::parse_kv_line(
             fields, {{"shard", &r.shard}, {"attempt", &r.attempt}}, &why);
  } else if (verb == "mint") {
    r.kind = JournalRecord::Kind::kMint;
    ok = support::parse_kv_line(
        fields, {{"parent", &r.shard}, {"count", &r.count}}, &why);
  } else if (verb == "done") {
    mc::Verdict v{};
    r.kind = JournalRecord::Kind::kDone;
    ok = support::parse_kv_line(fields, {{"verdict", &r.verdict}}, &why) &&
         from_wire(r.verdict, &v);
  }
  if (!ok) {
    return fail("unknown or malformed record" +
                (why.empty() ? std::string() : " (" + why + ")"));
  }
  *out = std::move(r);
  return true;
}

std::uint32_t journal_plan_hash(const std::vector<harness::ShardUnit>& units) {
  std::string s;
  for (const harness::ShardUnit& u : units) {
    s += std::to_string(u.test_index);
    s += ' ';
    s += std::to_string(u.engine_seed);
    s += ' ';
    s += std::to_string(u.sample_executions);
    s += '\n';
    s += mc::render_choices(u.prefix);
  }
  return support::crc32(s);
}

std::uint32_t journal_config_fingerprint(const mc::Config& engine) {
  return support::crc32(
      support::render_fields(mc::ConfigFingerprint::from(engine)));
}

bool load_journal(const std::string& path, JournalReplay* out,
                  std::string* err) {
  *out = JournalReplay{};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return true;  // fresh start, not an error
    if (err) *err = "cannot open '" + path + "': " + std::strerror(errno);
    return false;
  }
  std::string data;
  char buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (err) *err = "read error on '" + path + "'";
    return false;
  }

  const std::string magic = std::string(kMagic) + "\n";
  const std::string family = "cdsspec-journal v";
  const std::size_t nl = data.find('\n');
  if (nl != std::string::npos && data.compare(0, family.size(), family) == 0 &&
      data.compare(0, magic.size(), magic) != 0) {
    // An intact header of another version: the journal is not damaged,
    // just unreadable by this build, so refuse it by name and keep it.
    if (err) {
      *err = "'" + path + "' is a " + data.substr(0, nl) +
             " journal; this build reads " + kMagic +
             " (delete it, or resume with the build that wrote it)";
    }
    return false;
  }
  if (data.size() < magic.size() ||
      data.compare(0, magic.size(), magic) != 0) {
    // The header itself is damaged: nothing in the file can be trusted,
    // so set the whole file aside and report a fresh start.
    out->quarantined_bytes = data.size();
    out->quarantine_note = "'" + path +
                           "': missing or damaged journal header; whole file "
                           "quarantined";
    (void)std::rename(path.c_str(), (path + ".quarantined").c_str());
    (void)support::fsync_parent_dir(path);
    return true;
  }
  out->found = true;

  std::size_t pos = magic.size();
  std::size_t good_end = pos;
  std::string note;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      note = "torn record at byte " + std::to_string(pos) +
             " (no newline; append cut off mid-write?)";
      break;
    }
    JournalRecord r;
    std::string perr;
    if (!parse_journal_record(data.substr(pos, nl - pos), &r, &perr)) {
      note = "bad record at byte " + std::to_string(pos) + " (" + perr + ")";
      break;
    }
    if (r.kind == JournalRecord::Kind::kRun) {
      out->last_epoch = std::max(out->last_epoch, r.epoch);
    }
    out->records.push_back(std::move(r));
    pos = nl + 1;
    good_end = pos;
  }

  if (!note.empty()) {
    const std::string tail = data.substr(good_end);
    out->quarantined_bytes = tail.size();
    out->quarantine_note = "'" + path + "': " + note + "; " +
                           std::to_string(tail.size()) +
                           " tail bytes quarantined, journal truncated to "
                           "last good record";
    std::FILE* q = std::fopen((path + ".quarantined").c_str(), "wb");
    if (q != nullptr) {
      (void)std::fwrite(tail.data(), 1, tail.size(), q);
      std::fclose(q);
    }
#ifdef CDS_DIST_JOURNAL_POSIX
    if (truncate(path.c_str(), static_cast<off_t>(good_end)) == 0) {
      int fd = open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd >= 0) {
        (void)fsync(fd);
        close(fd);
      }
      (void)support::fsync_parent_dir(path);
    }
#endif
  }
  return true;
}

// ---------------------------------------------------------------------------
// JournalWriter
// ---------------------------------------------------------------------------

JournalWriter::~JournalWriter() { close_file(); }

bool JournalWriter::open(const std::string& path, bool truncate_file,
                         std::string* err) {
#ifdef CDS_DIST_JOURNAL_POSIX
  close_file();
  const int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                    (truncate_file ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0666);
  if (fd < 0) {
    if (err) *err = "cannot open '" + path + "': " + std::strerror(errno);
    return false;
  }
  struct stat st {};
  if (fstat(fd, &st) != 0) {
    if (err) *err = "fstat of '" + path + "' failed: " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  path_ = path;
  if (st.st_size == 0) {
    const std::string magic = std::string(kMagic) + "\n";
    if (!support::write_full(fd_, magic) || fsync(fd_) != 0 ||
        !support::fsync_parent_dir(path_)) {
      if (err) {
        *err = "cannot write journal header to '" + path +
               "': " + std::strerror(errno);
      }
      close_file();
      return false;
    }
  }
  return true;
#else
  (void)path;
  (void)truncate_file;
  if (err) *err = "journal unsupported on this platform";
  errno = ENOSYS;
  return false;
#endif
}

bool JournalWriter::append(const JournalRecord& r, std::string* err) {
#ifdef CDS_DIST_JOURNAL_POSIX
  if (fd_ < 0) {
    if (err) *err = "journal not open";
    return false;
  }
  const std::string line = render_journal_record(r);
  if (!support::write_full(fd_, line) || fsync(fd_) != 0) {
    if (err) {
      *err = "journal append to '" + path_ + "' failed: " +
             std::strerror(errno);
    }
    return false;
  }
  ++appends_;
  if (r.kind == JournalRecord::Kind::kResult) ++result_appends_;
  // Chaos fires only after the record is durable: a resumed run must be
  // able to rebuild from exactly what the journal order implies.
  if (chaos_.truncate_tail_after ==
      static_cast<std::ptrdiff_t>(appends_)) {
    struct stat st {};
    if (fstat(fd_, &st) == 0) {
      const off_t cut = static_cast<off_t>(chaos_.truncate_tail_bytes);
      (void)ftruncate(fd_, st.st_size > cut ? st.st_size - cut : 0);
      (void)fsync(fd_);
    }
    raise(SIGKILL);
  }
  if (chaos_.kill_after_append == static_cast<std::ptrdiff_t>(appends_)) {
    raise(SIGKILL);
  }
  if (r.kind == JournalRecord::Kind::kResult &&
      chaos_.kill_before_merge_on ==
          static_cast<std::ptrdiff_t>(result_appends_)) {
    raise(SIGKILL);
  }
  return true;
#else
  (void)r;
  if (err) *err = "journal unsupported on this platform";
  return false;
#endif
}

void JournalWriter::close_file() {
#ifdef CDS_DIST_JOURNAL_POSIX
  if (fd_ >= 0) {
    (void)fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
#endif
}

}  // namespace cds::dist
