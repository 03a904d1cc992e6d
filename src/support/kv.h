// Strict key=value codec, the line reader every text format parses
// through, and the table helpers built on them.
//
// Every counter a run reports (mc::ExplorationStats, spec::SpecChecker::
// Stats) and every config field that crosses a process or file boundary
// (mc::Config, spec::SpecChecker::Options) is declared once, as a row of
// an X-macro table next to its struct. Everything that copies, folds or
// serializes those fields is generated from the table with the helpers
// below: the struct members (CDS_STATS_MEMBER), a field visitor
// (CDS_STATS_VISIT), the shard merge (CDS_STATS_FOLD), the
// `key=value ...` wire line (render_fields / parse_fields) and the
// checkpoint extras (put_fields / get_fields). Adding a counter is one
// table row plus the line that bumps it.
#ifndef CDS_SUPPORT_KV_H
#define CDS_SUPPORT_KV_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cds::support {

// Decimal digits only, the whole string, no overflow: rejects the empty
// string, signs, whitespace, suffixes and values above 2^64-1 — all of
// which strtoull would silently accept, wrap or truncate.
bool parse_u64(std::string_view s, std::uint64_t* out);

// Exactly eight lowercase hex digits (a CRC-32 or a 32-bit digest as the
// journal writes them).
bool parse_hex32(std::string_view s, std::uint64_t* out);

// A duration in seconds: decimal digits with an optional fraction
// ("2", "0.25"), finite and non-negative. Rejects what strtod accepts
// beyond that: signs, whitespace, exponents, hex, "nan" and "inf".
bool parse_seconds(std::string_view s, double* out);

// Splits off the first space-separated word of *s ("a b c" -> "a",
// leaving "b c"; the last word leaves *s empty).
std::string_view take_word(std::string_view* s);

// Single-line payload fields: backslash and newline become "\\\\" and
// "\\n", exactly invertible.
std::string escape_line(std::string_view s);
std::string unescape_line(std::string_view s);

struct KvSlot {
  std::string_view key;
  std::uint64_t* value;
  bool (*parse)(std::string_view, std::uint64_t*) = parse_u64;
};

// Parses "k1=v1 k2=v2 ..." (tokens separated by single spaces, values by
// each slot's parser) into `slots`. Every slot's key must appear exactly
// once; an unknown, missing or repeated key is an error naming it. On
// failure the slots may be partially written.
bool parse_kv_line(std::string_view line, const std::vector<KvSlot>& slots,
                   std::string* err);

// Reads one line-oriented text format front to back. Every diagnostic
// names the 1-based source line it is about ("line 7: ..."). File formats
// (.trail, checkpoint) skip blank lines and '#' comments and tolerate
// CRLF; wire formats (shard result, shard assignment) take every line as
// it is.
class LineReader {
 public:
  enum class Kind : std::uint8_t { kWire, kFile };

  // `text` must outlive the reader; diagnostics go to *err.
  LineReader(std::string_view text, Kind kind, std::string* err);

  // The "<magic> v<N>" header line; any other N fails naming both
  // versions, so stale input is refused instead of misread.
  bool header(std::string_view magic, std::uint64_t version);
  // The next line, consumed; false with a diagnostic at the end.
  bool next(std::string_view* line);
  // Consumes the next line if it is `keyword` alone or `keyword` and a
  // space, the remainder in *rest; otherwise consumes nothing.
  bool take(std::string_view keyword, std::string_view* rest);
  // take() that must succeed: a diagnostic names the keyword otherwise.
  bool expect(std::string_view keyword, std::string_view* rest);
  // A "<word> <count>" section header; the count may not exceed the lines
  // left, so a corrupt count fails here instead of reserving memory.
  bool count(std::string_view word, std::uint64_t* n);
  // The "end" terminator, with nothing after it.
  bool end();

  // Sets the diagnostic "line N: what" for the line last consumed and
  // returns false.
  bool fail(const std::string& what);

 private:
  struct Line {
    std::string_view text;
    std::size_t number;
  };
  std::vector<Line> lines_;
  std::size_t next_ = 0;
  std::size_t number_ = 1;  // source line of the last consumed line
  std::string* err_;
};

// ---------------------------------------------------------------------------
// Stats tables
// ---------------------------------------------------------------------------

// A fresh field's value: zero unless a table's type says otherwise
// (mc/stats.h starts a verdict at inconclusive).
template <class T>
inline constexpr T initial{};

#define CDS_STATS_MEMBER(type, member, key, fold) \
  type member = ::cds::support::initial<type>;
#define CDS_STATS_VISIT(type, member, key, fold) f(key, s.member);
#define CDS_STATS_FOLD(type, member, key, fold) \
  ::cds::support::fold_##fold(into.member, from.member);
// Config tables (mc/config.h, spec/checker.h) are X(member, key, shape):
// the struct declares its own members, the table only names them.
#define CDS_CONFIG_VISIT(member, key, shape) f(key, s.member);

// Fold kinds: how a field of two disjoint explorations combines.
template <class T>
void fold_sum(T& into, const T& from) {
  into += from;
}
inline void fold_any(bool& into, bool from) { into = into || from; }
inline void fold_all(bool& into, bool from) { into = into && from; }
inline void fold_max(std::uint64_t& into, std::uint64_t from) {
  if (from > into) into = from;
}
// Carried on the wire but not folded: the merger decides (verdict,
// preemption) or the value is run-level (seed).
template <class T>
void fold_keep(T&, const T&) {}

// A field's u64 wire image: booleans as 0/1, seconds (and fractions) as
// whole millionths. from_wire rejects an image the type cannot hold.
// Enumerations add their own overloads next to their table (found by ADL).
inline std::uint64_t to_wire(std::uint64_t v) { return v; }
inline std::uint64_t to_wire(std::uint32_t v) { return v; }
inline std::uint64_t to_wire(int v) { return static_cast<std::uint64_t>(v); }
inline std::uint64_t to_wire(bool v) { return v ? 1 : 0; }
inline std::uint64_t to_wire(double seconds) {
  // Saturates: a cast of an out-of-range double is undefined.
  const double us = seconds * 1e6;
  if (!(us > 0)) return 0;
  return us < 18446744073709551615.0 ? static_cast<std::uint64_t>(us)
                                     : UINT64_MAX;
}
inline bool from_wire(std::uint64_t w, std::uint64_t* v) {
  *v = w;
  return true;
}
inline bool from_wire(std::uint64_t w, std::uint32_t* v) {
  *v = static_cast<std::uint32_t>(w);
  return w <= UINT32_MAX;
}
inline bool from_wire(std::uint64_t w, int* v) {
  *v = static_cast<int>(w);
  return w <= INT32_MAX;
}
inline bool from_wire(std::uint64_t w, bool* v) {
  *v = w != 0;
  return w <= 1;
}
inline bool from_wire(std::uint64_t w, double* v) {
  *v = static_cast<double>(w) / 1e6;
  return true;
}

// "key=value ..." for every row of table S, in table order.
template <class S>
std::string render_fields(const S& s) {
  std::string out;
  S::each(s, [&](const char* key, const auto& v) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += std::to_string(to_wire(v));
  });
  return out;
}

// Strict inverse of render_fields: every row's key exactly once, plus the
// caller's `more` slots for keys the line carries beyond the table.
template <class S>
bool parse_fields(std::string_view line, S* s, std::string* err,
                  std::vector<KvSlot> more = {}) {
  std::size_t n = 0;
  S::each(*s, [&](const char*, const auto&) { ++n; });
  std::vector<std::uint64_t> raw(n);
  n = 0;
  S::each(*s, [&](const char* key, const auto&) {
    more.push_back({key, &raw[n++]});
  });
  if (!parse_kv_line(line, more, err)) return false;
  n = 0;
  bool ok = true;
  S::each(*s, [&](const char* key, auto& v) {
    if (ok && !from_wire(raw[n], &v)) {
      *err = std::string("value out of range for '") + key + "'";
      ok = false;
    }
    ++n;
  });
  return ok;
}

// Checkpoint extras: one "<prefix><key>" entry per row, set or appended.
using KvPairs = std::vector<std::pair<std::string, std::uint64_t>>;

void set_pair(KvPairs& pairs, const std::string& key, std::uint64_t value);

template <class S>
void put_fields(KvPairs& pairs, const std::string& prefix, const S& s) {
  S::each(s, [&](const char* key, const auto& v) {
    set_pair(pairs, prefix + key, to_wire(v));
  });
}

// Reads back what put_fields wrote; a row with no entry keeps its value.
template <class S>
void get_fields(const KvPairs& pairs, const std::string& prefix, S* s) {
  S::each(*s, [&](const char* key, auto& v) {
    const std::string want = prefix + key;
    for (const auto& [k, w] : pairs) {
      if (k == want) {
        (void)from_wire(w, &v);
        break;
      }
    }
  });
}

}  // namespace cds::support

#endif  // CDS_SUPPORT_KV_H
