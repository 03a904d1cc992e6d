// Strict key=value codec and the stats-table helpers built on it.
//
// Every counter a run reports (mc::ExplorationStats, spec::SpecChecker::
// Stats) is declared once, as a row of an X-macro table
//
//   X(type, member, wire key, fold)
//
// and everything that copies, folds or serializes the counters is
// generated from that table with the helpers below: the struct members
// (CDS_STATS_MEMBER), a field visitor (CDS_STATS_VISIT), the shard merge
// (CDS_STATS_FOLD), the `key=value ...` wire line (render_fields /
// parse_fields) and the checkpoint extras (put_fields / get_fields).
// Adding a counter is one table row plus the line that bumps it.
#ifndef CDS_SUPPORT_KV_H
#define CDS_SUPPORT_KV_H

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

struct KvSlot {
  std::string_view key;
  std::uint64_t* value;
};

// Parses "k1=v1 k2=v2 ..." (tokens separated by single spaces, values by
// parse_u64) into `slots`. Every slot's key must appear exactly once; an
// unknown, missing or repeated key is an error naming it. On failure the
// slots may be partially written.
bool parse_kv_line(std::string_view line, const std::vector<KvSlot>& slots,
                   std::string* err);

// Keyword lines of the text formats (.trail, checkpoint): true when `line`
// is `key` alone or `key` and a space, with the remainder in *rest.
bool take_keyword(const std::string& line, const char* key, std::string* rest);

// `s` on one line: newlines and carriage returns become spaces.
std::string flatten(const std::string& s);

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

// A field's u64 wire image: booleans as 0/1, seconds as whole
// microseconds. from_wire rejects an image the type cannot hold.
// Enumerations add their own overloads next to their table (found by ADL).
inline std::uint64_t to_wire(std::uint64_t v) { return v; }
inline std::uint64_t to_wire(bool v) { return v ? 1 : 0; }
inline std::uint64_t to_wire(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e6);
}
inline bool from_wire(std::uint64_t w, std::uint64_t* v) {
  *v = w;
  return true;
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
