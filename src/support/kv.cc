#include "support/kv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace cds::support {

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

bool parse_hex32(std::string_view s, std::uint64_t* out) {
  if (s.size() != 8) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && (c < 'a' || c > 'f')) return false;
    v = v * 16 + static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  *out = v;
  return true;
}

bool parse_seconds(std::string_view s, double* out) {
  const std::size_t dot = s.find('.');
  const std::string_view whole = s.substr(0, dot);
  const std::string_view frac =
      dot == std::string_view::npos ? std::string_view() : s.substr(dot + 1);
  auto digits = [](std::string_view d) {
    if (d.empty()) return false;
    for (char c : d) {
      if (c < '0' || c > '9') return false;
    }
    return true;
  };
  if (!digits(whole) || (dot != std::string_view::npos && !digits(frac))) {
    return false;
  }
  // The grammar above is a subset of strtod's, so strtod only converts.
  const std::string buf(s);
  errno = 0;
  const double v = std::strtod(buf.c_str(), nullptr);
  if (errno != 0 || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string_view take_word(std::string_view* s) {
  const std::size_t sp = s->find(' ');
  const std::string_view word = s->substr(0, sp);
  s->remove_prefix(sp == std::string_view::npos ? s->size() : sp + 1);
  return word;
}

std::string escape_line(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_line(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i + 1] == 'n' ? '\n' : s[i + 1];
      ++i;
    } else {
      out += s[i];
    }
  }
  return out;
}

bool parse_kv_line(std::string_view line, const std::vector<KvSlot>& slots,
                   std::string* err) {
  std::vector<bool> seen(slots.size(), false);
  for (std::size_t pos = 0; !line.empty() && pos <= line.size();) {
    std::size_t sp = line.find(' ', pos);
    if (sp == std::string_view::npos) sp = line.size();
    const std::string_view tok = line.substr(pos, sp - pos);
    pos = sp + 1;
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos) {
      *err = "malformed entry '" + std::string(tok) + "'";
      return false;
    }
    const std::string_view key = tok.substr(0, eq);
    std::size_t s = 0;
    while (s < slots.size() && slots[s].key != key) ++s;
    if (s == slots.size()) {
      *err = "unknown key '" + std::string(key) + "'";
      return false;
    }
    if (seen[s]) {
      *err = "duplicate key '" + std::string(key) + "'";
      return false;
    }
    if (!slots[s].parse(tok.substr(eq + 1), slots[s].value)) {
      *err = "malformed value in '" + std::string(tok) + "'";
      return false;
    }
    seen[s] = true;
  }
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!seen[s]) {
      *err = "missing key '" + std::string(slots[s].key) + "'";
      return false;
    }
  }
  return true;
}

LineReader::LineReader(std::string_view text, Kind kind, std::string* err)
    : err_(err) {
  std::size_t number = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++number;
    if (kind == Kind::kFile) {
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      const std::size_t start = line.find_first_not_of(" \t");
      if (start == std::string_view::npos || line[start] == '#') continue;
    }
    lines_.push_back(Line{line, number});
  }
}

bool LineReader::header(std::string_view magic, std::uint64_t version) {
  const std::string want =
      std::string(magic) + " v" + std::to_string(version);
  if (lines_.empty()) return fail("empty input (expected '" + want + "')");
  std::string_view rest;
  std::uint64_t got = 0;
  if (!expect(magic, &rest)) return false;
  if (rest.size() < 2 || rest[0] != 'v' || !parse_u64(rest.substr(1), &got)) {
    return fail("malformed version '" + std::string(rest.substr(0, 60)) +
                "' (expected '" + want + "')");
  }
  if (got != version) {
    return fail("unsupported version: '" + std::string(magic) + " v" +
                std::to_string(got) + "' (this build reads '" + want + "')");
  }
  return true;
}

bool LineReader::next(std::string_view* line) {
  if (next_ == lines_.size()) {
    number_ = lines_.empty() ? 1 : lines_.back().number + 1;
    return fail("truncated: the input ends here");
  }
  number_ = lines_[next_].number;
  *line = lines_[next_++].text;
  return true;
}

bool LineReader::take(std::string_view keyword, std::string_view* rest) {
  if (next_ == lines_.size()) return false;
  std::string_view line = lines_[next_].text;
  if (line.substr(0, keyword.size()) != keyword) return false;
  line.remove_prefix(keyword.size());
  if (!line.empty() && line[0] != ' ') return false;
  *rest = line.empty() ? line : line.substr(1);
  number_ = lines_[next_++].number;
  return true;
}

bool LineReader::expect(std::string_view keyword, std::string_view* rest) {
  if (take(keyword, rest)) return true;
  std::string_view line;
  const std::string want = "expected '" + std::string(keyword) + "'";
  if (!next(&line)) return fail("truncated: " + want);
  return fail(want + ", found '" + std::string(line.substr(0, 60)) + "'");
}

bool LineReader::count(std::string_view word, std::uint64_t* n) {
  std::string_view rest;
  if (!expect(word, &rest)) return false;
  if (!parse_u64(rest, n)) {
    return fail("malformed count in '" + std::string(word) + " " +
                std::string(rest.substr(0, 60)) + "'");
  }
  if (*n > lines_.size() - next_) {
    return fail("'" + std::string(word) + " " + std::to_string(*n) +
                "' exceeds the " + std::to_string(lines_.size() - next_) +
                " lines left");
  }
  return true;
}

bool LineReader::end() {
  std::string_view line;
  if (next_ == lines_.size() || lines_[next_].text != "end") {
    if (!next(&line)) {
      return fail("missing 'end' terminator (input cut off mid-write?)");
    }
    return fail("missing 'end' terminator, found '" +
                std::string(line.substr(0, 60)) + "'");
  }
  number_ = lines_[next_++].number;
  if (next_ != lines_.size()) {
    number_ = lines_[next_].number;
    return fail("trailing garbage after 'end'");
  }
  return true;
}

bool LineReader::fail(const std::string& what) {
  if (err_ != nullptr) *err_ = "line " + std::to_string(number_) + ": " + what;
  return false;
}

void set_pair(KvPairs& pairs, const std::string& key, std::uint64_t value) {
  for (auto& [k, v] : pairs) {
    if (k == key) {
      v = value;
      return;
    }
  }
  pairs.emplace_back(key, value);
}

}  // namespace cds::support
