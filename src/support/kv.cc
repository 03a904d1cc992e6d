#include "support/kv.h"

#include <cstring>

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
    if (!parse_u64(tok.substr(eq + 1), slots[s].value)) {
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

bool take_keyword(const std::string& line, const char* key, std::string* rest) {
  std::size_t klen = std::strlen(key);
  if (line.compare(0, klen, key) != 0) return false;
  if (line.size() == klen) {
    rest->clear();
    return true;
  }
  if (line[klen] != ' ') return false;
  *rest = line.substr(klen + 1);
  return true;
}

std::string flatten(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
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
