#include "mc/checkpoint.h"

#include <cstdio>
#include <sstream>

#include "mc/trace.h"
#include "support/kv.h"

namespace cds::mc {

using support::LineReader;

const char* to_string(Checkpoint::Phase p) {
  switch (p) {
    case Checkpoint::Phase::kStart:
      return "start";
    case Checkpoint::Phase::kDfs:
      return "dfs";
    case Checkpoint::Phase::kSampling:
      return "sampling";
  }
  return "?";
}

std::uint64_t Checkpoint::extra_value(const std::string& key,
                                      std::uint64_t fallback) const {
  for (const auto& [k, v] : extra) {
    if (k == key) return v;
  }
  return fallback;
}

void Checkpoint::set_extra(const std::string& key, std::uint64_t value) {
  support::set_pair(extra, key, value);
}

std::string render_checkpoint(const Checkpoint& cp) {
  std::ostringstream os;
  os << "cdsspec-checkpoint v" << Checkpoint::kVersion << '\n';
  os << "test " << cp.test_name << '\n';
  os << "test_index " << cp.test_index << '\n';
  os << "phase " << to_string(cp.phase) << '\n';
  os << "rng " << cp.rng_state << '\n';
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", cp.elapsed_seconds);
  os << "elapsed " << buf << '\n';
  os << "config " << support::render_fields(cp.config) << '\n';
  os << "stats " << support::render_fields(cp.stats)
     << " last_progress=" << cp.last_progress_exec << '\n';
  os << "violations " << cp.violations.size() << '\n';
  for (const Violation& v : cp.violations) os << render_violation(v);
  os << "extra " << cp.extra.size() << '\n';
  for (const auto& [k, v] : cp.extra) {
    os << "x " << k << ' ' << v << '\n';
  }
  os << "trail " << cp.trail.size() << '\n';
  os << render_choices(cp.trail);
  os << "end\n";
  return os.str();
}

bool parse_checkpoint(const std::string& text, Checkpoint* out,
                      std::string* err) {
  *out = Checkpoint{};
  LineReader r(text, LineReader::Kind::kFile, err);
  std::string_view rest;
  std::string why;
  if (!r.header("cdsspec-checkpoint", Checkpoint::kVersion)) return false;
  if (!r.expect("test", &rest)) return false;
  out->test_name = rest;
  if (!r.expect("test_index", &rest)) return false;
  if (!support::parse_u64(rest, &out->test_index)) {
    return r.fail("malformed test_index");
  }
  if (!r.expect("phase", &rest)) return false;
  if (rest == "start") {
    out->phase = Checkpoint::Phase::kStart;
  } else if (rest == "dfs") {
    out->phase = Checkpoint::Phase::kDfs;
  } else if (rest == "sampling") {
    out->phase = Checkpoint::Phase::kSampling;
  } else {
    return r.fail("unknown phase '" + std::string(rest) + "'");
  }
  if (!r.expect("rng", &rest)) return false;
  if (!support::parse_u64(rest, &out->rng_state)) {
    return r.fail("malformed rng state");
  }
  if (!r.expect("elapsed", &rest)) return false;
  if (!support::parse_seconds(rest, &out->elapsed_seconds)) {
    return r.fail("malformed elapsed seconds");
  }
  if (!r.expect("config", &rest)) return false;
  if (!support::parse_fields(rest, &out->config, &why)) {
    return r.fail("config: " + why);
  }
  if (!r.expect("stats", &rest)) return false;
  if (!support::parse_fields(rest, &out->stats, &why,
                             {{"last_progress", &out->last_progress_exec}})) {
    return r.fail("stats: " + why);
  }

  std::uint64_t n = 0;
  if (!r.count("violations", &n)) return false;
  out->violations.resize(n);
  for (Violation& v : out->violations) {
    if (!parse_violation(r, &v)) return false;
  }
  if (!r.count("extra", &n)) return false;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::uint64_t val = 0;
    if (!r.expect("x", &rest)) return false;
    const std::string_view key = support::take_word(&rest);
    if (key.empty() || !support::parse_u64(rest, &val)) {
      return r.fail("malformed extra line");
    }
    out->extra.emplace_back(key, val);
  }
  return r.count("trail", &n) && parse_choices(r, n, &out->trail) && r.end();
}

bool write_checkpoint_file(const std::string& path, const Checkpoint& cp,
                           std::string* err) {
  return write_text_file_atomic(path, render_checkpoint(cp), err);
}

bool load_checkpoint_file(const std::string& path, Checkpoint* out,
                          std::string* err) {
  std::string text;
  if (!read_text_file(path, &text, err)) return false;
  if (!parse_checkpoint(text, out, err)) {
    if (err != nullptr) *err = path + ": " + *err;
    return false;
  }
  return true;
}

}  // namespace cds::mc
