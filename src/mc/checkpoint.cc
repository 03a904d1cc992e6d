#include "mc/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "mc/trace.h"
#include "support/kv.h"

namespace cds::mc {

using support::flatten;
using support::take_keyword;

namespace {

bool parse_double_tok(const std::string& s, double* out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

std::vector<std::string> significant_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string raw;
  while (std::getline(is, raw)) {
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    std::size_t start = raw.find_first_not_of(" \t");
    if (start == std::string::npos || raw[start] == '#') continue;
    lines.push_back(raw);
  }
  return lines;
}

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

}  // namespace

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

std::string render_config_fingerprint(const Config& cfg) {
  std::ostringstream os;
  os << "stale=" << cfg.stale_read_bound << " max_steps=" << cfg.max_steps
     << " strengthen_sc=" << (cfg.strengthen_to_sc ? 1 : 0)
     << " sleep_sets=" << (cfg.enable_sleep_sets ? 1 : 0)
     << " explore=" << to_string(cfg.explore) << " seed=" << cfg.seed;
  return os.str();
}

void Checkpoint::fingerprint_from(const Config& cfg) {
  seed = cfg.seed;
  stale_read_bound = cfg.stale_read_bound;
  max_steps = cfg.max_steps;
  strengthen_to_sc = cfg.strengthen_to_sc;
  enable_sleep_sets = cfg.enable_sleep_sets;
  explore = cfg.explore;
  if (!cfg.test_name.empty()) test_name = cfg.test_name;
  test_index = cfg.test_index;
}

std::string Checkpoint::fingerprint_mismatch(const Config& cfg) const {
  // A checkpoint's fingerprint fields mirror a TrailFile's, so the
  // comparison logic is shared with it.
  TrailFile fp;
  fp.test_name = test_name;
  fp.seed = seed;
  fp.stale_read_bound = stale_read_bound;
  fp.max_steps = max_steps;
  fp.strengthen_to_sc = strengthen_to_sc;
  fp.enable_sleep_sets = enable_sleep_sets;
  fp.explore = explore;
  return fp.fingerprint_mismatch(cfg);
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
  os << "seed " << cp.seed << '\n';
  os << "phase " << to_string(cp.phase) << '\n';
  os << "rng " << cp.rng_state << '\n';
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", cp.elapsed_seconds);
  os << "elapsed " << buf << '\n';
  os << "config stale=" << cp.stale_read_bound << " max_steps=" << cp.max_steps
     << " strengthen_sc=" << (cp.strengthen_to_sc ? 1 : 0)
     << " sleep_sets=" << (cp.enable_sleep_sets ? 1 : 0)
     << " explore=" << (cp.explore == ExploreMode::kRf ? 1 : 0) << '\n';
  os << "stats " << support::render_fields(cp.stats)
     << " last_progress=" << cp.last_progress_exec << '\n';
  os << "violations " << cp.violations.size() << '\n';
  for (const Violation& v : cp.violations) {
    os << "v " << wire_name(v.kind) << ' ' << v.execution_index << ' '
       << v.test_index << ' ' << flatten(v.detail) << '\n';
  }
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
  std::vector<std::string> lines = significant_lines(text);
  std::size_t i = 0;
  auto need = [&](const char* what) {
    return fail(err, std::string("truncated checkpoint: missing ") + what);
  };

  if (lines.empty()) return fail(err, "empty checkpoint file");
  std::string rest;
  if (!take_keyword(lines[i], "cdsspec-checkpoint", &rest)) {
    return fail(err, "not a checkpoint file (expected 'cdsspec-checkpoint v" +
                         std::to_string(Checkpoint::kVersion) + "' header)");
  }
  std::uint64_t ver = 0;
  if (rest.size() < 2 || rest[0] != 'v' ||
      !support::parse_u64(rest.substr(1), &ver)) {
    return fail(err, "malformed checkpoint version '" + rest + "'");
  }
  if (ver != Checkpoint::kVersion) {
    return fail(err, "unsupported checkpoint version v" + std::to_string(ver) +
                         " (this build reads v" +
                         std::to_string(Checkpoint::kVersion) +
                         "; delete the file to start fresh)");
  }
  ++i;

  if (i >= lines.size() || !take_keyword(lines[i], "test", &out->test_name)) {
    return need("'test <name>'");
  }
  ++i;
  if (i >= lines.size() || !take_keyword(lines[i], "test_index", &rest) ||
      !support::parse_u64(rest, &out->test_index)) {
    return need("'test_index <n>'");
  }
  ++i;
  if (i >= lines.size() || !take_keyword(lines[i], "seed", &rest) ||
      !support::parse_u64(rest, &out->seed)) {
    return need("'seed <n>'");
  }
  ++i;
  if (i >= lines.size() || !take_keyword(lines[i], "phase", &rest)) {
    return need("'phase start|dfs|sampling'");
  }
  if (rest == "start") {
    out->phase = Checkpoint::Phase::kStart;
  } else if (rest == "dfs") {
    out->phase = Checkpoint::Phase::kDfs;
  } else if (rest == "sampling") {
    out->phase = Checkpoint::Phase::kSampling;
  } else {
    return fail(err, "unknown phase '" + rest + "'");
  }
  ++i;
  if (i >= lines.size() || !take_keyword(lines[i], "rng", &rest) ||
      !support::parse_u64(rest, &out->rng_state)) {
    return need("'rng <state>'");
  }
  ++i;
  if (i >= lines.size() || !take_keyword(lines[i], "elapsed", &rest) ||
      !parse_double_tok(rest, &out->elapsed_seconds)) {
    return need("'elapsed <seconds>'");
  }
  ++i;

  if (i >= lines.size() || !take_keyword(lines[i], "config", &rest)) {
    return need("'config ...'");
  }
  std::string why;
  {
    std::uint64_t stale = 0, steps = 0, sc = 0, sleeps = 0, explore = 0;
    if (!support::parse_kv_line(rest,
                                {{"stale", &stale},
                                 {"max_steps", &steps},
                                 {"strengthen_sc", &sc},
                                 {"sleep_sets", &sleeps},
                                 {"explore", &explore}},
                                &why)) {
      return fail(err, "config: " + why);
    }
    out->stale_read_bound = static_cast<std::uint32_t>(stale);
    out->max_steps = steps;
    out->strengthen_to_sc = sc != 0;
    out->enable_sleep_sets = sleeps != 0;
    out->explore = explore != 0 ? ExploreMode::kRf : ExploreMode::kSchedule;
  }
  ++i;

  if (i >= lines.size() || !take_keyword(lines[i], "stats", &rest)) {
    return need("'stats ...'");
  }
  if (!support::parse_fields(rest, &out->stats, &why,
                             {{"last_progress", &out->last_progress_exec}})) {
    return fail(err, "stats: " + why);
  }
  ++i;

  std::uint64_t n = 0;
  if (i >= lines.size() || !take_keyword(lines[i], "violations", &rest) ||
      !support::parse_u64(rest, &n)) {
    return need("'violations <count>'");
  }
  ++i;
  for (std::uint64_t k = 0; k < n; ++k) {
    if (i >= lines.size() || !take_keyword(lines[i], "v", &rest)) {
      return fail(err, "truncated checkpoint: expected " + std::to_string(n) +
                           " violation lines but found only " +
                           std::to_string(k));
    }
    // "v <kind> <exec_index> <test_index> <detail...>"
    std::istringstream vs(rest);
    std::string kind_tok, exec_tok, tidx_tok;
    if (!(vs >> kind_tok >> exec_tok >> tidx_tok)) {
      return fail(err, "malformed violation line 'v " + rest + "'");
    }
    Violation v;
    std::uint64_t tidx = 0;
    if (!parse_violation_kind(kind_tok, &v.kind) ||
        !support::parse_u64(exec_tok, &v.execution_index) ||
        !support::parse_u64(tidx_tok, &tidx)) {
      return fail(err, "malformed violation line 'v " + rest + "'");
    }
    v.test_index = static_cast<std::uint32_t>(tidx);
    std::getline(vs, v.detail);
    if (!v.detail.empty() && v.detail[0] == ' ') v.detail.erase(0, 1);
    out->violations.push_back(std::move(v));
    ++i;
  }

  if (i >= lines.size() || !take_keyword(lines[i], "extra", &rest) ||
      !support::parse_u64(rest, &n)) {
    return need("'extra <count>'");
  }
  ++i;
  for (std::uint64_t k = 0; k < n; ++k) {
    if (i >= lines.size() || !take_keyword(lines[i], "x", &rest)) {
      return fail(err, "truncated checkpoint: expected " + std::to_string(n) +
                           " extra lines but found only " + std::to_string(k));
    }
    std::size_t sp = rest.find(' ');
    std::uint64_t val = 0;
    if (sp == std::string::npos || sp == 0 ||
        !support::parse_u64(rest.substr(sp + 1), &val)) {
      return fail(err, "malformed extra line 'x " + rest + "'");
    }
    out->extra.emplace_back(rest.substr(0, sp), val);
    ++i;
  }

  if (i >= lines.size() || !take_keyword(lines[i], "trail", &rest) ||
      !support::parse_u64(rest, &n)) {
    return need("'trail <count>'");
  }
  ++i;
  if (!parse_choices(lines, &i, static_cast<std::size_t>(n), &out->trail,
                     err)) {
    if (err != nullptr) *err = "checkpoint trail: " + *err;
    return false;
  }

  if (i >= lines.size() || lines[i] != "end") {
    return fail(err,
                "truncated checkpoint: missing 'end' terminator (file was cut "
                "off mid-write?)");
  }
  if (i + 1 != lines.size()) {
    return fail(err, "trailing garbage after 'end'");
  }
  return true;
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
