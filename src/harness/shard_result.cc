#include "harness/shard_result.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "mc/trace.h"
#include "support/kv.h"
#include "support/rng.h"

namespace cds::harness {

std::string escape_line(const std::string& s) {
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

std::string unescape_line(const std::string& s) {
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

namespace {
constexpr const char* kWireVersion = "shard-result v5";
}  // namespace

std::string render_shard_result(const RunResult& r) {
  std::string s = std::string(kWireVersion) + "\n";
  s += "stats " + support::render_fields(r.mc) + "\n";
  s += "spec " + support::render_fields(r.spec) + "\n";
  s += "violations " + std::to_string(r.violations.size()) + "\n";
  for (const mc::Violation& v : r.violations) {
    s += std::string("v ") + mc::wire_name(v.kind) + " " +
         std::to_string(v.execution_index) + " " +
         std::to_string(v.test_index) + " " + std::to_string(v.trail.size()) +
         " " + escape_line(v.detail) + "\n";
    s += mc::render_choices(v.trail);
  }
  s += "reports " + std::to_string(r.reports.size()) + "\n";
  for (const std::string& rep : r.reports) {
    s += "rep " + escape_line(rep) + "\n";
  }
  const std::vector<std::string> mlines = r.metrics.render_wire();
  s += "metrics " + std::to_string(mlines.size()) + "\n";
  for (const std::string& ml : mlines) {
    s += "m " + ml + "\n";
  }
  s += "frontier " + std::to_string(r.frontier.size()) + "\n";
  s += mc::render_choices(r.frontier);
  s += "end\n";
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool parse_shard_result(const std::string& text, ShardResult* out,
                        std::string* err) {
  // Parse into a scratch result and commit only on success, so a
  // rejected message never leaves *out partially populated.
  ShardResult res;
  std::vector<std::string> lines = split_lines(text);
  std::size_t i = 0;
  auto next = [&]() -> const std::string* {
    return i < lines.size() ? &lines[i++] : nullptr;
  };
  // Diagnostics carry the 1-based line number of the offending line (the
  // one most recently consumed).
  auto fail = [&](const std::string& why) {
    *err = "line " + std::to_string(i == 0 ? 1 : i) + ": " + why;
    return false;
  };
  // "<word> <n>": a section header with its entry count.
  auto count = [&](const char* word, std::uint64_t* n) {
    const std::string* c = next();
    std::string rest;
    return c != nullptr && support::take_keyword(*c, word, &rest) &&
           support::parse_u64(rest, n) && *n <= lines.size();
  };
  std::string why;
  const std::string* l = next();
  if (l == nullptr || *l != kWireVersion) {
    if (l != nullptr && l->rfind("shard-result ", 0) == 0) {
      return fail("stale wire version '" + *l + "' (this build reads '" +
                  kWireVersion + "')");
    }
    return fail("not a shard result");
  }
  l = next();
  if (l == nullptr || l->rfind("stats ", 0) != 0) {
    return fail("missing stats line");
  }
  if (!support::parse_fields(std::string_view(*l).substr(6), &res.stats,
                             &why)) {
    return fail("stats: " + why);
  }
  l = next();
  if (l == nullptr || l->rfind("spec ", 0) != 0) {
    return fail("missing spec line");
  }
  if (!support::parse_fields(std::string_view(*l).substr(5), &res.spec,
                             &why)) {
    return fail("spec: " + why);
  }

  std::uint64_t nviol = 0;
  if (!count("violations", &nviol)) return fail("bad violations count");
  for (std::uint64_t k = 0; k < nviol; ++k) {
    l = next();
    if (l == nullptr || l->rfind("v ", 0) != 0) {
      return fail("missing violation line");
    }
    // "v <kind> <exec> <test> <nchoices> <detail>"
    std::vector<std::string> tok;
    std::size_t pos = 2;
    for (int t = 0; t < 4 && pos < l->size(); ++t) {
      std::size_t sp = l->find(' ', pos);
      tok.push_back(l->substr(pos, sp == std::string::npos ? sp : sp - pos));
      pos = sp == std::string::npos ? l->size() : sp + 1;
    }
    if (tok.size() != 4) return fail("malformed violation line");
    mc::Violation v;
    std::uint64_t exec = 0, ti = 0, nch = 0;
    if (!mc::parse_violation_kind(tok[0], &v.kind) ||
        !support::parse_u64(tok[1], &exec) ||
        !support::parse_u64(tok[2], &ti) || !support::parse_u64(tok[3], &nch)) {
      return fail("malformed violation line");
    }
    v.execution_index = exec;
    v.test_index = static_cast<std::uint32_t>(ti);
    v.detail = unescape_line(pos <= l->size() ? l->substr(pos) : "");
    if (!mc::parse_choices(lines, &i, nch, &v.trail, &why)) return fail(why);
    res.violations.push_back(std::move(v));
  }

  std::uint64_t nrep = 0;
  if (!count("reports", &nrep)) return fail("bad reports count");
  for (std::uint64_t k = 0; k < nrep; ++k) {
    l = next();
    if (l == nullptr || l->rfind("rep ", 0) != 0) {
      return fail("missing report line");
    }
    res.reports.push_back(unescape_line(l->substr(4)));
  }
  std::uint64_t nmet = 0;
  if (!count("metrics", &nmet)) return fail("bad metrics count");
  for (std::uint64_t k = 0; k < nmet; ++k) {
    l = next();
    if (l == nullptr || l->rfind("m ", 0) != 0) {
      return fail("missing metrics line");
    }
    if (!res.metrics.parse_wire_line(l->substr(2), &why)) return fail(why);
  }
  std::uint64_t nfro = 0;
  if (!count("frontier", &nfro)) return fail("bad frontier count");
  if (!mc::parse_choices(lines, &i, nfro, &res.frontier, &why)) {
    return fail(why);
  }
  if (res.stats.preempted != !res.frontier.empty()) {
    return fail("preempted flag and frontier presence disagree");
  }
  l = next();
  if (l == nullptr || *l != "end") return fail("missing 'end' terminator");
  *out = std::move(res);
  return true;
}

ShardUnit make_shard_unit(const RunOptions& base, std::size_t test_index,
                          std::vector<mc::Choice> prefix, std::size_t ordinal,
                          std::size_t total) {
  ShardUnit u;
  u.test_index = test_index;
  u.prefix = std::move(prefix);
  u.ordinal = ordinal;
  u.total = total;
  // Degraded-phase sampling shards by derived per-shard seeds and divides
  // the sample budget, so a budget-starved parallel run still samples
  // ~sample_executions total across the subtrees.
  u.engine_seed = support::derive_seed(base.engine.seed,
                                       static_cast<std::uint64_t>(ordinal));
  u.sample_executions = base.engine.sample_executions;
  if (u.sample_executions > 0 && total > 1) {
    u.sample_executions = std::max<std::uint64_t>(1, u.sample_executions / total);
  }
  return u;
}

std::string run_shard_unit(const Benchmark& b, const RunOptions& base,
                           const ShardUnit& u,
                           const std::function<bool()>& stop_request) {
  RunOptions wo = base;
  wo.resume = nullptr;
  wo.checkpoint_base = mc::Checkpoint{};
  wo.engine.checkpoint_path.clear();
  wo.engine.checkpoint_every_execs = 0;
  wo.engine.test_name = b.name + "#" + std::to_string(u.test_index);
  wo.engine.test_index = static_cast<std::uint32_t>(u.test_index);
  // Heartbeats from parallel workers interleave on the shared stderr, so
  // each line names its shard.
  wo.engine.progress_label = wo.engine.test_name + " shard " +
                             std::to_string(u.ordinal + 1) + "/" +
                             std::to_string(u.total);
  wo.engine.seed = u.engine_seed;
  wo.engine.sample_executions = u.sample_executions;
  wo.engine.stop_request = stop_request;
  wo.subtree = u.prefix;
  RunResult r = run_with_spec(b.tests[u.test_index], wo);
  return render_shard_result(r);
}

}  // namespace cds::harness
