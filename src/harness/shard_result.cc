#include "harness/shard_result.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "mc/trace.h"
#include "support/kv.h"
#include "support/rng.h"

namespace cds::harness {

namespace {
constexpr std::uint64_t kWireVersion = 5;
}  // namespace

using support::escape_line;
using support::unescape_line;

std::string render_shard_result(const RunResult& r) {
  std::string s = "shard-result v" + std::to_string(kWireVersion) + "\n";
  s += "stats " + support::render_fields(r.mc) + "\n";
  s += "spec " + support::render_fields(r.spec) + "\n";
  s += "violations " + std::to_string(r.violations.size()) + "\n";
  for (const mc::Violation& v : r.violations) s += mc::render_violation(v);
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

bool parse_shard_result(const std::string& text, ShardResult* out,
                        std::string* err) {
  // Parse into a scratch result and commit only on success, so a
  // rejected message never leaves *out partially populated.
  ShardResult res;
  support::LineReader r(text, support::LineReader::Kind::kWire, err);
  std::string_view rest;
  std::string why;
  if (!r.header("shard-result", kWireVersion)) return false;
  if (!r.expect("stats", &rest)) return false;
  if (!support::parse_fields(rest, &res.stats, &why)) {
    return r.fail("stats: " + why);
  }
  if (!r.expect("spec", &rest)) return false;
  if (!support::parse_fields(rest, &res.spec, &why)) {
    return r.fail("spec: " + why);
  }
  std::uint64_t n = 0;
  if (!r.count("violations", &n)) return false;
  res.violations.resize(n);
  for (mc::Violation& v : res.violations) {
    if (!mc::parse_violation(r, &v)) return false;
  }
  if (!r.count("reports", &n)) return false;
  for (std::uint64_t k = 0; k < n; ++k) {
    if (!r.expect("rep", &rest)) return false;
    res.reports.push_back(unescape_line(rest));
  }
  if (!r.count("metrics", &n)) return false;
  for (std::uint64_t k = 0; k < n; ++k) {
    if (!r.expect("m", &rest)) return false;
    if (!res.metrics.parse_wire_line(std::string(rest), &why)) {
      return r.fail(why);
    }
  }
  if (!r.count("frontier", &n) || !mc::parse_choices(r, n, &res.frontier)) {
    return false;
  }
  if (res.stats.preempted != !res.frontier.empty()) {
    return r.fail("preempted flag and frontier presence disagree");
  }
  if (!r.end()) return false;
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
