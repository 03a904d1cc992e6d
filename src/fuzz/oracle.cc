#include "fuzz/oracle.h"

#include <sstream>
#include <string_view>

#include "harness/stress_backend.h"
#include "mc/shard.h"
#include "support/kv.h"

namespace cds::fuzz {

std::string behavior_string(const std::vector<std::uint64_t>& obs,
                            const std::vector<std::uint64_t>& finals) {
  std::ostringstream os;
  os << "r:";
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (i != 0) os << ',';
    os << obs[i];
  }
  os << "|f:";
  for (std::size_t i = 0; i < finals.size(); ++i) {
    if (i != 0) os << ',';
    os << finals[i];
  }
  return os.str();
}

namespace {

class BehaviorCollector : public mc::ExecutionListener {
 public:
  BehaviorCollector(const std::vector<std::uint64_t>* obs, int locations,
                    BehaviorSet* out)
      : obs_(obs), locations_(locations), out_(out) {}

  bool on_execution_complete(mc::Engine& e) override {
    std::vector<std::uint64_t> finals;
    finals.reserve(static_cast<std::size_t>(locations_));
    for (int l = 0; l < locations_; ++l) {
      finals.push_back(e.location_final_value(static_cast<std::uint32_t>(l)));
    }
    out_->insert(behavior_string(*obs_, finals));
    return true;
  }

 private:
  const std::vector<std::uint64_t>* obs_;
  int locations_;
  BehaviorSet* out_;
};

// Brute-force DFS over thread interleavings with direct interleaving
// (SC) semantics: every read observes the current memory value.
struct Interleaver {
  const Program& p;
  std::uint64_t node_budget;
  BehaviorSet* out;
  std::vector<std::size_t> pc;
  std::vector<std::uint64_t> mem;
  std::vector<std::uint64_t> obs;
  std::vector<int> slot_base;
  bool capped = false;

  explicit Interleaver(const Program& prog, std::uint64_t budget,
                       BehaviorSet* sink)
      : p(prog), node_budget(budget), out(sink) {
    pc.assign(static_cast<std::size_t>(p.threads()), 0);
    mem.assign(static_cast<std::size_t>(p.locations), 0);
    slot_base.assign(static_cast<std::size_t>(p.threads()) + 1, 0);
    for (int t = 0; t < p.threads(); ++t) {
      slot_base[static_cast<std::size_t>(t) + 1] =
          slot_base[static_cast<std::size_t>(t)] +
          static_cast<int>(p.ops[static_cast<std::size_t>(t)].size());
    }
    obs.assign(static_cast<std::size_t>(p.total_ops()), 0);
  }

  void run() { dfs(); }

  void dfs() {
    if (capped || node_budget-- == 0) {
      capped = true;
      return;
    }
    bool any = false;
    for (int t = 0; t < p.threads(); ++t) {
      auto ts = static_cast<std::size_t>(t);
      if (pc[ts] >= p.ops[ts].size()) continue;
      any = true;
      const Op& op = p.ops[ts][pc[ts]];
      auto slot = static_cast<std::size_t>(slot_base[ts]) + pc[ts];
      auto loc = static_cast<std::size_t>(op.loc);
      // Apply, recurse, undo.
      std::uint64_t saved_mem = op.code == OpCode::kFence ? 0 : mem[loc];
      std::uint64_t saved_obs = obs[slot];
      switch (op.code) {
        case OpCode::kLoad: obs[slot] = mem[loc]; break;
        case OpCode::kStore: mem[loc] = op.value; break;
        case OpCode::kRmwAdd:
          obs[slot] = mem[loc];
          mem[loc] = mem[loc] + op.value;
          break;
        case OpCode::kCas:
          obs[slot] = mem[loc];
          if (mem[loc] == op.expected) mem[loc] = op.value;
          break;
        case OpCode::kFence: break;
      }
      ++pc[ts];
      dfs();
      --pc[ts];
      obs[slot] = saved_obs;
      if (op.code != OpCode::kFence) mem[loc] = saved_mem;
    }
    if (!any) out->insert(behavior_string(obs, mem));
  }
};

// Stops the exploration at the first execution whose behavior is outside
// `exclude`, capturing its choice trail (the witness of a set-level
// disagreement as one replayable execution).
class WitnessCapture : public mc::ExecutionListener {
 public:
  WitnessCapture(const std::vector<std::uint64_t>* obs, int locations,
                 const BehaviorSet* exclude)
      : obs_(obs), locations_(locations), exclude_(exclude) {}

  bool on_execution_complete(mc::Engine& e) override {
    std::vector<std::uint64_t> finals;
    finals.reserve(static_cast<std::size_t>(locations_));
    for (int l = 0; l < locations_; ++l) {
      finals.push_back(e.location_final_value(static_cast<std::uint32_t>(l)));
    }
    std::string b = behavior_string(*obs_, finals);
    if (exclude_->count(b) != 0) return true;
    found_ = true;
    behavior_ = std::move(b);
    choices_ = e.current_trail();
    return false;
  }

  [[nodiscard]] bool found() const { return found_; }
  [[nodiscard]] const std::string& behavior() const { return behavior_; }
  [[nodiscard]] const std::vector<mc::Choice>& choices() const {
    return choices_;
  }

 private:
  const std::vector<std::uint64_t>* obs_;
  int locations_;
  const BehaviorSet* exclude_;
  bool found_ = false;
  std::string behavior_;
  std::vector<mc::Choice> choices_;
};

mc::Config engine_config(const OracleConfig& cfg, bool sampling_only) {
  mc::Config ec;
  ec.max_executions = sampling_only ? 0 : cfg.max_executions;
  ec.max_steps = cfg.max_steps;
  ec.stale_read_bound = cfg.stale_read_bound;
  ec.collect_trace = false;
  ec.seed = cfg.seed;
  ec.sampling_only = sampling_only;
  ec.sample_executions = sampling_only ? cfg.sample_executions : 0;
  ec.explore = cfg.explore;
  ec.unsound_hook = cfg.unsound_hook;
  return ec;
}

// Explores `p` until an execution exhibits a behavior outside `exclude`.
bool capture_witness(const Program& p, const OracleConfig& cfg,
                     const BehaviorSet& exclude, bool sampling_only,
                     WitnessTrail* out) {
  std::vector<std::uint64_t> obs;
  mc::Engine engine(engine_config(cfg, sampling_only));
  WitnessCapture capture(&obs, p.locations, &exclude);
  engine.set_listener(&capture);
  (void)engine.explore(p.test_fn(&obs));
  if (!capture.found()) return false;
  out->choices = capture.choices();
  out->behavior = capture.behavior();
  out->sampling = sampling_only;
  return true;
}

std::string diff_sample(const BehaviorSet& extra, const BehaviorSet& base,
                        std::size_t limit = 3) {
  std::ostringstream os;
  std::size_t shown = 0, total = 0;
  for (const std::string& b : extra) {
    if (base.count(b) != 0) continue;
    ++total;
    if (shown < limit) {
      os << (shown ? "  " : "") << b;
      ++shown;
    }
  }
  os << " (" << total << " extra)";
  return os.str();
}

bool is_subset(const BehaviorSet& a, const BehaviorSet& b) {
  for (const std::string& x : a) {
    if (b.count(x) == 0) return false;
  }
  return true;
}

}  // namespace

const char* to_string(OracleKind k) {
  switch (k) {
    case OracleKind::kScInterleaving: return "sc-interleaving";
    case OracleKind::kMonotonicity: return "monotonicity";
    case OracleKind::kSampling: return "dfs-vs-sampling";
  }
  return "?";
}

McBehaviors mc_behaviors(const Program& p, const OracleConfig& cfg,
                         bool sampling_only) {
  McBehaviors out;
  if (!sampling_only && cfg.jobs > 1) {
    // Sharded DFS (mc/shard.h): disjoint subtree prefixes fan out to forked
    // workers; behavior sets union, executions sum, exhausted ANDs. A
    // crashed worker means its subtree went unexplored: not exhausted.
    mc::Config ec = engine_config(cfg, false);
    auto make_test = [&p](std::vector<std::uint64_t>* o) {
      return p.test_fn(o);
    };
    std::vector<std::uint64_t> probe_obs;
    mc::ShardPlan plan = mc::enumerate_shard_prefixes(
        ec, make_test(&probe_obs), 2,
        static_cast<std::size_t>(cfg.jobs) * 4);
    auto work = [&](std::size_t i) -> std::string {
      std::vector<std::uint64_t> obs;
      BehaviorSet shard_set;
      mc::Engine engine(ec);
      engine.set_subtree(plan.prefixes[i]);
      BehaviorCollector collector(&obs, p.locations, &shard_set);
      engine.set_listener(&collector);
      // First line the shard's stats, then one behavior per line.
      std::string text =
          support::render_fields(engine.explore(make_test(&obs)));
      for (const std::string& b : shard_set) text += "\n" + b;
      return text + "\n";
    };
    mc::ForkMapOptions fopts;
    fopts.jobs = cfg.jobs;
    std::vector<mc::UnitResult> results =
        mc::fork_map(plan.prefixes.size(), work, fopts);
    out.exhausted = true;
    for (const mc::UnitResult& r : results) {
      const std::size_t nl = r.text.find('\n');
      mc::ExplorationStats shard;
      std::string why;
      if (!r.ran || nl == std::string::npos ||
          !support::parse_fields(std::string_view(r.text).substr(0, nl),
                                 &shard, &why)) {
        out.exhausted = false;
        continue;
      }
      mc::merge_shard_stats(out, shard);
      std::istringstream is(r.text.substr(nl + 1));
      for (std::string line; std::getline(is, line);) {
        if (!line.empty()) out.behaviors.insert(line);
      }
    }
    return out;
  }
  std::vector<std::uint64_t> obs;
  mc::Engine engine(engine_config(cfg, sampling_only));
  BehaviorCollector collector(&obs, p.locations, &out.behaviors);
  engine.set_listener(&collector);
  static_cast<mc::ExplorationStats&>(out) = engine.explore(p.test_fn(&obs));
  return out;
}

bool interleaving_behaviors(const Program& p, const OracleConfig& cfg,
                            BehaviorSet* out) {
  Interleaver iv(p, cfg.max_interleaving_nodes, out);
  iv.run();
  return !iv.capped;
}

BehaviorSet stress_behaviors(const Program& p, std::uint64_t iters,
                             int threads_mult, std::uint64_t seed) {
  BehaviorSet out;
  if (threads_mult < 1) threads_mult = 1;
  // One observation buffer per runner: Program::test_fn requires `obs` to
  // outlive the run, and runners execute iterations concurrently.
  std::vector<std::vector<std::uint64_t>> obs(
      static_cast<std::size_t>(threads_mult));

  harness::StressOptions opts;
  opts.iters = iters;
  opts.threads_mult = threads_mult;
  opts.seed = seed;
  // Behavior collection only; litmus programs carry no specs.
  opts.check_spec = false;

  auto make_test = [&](int r) {
    return p.test_fn(&obs[static_cast<std::size_t>(r)]);
  };
  // The hook runs serialized across runners, between iterations.
  auto hook = [&](int r, harness::StressBackend& b) {
    std::vector<std::uint64_t> finals;
    finals.reserve(static_cast<std::size_t>(p.locations));
    for (int l = 0; l < p.locations; ++l) {
      finals.push_back(b.location_final_value(static_cast<std::uint32_t>(l)));
    }
    out.insert(behavior_string(obs[static_cast<std::size_t>(r)], finals));
  };
  (void)harness::run_stress_per_runner(make_test, opts, hook);
  return out;
}

std::vector<StrengthenSite> strengthen_sites(const Program& p) {
  std::vector<StrengthenSite> sites;
  for (int t = 0; t < p.threads(); ++t) {
    const auto& list = p.ops[static_cast<std::size_t>(t)];
    for (int i = 0; i < static_cast<int>(list.size()); ++i) {
      const Op& op = list[static_cast<std::size_t>(i)];
      if (inject::strengthen(op.inject_kind(), op.order) != op.order) {
        sites.push_back(StrengthenSite{t, i, false});
      }
      if (op.code == OpCode::kCas &&
          inject::strengthen(inject::OpKind::kLoad, op.failure) != op.failure) {
        sites.push_back(StrengthenSite{t, i, true});
      }
    }
  }
  return sites;
}

Program strengthen_at(const Program& p, const StrengthenSite& s) {
  Program q = p;
  Op& op = q.ops[static_cast<std::size_t>(s.thread)]
               [static_cast<std::size_t>(s.index)];
  if (s.failure_order) {
    op.failure = inject::strengthen(inject::OpKind::kLoad, op.failure);
  } else {
    op.order = inject::strengthen(op.inject_kind(), op.order);
  }
  return q;
}

CheckResult check_program(const Program& p, const OracleConfig& cfg) {
  CheckResult res;
  auto skip = [&res](std::string why) {
    res.skipped = true;
    res.skip_reason = std::move(why);
    return res;
  };

  McBehaviors base = mc_behaviors(p, cfg);
  if (!base.exhausted) return skip("DFS hit the execution or step cap");

  // Oracle 1: exact agreement with brute-force interleavings (seq_cst
  // fragment only — elsewhere the memory model admits strictly more).
  if (p.sc_only()) {
    BehaviorSet ref;
    if (!interleaving_behaviors(p, cfg, &ref)) {
      return skip("interleaving enumerator hit its node cap");
    }
    ++res.oracles_run;
    if (base.behaviors != ref) {
      std::ostringstream os;
      if (!is_subset(base.behaviors, ref)) {
        os << "engine admits behaviors interleavings forbid: "
           << diff_sample(base.behaviors, ref);
      }
      if (!is_subset(ref, base.behaviors)) {
        os << (os.str().empty() ? "" : "; ")
           << "engine misses interleaving behaviors: "
           << diff_sample(ref, base.behaviors);
      }
      res.disagreements.push_back(
          Disagreement{OracleKind::kScInterleaving, os.str(), p});
    }
  }

  // Oracle 2: strengthening any one site must never add behaviors.
  for (const StrengthenSite& s : strengthen_sites(p)) {
    Program q = strengthen_at(p, s);
    McBehaviors strong = mc_behaviors(q, cfg);
    if (!strong.exhausted) return skip("strengthened DFS hit a cap");
    ++res.oracles_run;
    if (!is_subset(strong.behaviors, base.behaviors)) {
      std::ostringstream os;
      os << "strengthening t" << s.thread << " op " << s.index
         << (s.failure_order ? " (cas failure order)" : "")
         << " ADDED behaviors: "
         << diff_sample(strong.behaviors, base.behaviors);
      res.disagreements.push_back(
          Disagreement{OracleKind::kMonotonicity, os.str(), q});
    }
  }

  // Oracle 3: every sampled behavior lies inside the exhaustive set.
  McBehaviors sampled = mc_behaviors(p, cfg, /*sampling_only=*/true);
  ++res.oracles_run;
  if (!is_subset(sampled.behaviors, base.behaviors)) {
    std::ostringstream os;
    os << "random-walk sampling reached behaviors DFS never enumerated: "
       << diff_sample(sampled.behaviors, base.behaviors);
    res.disagreements.push_back(
        Disagreement{OracleKind::kSampling, os.str(), p});
  }
  return res;
}

bool witness_trail(const Program& p, const OracleConfig& cfg, OracleKind kind,
                   WitnessTrail* out) {
  *out = WitnessTrail{};
  McBehaviors base = mc_behaviors(p, cfg);
  if (!base.exhausted) return false;
  switch (kind) {
    case OracleKind::kScInterleaving: {
      // Witnessable only when the engine ADMITS a behavior interleavings
      // forbid; a missing behavior has no execution to record.
      BehaviorSet ref;
      if (!p.sc_only() || !interleaving_behaviors(p, cfg, &ref)) return false;
      return capture_witness(p, cfg, ref, /*sampling_only=*/false, out);
    }
    case OracleKind::kMonotonicity: {
      for (const StrengthenSite& s : strengthen_sites(p)) {
        Program q = strengthen_at(p, s);
        McBehaviors strong = mc_behaviors(q, cfg);
        if (!strong.exhausted || is_subset(strong.behaviors, base.behaviors)) {
          continue;
        }
        if (!capture_witness(q, cfg, base.behaviors, /*sampling_only=*/false,
                             out)) {
          continue;
        }
        out->strengthened = true;
        out->site = s;
        return true;
      }
      return false;
    }
    case OracleKind::kSampling:
      return capture_witness(p, cfg, base.behaviors, /*sampling_only=*/true,
                             out);
  }
  return false;
}

bool replay_behavior(const Program& p, const OracleConfig& cfg,
                     const std::vector<mc::Choice>& choices,
                     std::string* behavior, std::string* err) {
  std::vector<std::uint64_t> obs;
  mc::Engine engine(engine_config(cfg, /*sampling_only=*/false));
  BehaviorSet observed;
  BehaviorCollector collector(&obs, p.locations, &observed);
  engine.set_listener(&collector);
  if (!engine.replay(choices, p.test_fn(&obs), /*strict=*/true, err)) {
    return false;
  }
  if (observed.empty()) {
    if (err != nullptr) {
      *err = "replayed execution did not run to completion";
    }
    return false;
  }
  *behavior = *observed.begin();
  return true;
}

}  // namespace cds::fuzz
