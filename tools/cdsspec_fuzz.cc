// cdsspec-fuzz — differential-oracle self-validation of the exploration
// engine (the correctness-tooling layer: the checker checking itself).
//
//   cdsspec-fuzz --trials N [--seed S] [--timeout SECS] [--out DIR] [--json]
//                [--jobs N] [--metrics-out FILE] [--explore schedule|rf]
//   cdsspec-fuzz --replay FILE...        re-check repro/corpus programs
//   cdsspec-fuzz --replay-dir DIR        re-check every *.litmus in DIR
//
// Cross-backend / external adjudication (both compose with either mode):
//   --cross-backend [--stress-iters N]   also run each program on the
//       stress backend (real threads, seeded preemption) and require its
//       observed behaviors to be a subset of the DFS set; a stress-only
//       behavior is a disagreement and writes a .litmus + stress .trail
//       pair to --out.
//   --herd-out DIR   export each checked program as a herd7 C-litmus test
//       plus a .expected file holding our exhaustive behavior set, for
//       tools/herd_adjudicate to compare against herd7's verdict.
//
// Each trial generates a seeded random litmus program and cross-checks the
// engine's behavior set three ways (see src/fuzz/oracle.h): brute-force
// interleavings on the seq_cst fragment, metamorphic memory-order
// monotonicity, and DFS-vs-sampling containment. Any disagreement is
// auto-minimized and written to --out as a self-contained .litmus repro.
//
// Exit codes: 0 all oracles agreed, 1 disagreement found (repro written),
//             2 usage error.
//
// --unsound-hook {sc-floor|sleep-wake} arms a deliberately broken engine
// variant (test-only): the run must then FIND disagreements; used by the
// self-validation tests to prove the oracles have teeth.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>

#include "fuzz/generator.h"
#include "fuzz/herd_export.h"
#include "harness/stress_backend.h"
#include "fuzz/minimize.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "mc/trace.h"
#include "obs/metrics.h"
#include "support/kv.h"
#include "support/rng.h"

namespace {

constexpr int kExitAgreed = 0;
constexpr int kExitDisagreed = 1;
constexpr int kExitUsage = 2;

void usage() {
  std::printf(
      "usage: cdsspec-fuzz --trials N [--seed S] [--timeout SECS]\n"
      "                    [--out DIR] [--json] [--unsound-hook NAME]\n"
      "                    [--jobs N] [--metrics-out FILE]\n"
      "                    [--explore schedule|rf]\n"
      "                    [--cross-backend] [--stress-iters N]\n"
      "                    [--herd-out DIR]\n"
      "       cdsspec-fuzz --replay FILE... / --replay-dir DIR\n"
      "                    [--cross-backend] [--stress-iters N]\n"
      "                    [--herd-out DIR]\n"
      "unsound hooks (self-validation only): sc-floor, sleep-wake\n"
      "exit codes: 0 all oracles agreed, 1 disagreement found, 2 usage\n");
}

// Strict: decimal digits that fit in 64 bits ("-3", "2x", "", " 5" fail);
// durations finite non-negative decimals ("nan", "inf", "0x10" fail).
using cds::support::parse_u64;

using cds::support::parse_seconds;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Trial profiles alternate: even trials draw from the seq_cst-only pool
// (exact interleaving oracle), odd trials from the mixed-order pool
// (monotonicity + sampling oracles).
cds::fuzz::GenParams profile_for(std::uint64_t trial) {
  cds::fuzz::GenParams gp;
  if (trial % 2 == 0) {
    gp.sc_only = true;
    gp.max_threads = 3;
    gp.max_total_ops = 8;
  } else {
    gp.sc_only = false;
    gp.max_threads = 3;
    gp.max_total_ops = 8;
  }
  return gp;
}

struct Repro {
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  cds::fuzz::OracleKind oracle{};
  std::string detail;
  cds::fuzz::Program program;  // minimized
  std::string path;            // where it was written ("" if write failed)
  std::string trail_path;      // witness .trail beside it ("" if none)
};

// .trail "test" field for a witness execution: "litmus" for the repro
// program itself, "litmus+t<T>.op<I>[.fail]" when the trail drives the
// variant with that one site strengthened (monotonicity witnesses).
std::string witness_test_name(const cds::fuzz::WitnessTrail& wt) {
  if (!wt.strengthened) return "litmus";
  std::string n = "litmus+t" + std::to_string(wt.site.thread) + ".op" +
                  std::to_string(wt.site.index);
  if (wt.site.failure_order) n += ".fail";
  return n;
}

// Inverse of witness_test_name: rewrites `p` into the program the trail
// was recorded against. False when the name is malformed or out of range
// for this program.
bool apply_witness_test_name(const std::string& name, cds::fuzz::Program* p) {
  if (name == "litmus") return true;
  if (name.rfind("litmus+t", 0) != 0) return false;
  std::string rest = name.substr(8);
  std::size_t dot = rest.find(".op");
  if (dot == std::string::npos) return false;
  cds::fuzz::StrengthenSite site;
  site.failure_order = false;
  std::string idx = rest.substr(dot + 3);
  if (idx.size() > 5 && idx.substr(idx.size() - 5) == ".fail") {
    site.failure_order = true;
    idx = idx.substr(0, idx.size() - 5);
  }
  std::uint64_t t = 0, i = 0;
  if (!parse_u64(rest.substr(0, dot), &t) ||
      !parse_u64(idx, &i)) {
    return false;
  }
  site.thread = static_cast<int>(t);
  site.index = static_cast<int>(i);
  if (site.thread >= p->threads() ||
      i >= p->ops[static_cast<std::size_t>(site.thread)].size()) {
    return false;
  }
  *p = cds::fuzz::strengthen_at(*p, site);
  return true;
}

// Re-runs the oracles on a candidate and reports whether the disagreement
// of the same kind persists (the minimizer's predicate).
bool reproduces(const cds::fuzz::Program& cand, cds::fuzz::OracleKind kind,
                const cds::fuzz::OracleConfig& cfg) {
  std::string why;
  if (cand.total_ops() == 0 || !cand.validate(&why)) return false;
  auto res = cds::fuzz::check_program(cand, cfg);
  for (const auto& d : res.disagreements) {
    if (d.oracle == kind) return true;
  }
  return false;
}

std::string write_repro(const std::string& out_dir, const Repro& r) {
  std::ostringstream name;
  name << out_dir << "/repro-" << cds::fuzz::to_string(r.oracle) << "-seed"
       << r.seed << ".litmus";
  std::ofstream f(name.str());
  if (!f) return "";
  f << "# cdsspec-fuzz minimized repro\n";
  f << "# oracle: " << cds::fuzz::to_string(r.oracle) << "\n";
  f << "# detail: ";
  for (char c : r.detail) f << (c == '\n' ? ' ' : c);
  f << "\n";
  f << "# trial " << r.trial << " seed " << r.seed << "\n";
  f << r.program.to_string();
  return f ? name.str() : "";
}

// Cross-backend / herd-export settings shared by trial and replay modes.
struct ExtraChecks {
  bool cross_backend = false;
  std::uint64_t stress_iters = 64;
  std::string herd_out;  // "" = no export
  std::string out_dir = ".";
};

// "path/to/mp_relacq.litmus" -> "mp_relacq" (herd test / artifact name).
std::string stem_of(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string n = slash == std::string::npos ? path : path.substr(slash + 1);
  if (n.size() > 7 && n.substr(n.size() - 7) == ".litmus") {
    n = n.substr(0, n.size() - 7);
  }
  return n;
}

// Exports `p` for herd7 adjudication. Skips (with a note) when the DFS hit
// a cap before exhausting: a partial .expected would claim behaviors are
// forbidden that we merely did not finish enumerating.
void herd_export_one(const cds::fuzz::Program& p,
                     const cds::fuzz::OracleConfig& cfg,
                     const std::string& name, const std::string& dir) {
  auto mb = cds::fuzz::mc_behaviors(p, cfg);
  if (!mb.exhausted) {
    std::fprintf(stderr,
                 "cdsspec-fuzz: --herd-out: %s: DFS hit a cap before "
                 "exhausting; not exported\n",
                 name.c_str());
    return;
  }
  std::string err;
  if (!cds::fuzz::write_herd_files(p, name, mb.behaviors, dir, &err)) {
    std::fprintf(stderr, "cdsspec-fuzz: --herd-out: %s: %s\n", name.c_str(),
                 err.c_str());
    return;
  }
  std::printf("herd-out: %s/%s.litmus + .expected (%zu states)\n",
              dir.c_str(), name.c_str(), mb.behaviors.size());
}

// Best-effort stress witness: re-runs the single-runner iteration seed
// stream until `behavior` shows up again, capturing that iteration's seed
// and preemption decision trail. May fail — the hardware schedule is not
// replayable — in which case the caller records the root seed only.
bool find_stress_witness(const cds::fuzz::Program& p, std::uint64_t iters,
                         std::uint64_t seed, const std::string& behavior,
                         std::uint64_t* iter_seed,
                         std::vector<cds::mc::Choice>* decisions) {
  std::vector<std::uint64_t> obs;
  cds::mc::TestFn test = p.test_fn(&obs);
  cds::harness::StressOptions o;
  o.check_spec = false;
  cds::harness::StressBackend be(o);
  for (std::uint64_t it = 0; it < iters; ++it) {
    std::uint64_t s = cds::support::derive_seed(seed, it);
    be.run_iteration(test, s);
    std::vector<std::uint64_t> finals;
    for (int l = 0; l < p.locations; ++l) {
      finals.push_back(be.location_final_value(static_cast<std::uint32_t>(l)));
    }
    if (cds::fuzz::behavior_string(obs, finals) == behavior) {
      *iter_seed = s;
      *decisions = be.decision_trail();
      return true;
    }
  }
  return false;
}

// Stress-vs-DFS containment. True when stress observed a behavior the
// exhaustive DFS never enumerated — one of the two backends is wrong.
// Writes a replayable .litmus + stress .trail pair to ex.out_dir.
bool cross_backend_disagrees(const cds::fuzz::Program& p,
                             const cds::fuzz::OracleConfig& cfg,
                             const ExtraChecks& ex, const std::string& name,
                             std::string* detail) {
  auto mb = cds::fuzz::mc_behaviors(p, cfg);
  if (!mb.exhausted) {
    std::fprintf(stderr,
                 "cdsspec-fuzz: %s: cross-backend check skipped (DFS not "
                 "exhausted, containment undecidable)\n",
                 name.c_str());
    return false;
  }
  auto sb = cds::fuzz::stress_behaviors(p, ex.stress_iters,
                                        /*threads_mult=*/2, cfg.seed);
  std::vector<std::string> extra;
  for (const std::string& b : sb) {
    if (mb.behaviors.count(b) == 0) extra.push_back(b);
  }
  if (extra.empty()) return false;
  *detail = "stress observed " + std::to_string(extra.size()) +
            " behavior(s) outside the model set of " +
            std::to_string(mb.behaviors.size()) + "; first: " + extra.front();

  const std::string base = ex.out_dir + "/cross-" + name;
  std::ofstream f(base + ".litmus");
  if (f) {
    f << "# cdsspec-fuzz cross-backend disagreement\n";
    f << "# stress-only behavior: " << extra.front() << "\n";
    f << p.to_string();
  }
  cds::mc::TrailFile tf;
  tf.backend = "stress";
  tf.test_name = "litmus";
  tf.kind = "cross-backend";
  tf.detail = extra.front();
  tf.config.seed = cfg.seed;
  std::uint64_t iseed = 0;
  std::vector<cds::mc::Choice> dec;
  if (find_stress_witness(p, ex.stress_iters, cfg.seed, extra.front(),
                          &iseed, &dec)) {
    tf.config.seed = iseed;
    tf.choices = std::move(dec);
  }
  std::string terr;
  if (!cds::mc::write_trail_file(base + ".trail", tf, &terr)) {
    std::fprintf(stderr, "cdsspec-fuzz: cannot write '%s.trail': %s\n",
                 base.c_str(), terr.c_str());
  }
  return true;
}

int replay_files(const std::vector<std::string>& files,
                 const cds::fuzz::OracleConfig& cfg, bool json,
                 const ExtraChecks& ex) {
  int disagreed = 0, failed = 0;
  for (const std::string& path : files) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cdsspec-fuzz: cannot open '%s'\n", path.c_str());
      ++failed;
      continue;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    cds::fuzz::Program p;
    std::string err;
    if (!cds::fuzz::Program::parse(buf.str(), &p, &err)) {
      std::fprintf(stderr, "cdsspec-fuzz: %s: parse error: %s\n", path.c_str(),
                   err.c_str());
      ++failed;
      continue;
    }
    if (!ex.herd_out.empty()) {
      herd_export_one(p, cfg, stem_of(path), ex.herd_out);
    }
    if (ex.cross_backend) {
      std::string detail;
      if (cross_backend_disagrees(p, cfg, ex, stem_of(path), &detail)) {
        ++disagreed;
        std::printf("%s: DISAGREEMENT [cross-backend] %s\n", path.c_str(),
                    detail.c_str());
      }
    }
    // Trail fast-path: a witness .trail beside the .litmus replays the one
    // recorded offending execution deterministically. Divergence or a
    // changed behavior (the engine moved since the recording) falls back
    // to the authoritative full oracle re-run below.
    if (path.size() > 7 && path.substr(path.size() - 7) == ".litmus") {
      std::string tpath = path.substr(0, path.size() - 7) + ".trail";
      cds::mc::TrailFile tf;
      std::string terr;
      if (std::ifstream(tpath).good()) {
        if (!cds::mc::load_trail_file(tpath, &tf, &terr)) {
          std::fprintf(stderr,
                       "cdsspec-fuzz: %s; re-running full oracles\n",
                       terr.c_str());
        } else if (!tf.backend.empty()) {
          // Stress trails replay probabilistically (cdsspec-run
          // --replay-trail); only model trails drive the deterministic
          // fast-path.
          std::fprintf(stderr,
                       "cdsspec-fuzz: %s: '%s' trail is not a model-checker "
                       "witness; re-running full oracles\n",
                       tpath.c_str(), tf.backend.c_str());
        } else {
          cds::fuzz::Program wp = p;
          if (!apply_witness_test_name(tf.test_name, &wp)) {
            std::fprintf(stderr,
                         "cdsspec-fuzz: %s: witness test '%s' does not fit "
                         "this program; re-running full oracles\n",
                         tpath.c_str(), tf.test_name.c_str());
          } else {
            cds::fuzz::OracleConfig rcfg = cfg;
            rcfg.seed = tf.config.seed;
            rcfg.stale_read_bound = tf.config.stale_read_bound;
            rcfg.max_steps = tf.config.max_steps;
            rcfg.explore = tf.config.explore;
            std::string behavior, rerr;
            if (!cds::fuzz::replay_behavior(wp, rcfg, tf.choices, &behavior,
                                            &rerr)) {
              std::fprintf(stderr,
                           "cdsspec-fuzz: %s: trail replay diverged (%s); "
                           "re-running full oracles\n",
                           tpath.c_str(), rerr.c_str());
            } else if (behavior != tf.detail) {
              std::fprintf(stderr,
                           "cdsspec-fuzz: %s: witness behavior changed "
                           "(recorded %s, replayed %s); re-running full "
                           "oracles\n",
                           tpath.c_str(), tf.detail.c_str(), behavior.c_str());
            } else {
              ++disagreed;
              std::printf("%s: witness reproduced via trail [%s]: %s "
                          "(%zu choices)\n",
                          path.c_str(), tf.kind.c_str(), behavior.c_str(),
                          tf.choices.size());
              continue;
            }
          }
        }
      }
    }
    auto res = cds::fuzz::check_program(p, cfg);
    if (res.skipped) {
      std::fprintf(stderr, "cdsspec-fuzz: %s: skipped: %s\n", path.c_str(),
                   res.skip_reason.c_str());
      ++failed;
      continue;
    }
    if (!res.disagreements.empty()) {
      ++disagreed;
      for (const auto& d : res.disagreements) {
        std::printf("%s: DISAGREEMENT [%s] %s\n", path.c_str(),
                    to_string(d.oracle), d.detail.c_str());
      }
    } else if (!json) {
      std::printf("%s: ok (%d oracle checks)\n", path.c_str(),
                  res.oracles_run);
    }
  }
  if (failed > 0) return kExitUsage;
  return disagreed > 0 ? kExitDisagreed : kExitAgreed;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t trials = 0;
  std::uint64_t base_seed = 1;
  double timeout = 0.0;
  bool json = false;
  std::string out_dir = ".";
  std::string metrics_out;
  cds::fuzz::OracleConfig cfg;
  ExtraChecks ex;
  std::vector<std::string> replay;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "cdsspec-fuzz: %s requires a value\n", flag);
        usage();
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (a == "--trials") {
      if (!parse_u64(value("--trials"), &trials)) return kExitUsage;
    } else if (a == "--seed") {
      if (!parse_u64(value("--seed"), &base_seed)) return kExitUsage;
    } else if (a == "--timeout") {
      if (!parse_seconds(value("--timeout"), &timeout)) return kExitUsage;
    } else if (a == "--jobs") {
      std::uint64_t j = 0;
      if (!parse_u64(value("--jobs"), &j) || j == 0 || j > 256) {
        std::fprintf(stderr, "cdsspec-fuzz: --jobs must be in 1..256\n");
        return kExitUsage;
      }
      cfg.jobs = static_cast<int>(j);
    } else if (a == "--out") {
      out_dir = value("--out");
    } else if (a == "--metrics-out") {
      metrics_out = value("--metrics-out");
    } else if (a == "--json") {
      json = true;
    } else if (a == "--cross-backend") {
      ex.cross_backend = true;
    } else if (a == "--stress-iters") {
      if (!parse_u64(value("--stress-iters"), &ex.stress_iters) ||
          ex.stress_iters == 0) {
        std::fprintf(stderr,
                     "cdsspec-fuzz: --stress-iters must be positive\n");
        return kExitUsage;
      }
    } else if (a == "--herd-out") {
      ex.herd_out = value("--herd-out");
    } else if (a == "--explore") {
      // Runs every oracle with the engine in the given exploration mode;
      // `rf` makes the whole differential campaign exercise the rf-class
      // enumerator against the brute-force / monotonicity / sampling
      // oracles (the CI equality job runs both modes on the same seeds).
      std::string mode = value("--explore");
      if (mode == "schedule") {
        cfg.explore = cds::mc::ExploreMode::kSchedule;
      } else if (mode == "rf") {
        cfg.explore = cds::mc::ExploreMode::kRf;
      } else {
        std::fprintf(stderr,
                     "cdsspec-fuzz: --explore must be 'schedule' or 'rf', "
                     "not '%s'\n",
                     mode.c_str());
        return kExitUsage;
      }
    } else if (a == "--unsound-hook") {
      std::string h = value("--unsound-hook");
      if (h == "sc-floor") {
        cfg.unsound_hook = cds::mc::UnsoundHook::kScLoadIgnoresFloor;
      } else if (h == "sleep-wake") {
        cfg.unsound_hook = cds::mc::UnsoundHook::kSleepSetNeverWakes;
      } else {
        std::fprintf(stderr, "cdsspec-fuzz: unknown hook '%s'\n", h.c_str());
        return kExitUsage;
      }
    } else if (a == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') replay.push_back(argv[++i]);
      if (replay.empty()) {
        std::fprintf(stderr, "cdsspec-fuzz: --replay wants files\n");
        return kExitUsage;
      }
    } else if (a == "--replay-dir") {
      std::string dir = value("--replay-dir");
      DIR* d = opendir(dir.c_str());
      if (d == nullptr) {
        std::fprintf(stderr, "cdsspec-fuzz: cannot open dir '%s'\n",
                     dir.c_str());
        return kExitUsage;
      }
      while (dirent* ent = readdir(d)) {
        std::string n = ent->d_name;
        if (n.size() > 7 && n.substr(n.size() - 7) == ".litmus") {
          replay.push_back(dir + "/" + n);
        }
      }
      closedir(d);
      if (replay.empty()) {
        std::fprintf(stderr, "cdsspec-fuzz: no .litmus files in '%s'\n",
                     dir.c_str());
        return kExitUsage;
      }
    } else {
      std::fprintf(stderr, "cdsspec-fuzz: unknown flag '%s'\n", a.c_str());
      usage();
      return kExitUsage;
    }
  }

  ex.out_dir = out_dir;
  if (!replay.empty()) {
    // Deterministic order regardless of directory enumeration order.
    std::sort(replay.begin(), replay.end());
    return replay_files(replay, cfg, json, ex);
  }
  if (trials == 0) {
    usage();
    return kExitUsage;
  }

  auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::uint64_t done = 0, skipped = 0, checks = 0;
  std::uint64_t cross_disagreed = 0;
  bool timed_out = false;
  std::vector<Repro> repros;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    if (timeout > 0.0 && elapsed() >= timeout) {
      timed_out = true;
      break;
    }
    // Per-trial seeds derive from the base seed alone, so one number
    // reproduces the campaign and text/JSON modes see identical streams.
    std::uint64_t seed = cds::fuzz::trial_seed(base_seed, trial);
    cds::fuzz::OracleConfig tcfg = cfg;
    tcfg.seed = seed;
    cds::fuzz::Program p = cds::fuzz::generate(profile_for(trial), seed);
    auto res = cds::fuzz::check_program(p, tcfg);
    ++done;
    checks += static_cast<std::uint64_t>(res.oracles_run);
    if (res.skipped) {
      ++skipped;
      continue;
    }
    const std::string trial_name = "seed" + std::to_string(seed);
    if (!ex.herd_out.empty()) {
      herd_export_one(p, tcfg, trial_name, ex.herd_out);
    }
    if (ex.cross_backend) {
      std::string detail;
      if (cross_backend_disagrees(p, tcfg, ex, trial_name, &detail)) {
        ++cross_disagreed;
        ++checks;
        if (!json) {
          std::printf("trial %llu seed %llu: DISAGREEMENT [cross-backend]\n"
                      "  %s\n",
                      static_cast<unsigned long long>(trial),
                      static_cast<unsigned long long>(seed), detail.c_str());
        }
      } else {
        ++checks;
      }
    }
    for (const auto& d : res.disagreements) {
      Repro r;
      r.trial = trial;
      r.seed = seed;
      r.oracle = d.oracle;
      r.detail = d.detail;
      // Minimize the base program while the same oracle kind still fires.
      cds::fuzz::MinimizeStats ms;
      r.program = cds::fuzz::minimize(
          p, [&](const cds::fuzz::Program& c) {
            return reproduces(c, d.oracle, tcfg);
          },
          &ms);
      r.path = write_repro(out_dir, r);
      // Pin the disagreement down to one replayable execution: a .trail
      // beside the .litmus lets --replay confirm the witness in a single
      // deterministic run instead of a full oracle sweep.
      if (!r.path.empty()) {
        cds::fuzz::WitnessTrail wt;
        if (cds::fuzz::witness_trail(r.program, tcfg, d.oracle, &wt)) {
          cds::mc::TrailFile tf;
          tf.test_name = witness_test_name(wt);
          tf.config.seed = tcfg.seed;
          tf.config.stale_read_bound = tcfg.stale_read_bound;
          tf.config.max_steps = tcfg.max_steps;
          tf.config.explore = tcfg.explore;
          tf.kind = cds::fuzz::to_string(d.oracle);
          tf.detail = wt.behavior;
          tf.choices = wt.choices;
          std::string tpath = r.path.substr(0, r.path.size() - 7) + ".trail";
          std::string terr;
          if (cds::mc::write_trail_file(tpath, tf, &terr)) {
            r.trail_path = tpath;
          } else {
            std::fprintf(stderr, "cdsspec-fuzz: cannot write '%s': %s\n",
                         tpath.c_str(), terr.c_str());
          }
        }
      }
      if (!json) {
        std::printf("trial %llu seed %llu: DISAGREEMENT [%s]\n  %s\n"
                    "  minimized to %d ops (%d probes)%s%s%s%s\n",
                    static_cast<unsigned long long>(trial),
                    static_cast<unsigned long long>(seed),
                    to_string(d.oracle), d.detail.c_str(),
                    r.program.total_ops(), ms.probes,
                    r.path.empty() ? "" : ", repro: ", r.path.c_str(),
                    r.trail_path.empty() ? "" : ", trail: ",
                    r.trail_path.c_str());
      }
      repros.push_back(std::move(r));
    }
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(base_seed));
    std::printf("  \"trials_requested\": %llu,\n",
                static_cast<unsigned long long>(trials));
    std::printf("  \"trials_completed\": %llu,\n",
                static_cast<unsigned long long>(done));
    std::printf("  \"trials_skipped\": %llu,\n",
                static_cast<unsigned long long>(skipped));
    std::printf("  \"oracle_checks\": %llu,\n",
                static_cast<unsigned long long>(checks));
    std::printf("  \"cross_backend_disagreements\": %llu,\n",
                static_cast<unsigned long long>(cross_disagreed));
    std::printf("  \"timed_out\": %s,\n", timed_out ? "true" : "false");
    std::printf("  \"seconds\": %.2f,\n", elapsed());
    std::printf("  \"disagreements\": [\n");
    for (std::size_t i = 0; i < repros.size(); ++i) {
      const Repro& r = repros[i];
      std::printf(
          "    {\"trial\": %llu, \"seed\": %llu, \"oracle\": \"%s\", "
          "\"ops\": %d, \"repro\": \"%s\", \"trail\": \"%s\", "
          "\"detail\": \"%s\"}%s\n",
          static_cast<unsigned long long>(r.trial),
          static_cast<unsigned long long>(r.seed),
          to_string(r.oracle), r.program.total_ops(),
          json_escape(r.path).c_str(), json_escape(r.trail_path).c_str(),
          json_escape(r.detail).c_str(), i + 1 < repros.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    std::printf(
        "%llu/%llu trials (%llu skipped), %llu oracle checks, "
        "%zu disagreements (%llu cross-backend)%s in %.1fs (seed %llu)\n",
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(trials),
        static_cast<unsigned long long>(skipped),
        static_cast<unsigned long long>(checks),
        repros.size() + static_cast<std::size_t>(cross_disagreed),
        static_cast<unsigned long long>(cross_disagreed),
        timed_out ? " (timeout)" : "", elapsed(),
        static_cast<unsigned long long>(base_seed));
  }
  if (!metrics_out.empty()) {
    cds::obs::Registry m;
    m.counter("fuzz.trials").add(done);
    m.counter("fuzz.trials_skipped").add(skipped);
    m.counter("fuzz.oracle_checks").add(checks);
    m.counter("fuzz.disagreements").add(repros.size());
    m.counter("fuzz.cross_backend_disagreements").add(cross_disagreed);
    m.gauge("fuzz.timed_out").set(timed_out ? 1 : 0);
    m.timer("fuzz.campaign").add_ns(
        static_cast<std::uint64_t>(elapsed() * 1e9));
    std::string err;
    if (!cds::mc::write_text_file_atomic(metrics_out, m.to_json(), &err)) {
      std::fprintf(stderr, "cdsspec-fuzz: cannot write '%s': %s\n",
                   metrics_out.c_str(), err.c_str());
    }
  }
  return (repros.empty() && cross_disagreed == 0) ? kExitAgreed
                                                  : kExitDisagreed;
}
