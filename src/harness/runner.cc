#include "harness/runner.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "support/kv.h"
#include "support/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_HARNESS_HAS_FORK 1
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cds::harness {

namespace {
std::vector<Benchmark>& registry() {
  static std::vector<Benchmark> v;
  return v;
}

bool has_kind(const std::vector<mc::Violation>& vs, mc::ViolationKind k) {
  for (const auto& v : vs) {
    if (v.kind == k) return true;
  }
  return false;
}

// Paper's classification priority (Figure 8 columns).
Detection classify(const RunResult& r) {
  if (r.detected_builtin()) return Detection::kBuiltin;
  if (r.detected_admissibility()) return Detection::kAdmissibility;
  if (r.detected_assertion()) return Detection::kAssertion;
  return Detection::kNone;
}
}  // namespace

bool RunResult::detected_builtin() const {
  return mc.builtin_violation_execs > 0 || mc.crash_execs > 0 ||
         has_kind(violations, mc::ViolationKind::kDataRace) ||
         has_kind(violations, mc::ViolationKind::kUninitializedLoad) ||
         has_kind(violations, mc::ViolationKind::kDeadlock) ||
         has_kind(violations, mc::ViolationKind::kCrash);
}

bool RunResult::detected_admissibility() const {
  return spec.inadmissible_execs > 0;
}

bool RunResult::detected_assertion() const {
  return spec.assertion_violation_execs > 0 ||
         has_kind(violations, mc::ViolationKind::kUserAssertion);
}

RunResult run_with_spec(const mc::TestFn& test, const RunOptions& opts) {
  mc::Engine engine(opts.engine);
  spec::SpecChecker checker(opts.checker);
  checker.attach(engine);
  engine.set_checkpoint_base(opts.checkpoint_base);
  if (!opts.subtree.empty()) engine.set_subtree(opts.subtree);
  if (opts.resume != nullptr) {
    checker.restore_from_checkpoint(*opts.resume);
    engine.set_resume(*opts.resume);
  }
  RunResult r;
  r.mc = engine.explore(test);
  r.spec = checker.stats();
  r.metrics.merge(engine.metrics());
  r.violations = engine.violations();
  r.reports = checker.reports();
  r.frontier = engine.preempt_frontier();
  r.verdict = r.mc.verdict;
  checker.detach();
  return r;
}

void register_benchmark(Benchmark b) {
  for (const Benchmark& e : registry()) {
    if (e.name == b.name) return;  // idempotent
  }
  registry().push_back(std::move(b));
}

const std::vector<Benchmark>& benchmarks() { return registry(); }

const Benchmark* find_benchmark(const std::string& name) {
  for (const Benchmark& b : registry()) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

void encode_prior(const RunResult& total, mc::Checkpoint* cp) {
  cp->set_extra("prior.present", 1);
  support::put_fields(cp->extra, "prior.", total.mc);
  support::put_fields(cp->extra, "prior.spec.", total.spec);
}

bool decode_prior(const mc::Checkpoint& cp, RunResult* total) {
  if (cp.extra_value("prior.present") == 0) return false;
  support::get_fields(cp.extra, "prior.", &total->mc);
  support::get_fields(cp.extra, "prior.spec.", &total->spec);
  return true;
}

RunResult run_benchmark(const Benchmark& b, const RunOptions& opts) {
  RunResult total;
  total.mc.seed = opts.engine.seed;
  // Both weakened below if any test falls short.
  total.mc.exhausted = true;
  total.mc.verdict = mc::Verdict::kVerifiedExhaustive;
  const bool checkpointing = !opts.engine.checkpoint_path.empty();

  // Resume: fast-forward over already-finished tests using the totals
  // persisted in the checkpoint's "prior.*" extras, then hand the
  // interrupted test's state to the engine. A checkpoint that does not
  // belong to this benchmark is ignored (fresh run) rather than trusted.
  const mc::Checkpoint* resume_cp = opts.resume;
  std::size_t first_test = 0;
  if (resume_cp != nullptr) {
    const std::string want_prefix = b.name + "#";
    if (resume_cp->test_name.rfind(want_prefix, 0) != 0 ||
        resume_cp->test_index >= b.tests.size()) {
      std::fprintf(stderr,
                   "cds::harness: checkpoint is for '%s', not benchmark '%s'; "
                   "starting fresh\n",
                   resume_cp->test_name.c_str(), b.name.c_str());
      resume_cp = nullptr;
    } else {
      first_test = resume_cp->test_index;
      decode_prior(*resume_cp, &total);
      total.mc.seed = opts.engine.seed;
      for (const mc::Violation& v : resume_cp->violations) {
        if (v.test_index < first_test) total.violations.push_back(v);
      }
    }
  }

  // The time budget covers the whole benchmark: each test gets what the
  // previous ones left over. Once it is gone, the remaining tests run with
  // an epsilon budget so they still report (inconclusive) instead of
  // exploring unbounded.
  double remaining = opts.engine.time_budget_seconds - total.mc.seconds;
  for (std::size_t i = first_test; i < b.tests.size(); ++i) {
    RunOptions per_test = opts;
    per_test.resume = nullptr;
    per_test.engine.test_name = b.name + "#" + std::to_string(i);
    per_test.engine.test_index = static_cast<std::uint32_t>(i);
    if (opts.engine.time_budget_seconds > 0.0) {
      per_test.engine.time_budget_seconds = remaining > 0.001 ? remaining : 0.001;
    }
    // The engine carries the prior tests' totals and violation records
    // into every checkpoint it writes mid-test.
    if (checkpointing) {
      per_test.checkpoint_base = mc::Checkpoint{};
      encode_prior(total, &per_test.checkpoint_base);
      per_test.checkpoint_base.violations = total.violations;
    }
    mc::Checkpoint engine_resume;
    if (resume_cp != nullptr && i == first_test &&
        resume_cp->phase != mc::Checkpoint::Phase::kStart) {
      engine_resume = *resume_cp;
      engine_resume.violations.clear();
      for (const mc::Violation& v : resume_cp->violations) {
        if (v.test_index == i) engine_resume.violations.push_back(v);
      }
      per_test.resume = &engine_resume;
    }
    RunResult r = run_with_spec(b.tests[i], per_test);
    remaining -= r.mc.seconds;
    mc::merge_shard_stats(total.mc, r.mc);
    mc::weaken_verdict(total.mc.verdict, r.mc.verdict);
    total.spec.merge(r.spec);
    total.metrics.merge(r.metrics);
    for (auto& v : r.violations) total.violations.push_back(std::move(v));
    for (auto& s : r.reports) total.reports.push_back(std::move(s));

    // Between tests: a Phase::kStart checkpoint saying "test i+1 has not
    // begun; here is everything up to it". After the last test the
    // checkpoint has served its purpose — unless the run ended
    // inconclusive (a budget or cap cut the exploration short), in which
    // case the engine's last snapshot stays on disk so --resume can pick
    // the run back up with a bigger budget.
    if (checkpointing) {
      if (i + 1 < b.tests.size()) {
        mc::Checkpoint cp;
        cp.config = mc::ConfigFingerprint::from(opts.engine);
        cp.test_name = b.name + "#" + std::to_string(i + 1);
        cp.test_index = static_cast<std::uint32_t>(i + 1);
        cp.phase = mc::Checkpoint::Phase::kStart;
        encode_prior(total, &cp);
        cp.violations = total.violations;
        std::string err;
        if (!mc::write_checkpoint_file(opts.engine.checkpoint_path, cp, &err)) {
          std::fprintf(stderr, "cds::harness: checkpoint write failed: %s\n",
                       err.c_str());
        }
      } else if (total.mc.verdict != mc::Verdict::kInconclusive) {
        std::remove(opts.engine.checkpoint_path.c_str());
      }
    }
  }
  total.verdict = total.mc.verdict;
  return total;
}

const char* to_string(Detection d) {
  switch (d) {
    case Detection::kNone: return "undetected";
    case Detection::kBuiltin: return "built-in";
    case Detection::kAdmissibility: return "admissibility";
    case Detection::kAssertion: return "assertion";
  }
  return "?";
}

const char* to_string(TrialStatus s) {
  switch (s) {
    case TrialStatus::kCompleted: return "completed";
    case TrialStatus::kCrashed: return "crashed";
    case TrialStatus::kTimedOut: return "timed-out";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Fork-isolated trials
// ---------------------------------------------------------------------------

namespace {

// Runs one injection trial inside this process (no isolation). Used when
// fork is unavailable or disabled; a crash or hang here takes the whole
// campaign with it.
InjectionOutcome run_trial_inline(const Benchmark& b, const RunOptions& opts,
                                  const inject::Site& site) {
  InjectionOutcome out;
  out.site = site;
  inject::inject(site.id);
  RunResult r = run_benchmark(b, opts);
  inject::clear_injection();
  out.how = classify(r);
  out.verdict = r.verdict;
  out.status = TrialStatus::kCompleted;
  out.seconds = r.mc.seconds;
  return out;
}

#ifdef CDS_HARNESS_HAS_FORK

// Fixed-size result message written by the trial child over its pipe.
struct TrialWire {
  std::uint8_t detection;
  std::uint8_t verdict;
  double seconds;
};

// Runs one trial in a forked child with a wall-clock timeout. The child
// performs the injection and the whole benchmark run in its own address
// space, so aborts, corruption, and hangs stay contained.
InjectionOutcome run_trial_forked(const Benchmark& b, const RunOptions& opts,
                                  const inject::Site& site, double timeout_s) {
  InjectionOutcome out;
  out.site = site;

  int fds[2];
  if (pipe(fds) != 0) return run_trial_inline(b, opts, site);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return run_trial_inline(b, opts, site);
  }
  if (pid == 0) {
    // Child: run the trial and report over the pipe. _exit skips atexit
    // handlers (gtest, benchmark registries) that belong to the parent.
    close(fds[0]);
    inject::inject(site.id);
    RunResult r = run_benchmark(b, opts);
    TrialWire w{static_cast<std::uint8_t>(classify(r)),
                static_cast<std::uint8_t>(r.verdict), r.mc.seconds};
    ssize_t rc = write(fds[1], &w, sizeof w);
    (void)rc;
    close(fds[1]);
    _exit(0);
  }

  close(fds[1]);
  auto t0 = std::chrono::steady_clock::now();
  auto remaining_ms = [&]() -> int {
    if (timeout_s <= 0.0) return -1;  // poll: negative = wait forever
    double left =
        timeout_s -
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (left <= 0.0) return 0;
    double ms = left * 1000.0 + 1.0;
    return ms > 2147483000.0 ? 2147483000 : static_cast<int>(ms);
  };

  TrialWire w{};
  std::size_t got = 0;
  bool timed_out = false;
  char* dst = reinterpret_cast<char*>(&w);
  while (got < sizeof w) {
    pollfd pfd{fds[0], POLLIN, 0};
    int pr = poll(&pfd, 1, remaining_ms());
    if (pr == 0) {
      timed_out = true;
      break;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    ssize_t n = read(fds[0], dst + got, sizeof w - got);
    if (n <= 0) break;  // EOF before a full message: the child died
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);

  if (timed_out) {
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    out.status = TrialStatus::kTimedOut;
    out.seconds = timeout_s;
    return out;
  }

  int status = 0;
  waitpid(pid, &status, 0);
  if (got == sizeof w) {
    out.status = TrialStatus::kCompleted;
    out.how = static_cast<Detection>(w.detection);
    out.verdict = static_cast<mc::Verdict>(w.verdict);
    out.seconds = w.seconds;
  } else {
    out.status = TrialStatus::kCrashed;
    out.term_signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    out.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return out;
}

#endif  // CDS_HARNESS_HAS_FORK

InjectionOutcome run_trial(const Benchmark& b, const RunOptions& opts,
                           const inject::Site& site, const SweepOptions& sweep) {
#ifdef CDS_HARNESS_HAS_FORK
  if (sweep.fork_isolation) {
    return run_trial_forked(b, opts, site, sweep.trial_timeout_seconds);
  }
#endif
  return run_trial_inline(b, opts, site);
}

}  // namespace

InjectionSummary run_injection_experiment(const Benchmark& b,
                                          const RunOptions& opts,
                                          const SweepOptions& sweep) {
  InjectionSummary sum;
  sum.benchmark = b.name;
  for (const inject::Site& site : inject::sites_for(b.name)) {
    if (!site.injectable()) continue;
    RunOptions trial_opts = opts;
    trial_opts.engine.seed =
        support::derive_seed(sweep.seed, static_cast<std::uint64_t>(site.id));

    InjectionOutcome out = run_trial(b, trial_opts, site, sweep);
    // One retry ladder on timeout: tighten the execution cap and hand the
    // engine a self-enforced time budget so the retry degrades to
    // sampling (inconclusive) instead of hanging a second time.
    for (int attempt = 0;
         out.status == TrialStatus::kTimedOut && attempt < sweep.timeout_retries;
         ++attempt) {
      RunOptions tighter = trial_opts;
      tighter.engine.max_executions =
          trial_opts.engine.max_executions == 0
              ? 20000
              : std::max<std::uint64_t>(1, trial_opts.engine.max_executions / 4);
      if (sweep.trial_timeout_seconds > 0.0) {
        tighter.engine.time_budget_seconds = sweep.trial_timeout_seconds * 0.5;
      }
      out = run_trial(b, tighter, site, sweep);
      out.retried = true;
    }

    switch (out.status) {
      case TrialStatus::kCompleted:
        switch (out.how) {
          case Detection::kBuiltin: ++sum.builtin; break;
          case Detection::kAdmissibility: ++sum.admissibility; break;
          case Detection::kAssertion: ++sum.assertion; break;
          case Detection::kNone: ++sum.undetected; break;
        }
        break;
      case TrialStatus::kCrashed:
        ++sum.crashed;
        break;
      case TrialStatus::kTimedOut:
        ++sum.timed_out;
        break;
    }
    ++sum.injections;
    sum.outcomes.push_back(std::move(out));
  }
  // Defensive: fork isolation leaves the parent's injection state alone,
  // but the inline path must never leak an active injection.
  inject::clear_injection();
  return sum;
}

}  // namespace cds::harness
