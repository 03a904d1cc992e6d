// Time-to-verdict benchmark: the measuring program.
//
// Runs one workload as a closed loop of passes (one pass runs every check of
// the workload once, in a seeded order) until --seconds have been spent,
// checks every answer against perfbench/known_answers.txt, and prints one
// JSON report line on stdout. perfbench/run.py builds this program, turns
// the report into the benchmark's metrics and prints them; see
// perfbench/README.md for the workloads, metrics and predictions.
//
// Layers are measured only from outside the checker: spans around calls
// into public functions (harness::run_benchmark, run_benchmark_parallel,
// fuzz::mc_behaviors, mc::Engine::explore, the SpecChecker callbacks,
// fiber::Fiber) and counters those functions already return.
//
// Usage:
//   verdict_bench --workload W --seed N --seconds S --answers FILE
//                 [--trace-out FILE] [--setup-only] [--fixed-order]
//   verdict_bench --record-goldens DIR
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_shapes.h"
#include "ds/chaselev_deque.h"
#include "ds/msqueue.h"
#include "ds/suite.h"
#include "fiber/fiber.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "perfbench/span_trace.h"
#include "spec/checker.h"
#include "support/rng.h"

namespace perfbench {
namespace {

namespace harness = cds::harness;
namespace mc = cds::mc;

// Worker processes for the sharded workload. Two leaves one CPU of a
// 4-CPU host for the coordinator and one spare, so shard hand-off is
// measured without oversubscription.
constexpr int kShardedJobs = 2;

// Per-pass layer accounting. Counts come from ExplorationStats, the spec
// checker's Stats and the engine registry; times from spans the benchmark
// takes around public calls (traced passes) or from the registry timers a
// sharded run merges back from its workers.
struct Layers {
  std::uint64_t executions = 0;
  std::uint64_t feasible = 0;
  std::uint64_t pruned_livelock = 0;
  std::uint64_t pruned_redundant = 0;
  std::uint64_t rf_infeasible = 0;
  std::uint64_t rf_wait_choices = 0;
  std::uint64_t choice_points = 0;
  std::uint64_t histories_checked = 0;
  std::uint64_t justification_checks = 0;

  // Explore time and the work it covers.
  double explore_s = 0.0;
  std::uint64_t timed_executions = 0;
  std::uint64_t timed_choice_points = 0;
  // SpecChecker callbacks, timed through the forwarding listener.
  double spec_s = 0.0;
  std::uint64_t spec_checks = 0;

  // Sharded runs (harness/parallel.h).
  double critical_s = 0.0;     // sum over unit tests of the slowest shard
  double test_wall_s = 0.0;    // sum over unit tests of fork_map wall
  double busy_s = 0.0;         // sum of shard spans
  double parallel_wall_s = 0.0;  // wall of the run_benchmark_parallel calls
  double handoff_s = 0.0;      // test wall minus slowest shard
  double queue_wait_s = 0.0;
  std::uint64_t shards = 0;
  std::uint64_t probe_executions = 0;
  std::uint64_t crashed_shards = 0;
};

std::uint64_t choice_points(const cds::obs::Registry& m) {
  return m.counter_value("engine.schedule_choice_points") +
         m.counter_value("engine.rf_choice_points");
}

void add_counts(const harness::RunResult& r, Layers& L) {
  L.executions += r.mc.executions;
  L.feasible += r.mc.feasible;
  L.pruned_livelock += r.mc.pruned_livelock;
  L.pruned_redundant += r.mc.pruned_redundant;
  L.rf_infeasible += r.mc.rf_infeasible;
  L.rf_wait_choices += r.metrics.counter_value("engine.rf_wait_choices");
  L.choice_points += choice_points(r.metrics);
  L.histories_checked += r.spec.histories_checked;
  L.justification_checks += r.spec.justification_checks;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Forwards the engine's listener callbacks to the SpecChecker and times
// each one; with a trace attached it also records every callback as a
// span under the exploration span.
class TimedListener : public mc::ExecutionListener {
 public:
  TimedListener(cds::spec::SpecChecker& checker, SpanTrace* spans, int parent)
      : checker_(checker), spans_(spans), parent_(parent) {}

  void on_execution_begin(mc::Engine& e) override {
    const Clock::time_point t0 = Clock::now();
    checker_.on_execution_begin(e);
    record("spec.begin", t0);
  }
  bool on_execution_complete(mc::Engine& e) override {
    const Clock::time_point t0 = Clock::now();
    const bool go_on = checker_.on_execution_complete(e);
    record("spec.complete", t0);
    ++checks;
    return go_on;
  }
  void on_checkpoint(
      std::vector<std::pair<std::string, std::uint64_t>>& extra) override {
    checker_.on_checkpoint(extra);
  }

  double seconds = 0.0;
  std::uint64_t checks = 0;

 private:
  void record(const char* name, Clock::time_point t0) {
    const Clock::time_point t1 = Clock::now();
    seconds += seconds_between(t0, t1);
    if (spans_ != nullptr) spans_->add(name, parent_, 0, t0, t1);
  }

  cds::spec::SpecChecker& checker_;
  SpanTrace* spans_;
  int parent_;
};

// What one check run hands back to the pass loop.
struct Answer {
  std::string text;
  std::uint64_t executions = 0;
};

struct Ctx {
  std::uint64_t seed = 0;
  Layers* layers = nullptr;
  // Null in untraced passes.
  SpanTrace* spans = nullptr;
  bool keep_callback_spans = false;
  int check_span = SpanTrace::kNoParent;
};

harness::RunOptions base_options(mc::ExploreMode mode, std::uint64_t seed) {
  harness::RunOptions o;
  o.engine.explore = mode;
  o.engine.seed = seed;
  o.checker.seed = cds::support::derive_seed(seed, 1);  // as cdsspec-run
  return o;
}

// One unit test explored the way harness::run_with_spec builds it (an
// Engine plus an attached SpecChecker), with the listener wrapped so the
// spec callbacks are timed separately from the exploration.
harness::RunResult explore_traced(const mc::TestFn& test,
                                  const harness::RunOptions& opts,
                                  const std::string& label, Ctx& c) {
  mc::Engine engine(opts.engine);
  cds::spec::SpecChecker checker(opts.checker);
  checker.attach(engine);
  const int span = c.spans->begin("explore " + label, c.check_span);
  TimedListener timed(checker, c.keep_callback_spans ? c.spans : nullptr,
                      span);
  engine.set_listener(&timed);
  harness::RunResult r;
  r.mc = engine.explore(test);
  const double explore_s = c.spans->end(span);
  r.spec = checker.stats();
  r.metrics.merge(engine.metrics());
  r.violations = engine.violations();
  r.verdict = r.mc.verdict;
  checker.detach();

  Layers& L = *c.layers;
  L.explore_s += explore_s;
  L.spec_s += timed.seconds;
  L.spec_checks += timed.checks;
  L.timed_executions += r.mc.executions;
  L.timed_choice_points += choice_points(r.metrics);
  return r;
}

// Weakest verdict wins, as harness::run_benchmark aggregates unit tests.
void weaken(mc::Verdict& into, mc::Verdict v) {
  if (v == mc::Verdict::kFalsified || into == mc::Verdict::kFalsified) {
    into = mc::Verdict::kFalsified;
  } else if (v == mc::Verdict::kInconclusive) {
    into = mc::Verdict::kInconclusive;
  }
}

Answer run_suite_benchmark(const harness::Benchmark& b, mc::ExploreMode mode,
                           Ctx& c) {
  const harness::RunOptions opts = base_options(mode, c.seed);
  if (c.spans == nullptr) {
    const harness::RunResult r = harness::run_benchmark(b, opts);
    add_counts(r, *c.layers);
    return {mc::to_string(r.verdict), r.mc.executions};
  }
  mc::Verdict verdict = mc::Verdict::kVerifiedExhaustive;
  std::uint64_t executions = 0;
  for (std::size_t i = 0; i < b.tests.size(); ++i) {
    harness::RunOptions per_test = opts;
    per_test.engine.test_name = b.name + "#" + std::to_string(i);
    per_test.engine.test_index = static_cast<std::uint32_t>(i);
    const harness::RunResult r =
        explore_traced(b.tests[i], per_test, per_test.engine.test_name, c);
    add_counts(r, *c.layers);
    weaken(verdict, r.verdict);
    executions += r.mc.executions;
  }
  return {mc::to_string(verdict), executions};
}

// The paper's Figure 8 classification priority: built-in, then
// admissibility, then assertion.
const char* detection_class(const harness::RunResult& r) {
  if (r.detected_builtin()) return "built-in";
  if (r.detected_admissibility()) return "admissibility";
  if (r.detected_assertion()) return "assertion";
  return "none";
}

Answer run_known_bug(const std::string& name, const mc::TestFn& test,
                     mc::ExploreMode mode, Ctx& c) {
  harness::RunOptions opts = base_options(mode, c.seed);
  opts.engine.stop_on_first_violation = true;
  const harness::RunResult r = c.spans == nullptr
                                   ? harness::run_with_spec(test, opts)
                                   : explore_traced(test, opts, name, c);
  add_counts(r, *c.layers);
  return {std::string(mc::to_string(r.verdict)) + "/" + detection_class(r),
          r.mc.executions};
}

// Unit-test index of a shard span named "bench#<test> shard u/N".
int shard_test_index(const std::string& name) {
  const std::size_t hash = name.rfind('#');
  return hash == std::string::npos ? 0 : std::atoi(name.c_str() + hash + 1);
}

Answer run_sharded_benchmark(const harness::Benchmark& b, Ctx& c) {
  const harness::RunOptions opts = base_options(mc::ExploreMode::kSchedule,
                                                c.seed);
  harness::ParallelOptions par;
  par.jobs = kShardedJobs;
  const Clock::time_point t0 = Clock::now();
  const harness::ParallelRunResult pr =
      harness::run_benchmark_parallel(b, opts, par);
  const double wall_s = seconds_between(t0, Clock::now());

  Layers& L = *c.layers;
  add_counts(pr.merged, L);
  L.shards += pr.shards;
  L.probe_executions += pr.probe_executions;
  L.crashed_shards += pr.crashed_shards;
  L.parallel_wall_s += wall_s;
  // The workers' explore timers merge back by summation; the spec
  // callbacks run inside the workers, so they cannot be split out here.
  const auto& timers = pr.merged.metrics.timers();
  if (auto it = timers.find("engine.explore"); it != timers.end()) {
    L.explore_s += it->second.total_seconds();
    L.timed_executions += pr.merged.mc.executions;
    L.timed_choice_points += choice_points(pr.merged.metrics);
  }
  if (auto it = timers.find("parallel.shard_queue_wait"); it != timers.end()) {
    L.queue_wait_s += it->second.total_seconds();
  }

  // Span offsets are cumulative over unit tests: each test's offsets start
  // where the previous test's last shard ended (harness/parallel.cc), so a
  // test's fork_map wall is its last end minus the previous test's.
  std::map<int, std::pair<double, double>> per_test;  // test -> {end, slowest}
  for (const harness::ShardSpan& s : pr.spans) {
    auto& [end, slowest] = per_test[shard_test_index(s.name)];
    end = std::max(end, s.start_seconds + s.duration_seconds);
    slowest = std::max(slowest, s.duration_seconds);
    L.busy_s += s.duration_seconds;
    if (c.spans != nullptr) {
      c.spans->add(s.name, c.check_span, 1 + s.worker,
                   c.spans->start_of(c.check_span) + s.start_seconds,
                   s.duration_seconds);
    }
  }
  double prev_end = 0.0;
  for (const auto& [test, t] : per_test) {
    const double test_wall = t.first - prev_end;
    prev_end = t.first;
    L.critical_s += t.second;
    L.test_wall_s += test_wall;
    L.handoff_s += test_wall - t.second;
  }
  return {mc::to_string(pr.merged.verdict), pr.merged.mc.executions};
}

struct ShapeCheck {
  cds::fuzz::Program program;
  std::string golden_path;
  cds::fuzz::BehaviorSet golden;
};

Answer run_shape(const ShapeCheck& s, Ctx& c) {
  cds::fuzz::OracleConfig cfg;
  cfg.jobs = kShardedJobs;
  cfg.seed = c.seed;
  const cds::fuzz::McBehaviors r = cds::fuzz::mc_behaviors(s.program, cfg);
  std::string text = "behaviors " + s.golden_path;
  if (!r.exhausted) {
    text += " (not exhausted)";
  } else if (r.behaviors != s.golden) {
    std::size_t extra = 0;
    for (const std::string& b : r.behaviors) extra += s.golden.count(b) == 0;
    std::size_t missing = 0;
    for (const std::string& b : s.golden) missing += r.behaviors.count(b) == 0;
    text += " (differs: " + std::to_string(extra) + " extra, " +
            std::to_string(missing) + " missing)";
  }
  return {text, r.executions};
}

// ---------------------------------------------------------------------------
// Known answers and goldens
// ---------------------------------------------------------------------------

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Expected answer per check name.
using Answers = std::map<std::string, std::string>;

// "<check> <answer...>" per line; '#' starts a comment line.
bool load_answers(const std::string& path, Answers* out, std::string* err) {
  std::string text;
  if (!read_file(path, &text)) {
    *err = "cannot read " + path;
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string answer;
    fields >> name;
    std::getline(fields >> std::ws, answer);
    if (name.empty() || answer.empty()) {
      *err = path + ": malformed line '" + line + "'";
      return false;
    }
    (*out)[name] = answer;
  }
  return true;
}

bool load_behaviors(const std::string& path, cds::fuzz::BehaviorSet* out) {
  std::string text;
  if (!read_file(path, &text)) return false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] != '#') out->insert(line);
  }
  return true;
}

bool parse_shape(const cds_bench::Shape& s, cds::fuzz::Program* p) {
  std::string err;
  if (cds::fuzz::Program::parse(s.text, p, &err)) return true;
  std::fprintf(stderr, "perfbench: bad shape %s: %s\n", s.name, err.c_str());
  return false;
}

// Records each litmus shape's behaviour set after confirming it is the
// same under schedule mode, rf mode, and one or two worker processes.
int record_goldens(const std::string& dir) {
  for (const cds_bench::Shape& s : cds_bench::kBenchShapes) {
    cds::fuzz::Program p;
    if (!parse_shape(s, &p)) return 1;
    cds::fuzz::OracleConfig sched;
    cds::fuzz::OracleConfig rf;
    rf.explore = mc::ExploreMode::kRf;
    cds::fuzz::OracleConfig sharded;
    sharded.jobs = kShardedJobs;
    const cds::fuzz::McBehaviors a = cds::fuzz::mc_behaviors(p, sched);
    const cds::fuzz::McBehaviors b = cds::fuzz::mc_behaviors(p, rf);
    const cds::fuzz::McBehaviors c = cds::fuzz::mc_behaviors(p, sharded);
    if (!a.exhausted || !b.exhausted || !c.exhausted ||
        a.behaviors != b.behaviors || a.behaviors != c.behaviors) {
      std::fprintf(stderr,
                   "perfbench: %s: behaviour sets disagree across modes "
                   "(schedule %zu, rf %zu, jobs=%d %zu); not recorded\n",
                   s.name, a.behaviors.size(), b.behaviors.size(),
                   kShardedJobs, c.behaviors.size());
      return 1;
    }
    const std::string path = dir + "/" + s.name + ".txt";
    std::ofstream out(path);
    out << "# Behaviour set of the bench/bench_shapes.h shape " << s.name
        << ".\n# Equal under schedule mode, rf mode and jobs=1/"
        << kShardedJobs << " when recorded.\n"
        << "# Executions when recorded (informational, not gated): schedule="
        << a.executions << " rf=" << b.executions << "\n";
    for (const std::string& beh : a.behaviors) out << beh << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s: %zu behaviours -> %s\n", s.name, a.behaviors.size(),
                path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  std::string expected;
  std::function<Answer(Ctx&)> run;
};

struct Workload {
  int jobs = 1;
  std::vector<Check> checks;
};

bool add_check(Workload& w, const Answers& answers, std::string name,
               std::function<Answer(Ctx&)> run, std::string* err) {
  auto it = answers.find(name);
  if (it == answers.end()) {
    *err = "no known answer for check '" + name + "'";
    return false;
  }
  w.checks.push_back({std::move(name), it->second, std::move(run)});
  return true;
}

struct KnownBug {
  const char* name;
  mc::TestFn test;
};

std::vector<KnownBug> known_bugs() {
  using cds::ds::MSQueue;
  return {
      {"bug.msqueue-enqueue",
       cds::ds::msqueue_buggy_test(MSQueue::Variant::kBugEnq)},
      {"bug.msqueue-dequeue",
       cds::ds::msqueue_buggy_test(MSQueue::Variant::kBugDeq)},
      {"bug.chaselev-raw-arrays",
       cds::ds::chaselev_buggy_test(/*init_arrays=*/false)},
      {"bug.chaselev-init-arrays",
       cds::ds::chaselev_buggy_test(/*init_arrays=*/true)},
  };
}

bool add_suite(Workload& w, const Answers& answers, mc::ExploreMode mode,
               std::string* err) {
  for (const harness::Benchmark& b : harness::benchmarks()) {
    // Chase-Lev's schedule-mode state space (~2.7M executions, minutes)
    // would swamp every other check; rf mode keeps it.
    if (mode == mc::ExploreMode::kSchedule && b.name == "chase-lev-deque") {
      continue;
    }
    if (!add_check(w, answers, b.name,
                   [&b, mode](Ctx& c) {
                     return run_suite_benchmark(b, mode, c);
                   },
                   err)) {
      return false;
    }
  }
  for (KnownBug& bug : known_bugs()) {
    if (!add_check(w, answers, bug.name,
                   [name = std::string(bug.name), test = std::move(bug.test),
                    mode](Ctx& c) { return run_known_bug(name, test, mode, c); },
                   err)) {
      return false;
    }
  }
  return true;
}

// A shape's known answer names its golden behaviour file, loaded here so
// passes compare in memory.
bool add_shape(Workload& w, const Answers& answers, const cds_bench::Shape& s,
               std::string* err) {
  const std::string name = std::string("shape.") + s.name;
  auto it = answers.find(name);
  const std::string prefix = "behaviors ";
  ShapeCheck shape;
  if (it == answers.end() || it->second.rfind(prefix, 0) != 0 ||
      !load_behaviors(it->second.substr(prefix.size()), &shape.golden)) {
    *err = name + ": no readable golden behaviour file in the known answers";
    return false;
  }
  shape.golden_path = it->second.substr(prefix.size());
  if (!parse_shape(s, &shape.program)) {
    *err = name + ": bad shape";
    return false;
  }
  return add_check(w, answers, name,
                   [shape = std::move(shape)](Ctx& c) {
                     return run_shape(shape, c);
                   },
                   err);
}

bool make_workload(const std::string& name, const Answers& answers,
                   Workload* w, std::string* err) {
  if (name == "suite_schedule") {
    return add_suite(*w, answers, mc::ExploreMode::kSchedule, err);
  }
  if (name == "suite_rf") {
    return add_suite(*w, answers, mc::ExploreMode::kRf, err);
  }
  if (name != "sharded") {
    *err = "unknown workload '" + name +
           "' (suite_schedule, suite_rf, sharded)";
    return false;
  }
  w->jobs = kShardedJobs;
  for (const char* bench :
       {"mcs-lock", "ttas-lock", "ms-queue", "linux-rwlock"}) {
    const harness::Benchmark* b = harness::find_benchmark(bench);
    if (b == nullptr) {
      *err = std::string("benchmark not registered: ") + bench;
      return false;
    }
    if (!add_check(*w, answers, bench,
                   [b](Ctx& c) { return run_sharded_benchmark(*b, c); },
                   err)) {
      return false;
    }
  }
  for (const cds_bench::Shape& s : cds_bench::kBenchShapes) {
    if (!add_shape(*w, answers, s, err)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Probes and host facts
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Nanoseconds per scheduler <-> fiber round trip through Fiber::switch_to
// (two switches), median of five repetitions.
double fiber_round_trip_ns() {
  constexpr int kTrips = 100000;
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    cds::fiber::Fiber native;
    native.init_native();
    cds::fiber::Fiber f;
    bool stop = false;
    f.reset([&] {
      while (!stop) native.switch_to(f);
      f.mark_finished();
      native.switch_to(f);
    });
    f.switch_to(native);  // start the fiber outside the timed loop
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kTrips; ++i) f.switch_to(native);
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 / kTrips);
    stop = true;
    f.switch_to(native);
  }
  return median(reps);
}

// Nanoseconds per Fiber::reset (re-arming a fiber whose stack exists).
double fiber_reset_ns() {
  constexpr int kResets = 100000;
  std::vector<double> reps;
  cds::fiber::Fiber f;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kResets; ++i) f.reset([] {});
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 / kResets);
  }
  return median(reps);
}

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

// User and system CPU of this process plus its reaped children.
CpuTimes cpu_now() {
  CpuTimes t;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    t.user_s += ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    t.sys_s += ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  }
  return t;
}

long peak_rss_kb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self.ru_maxrss, children.ru_maxrss);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Host and build facts, and whether a result taken here is comparable:
// optimised code, and a CPU for every worker plus the coordinator.
std::string stamp_json(const std::string& workload, std::uint64_t seed,
                       int jobs) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::string why;
  if (!optimized) why += "build without optimisation; ";
  if (nproc < jobs + 1) {
    why += "nproc " + std::to_string(nproc) + " < jobs + 1; ";
  }
  std::string s = "{";
  s += "\"workload\":\"" + json_escape(workload) + "\"";
  s += ",\"seed\":" + std::to_string(seed);
  s += ",\"jobs\":" + std::to_string(jobs);
  s += ",\"nproc\":" + std::to_string(nproc);
  s += ",\"cpu_model\":\"" + json_escape(cpu_model()) + "\"";
  s += ",\"compiler\":\"" + json_escape(compiler()) + "\"";
  s += ",\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  s += std::string(",\"optimized\":") + (optimized ? "true" : "false");
  s += std::string(",\"comparable\":") + (why.empty() ? "true" : "false");
  s += ",\"not_comparable_because\":\"" + json_escape(why) + "\"";
  s += "}";
  return s;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Per-pass layer values, named as the per-layer metrics they feed.
std::string layers_json(const Layers& L) {
  const double self_s = L.explore_s - L.spec_s;
  const std::vector<std::pair<const char*, double>> v = {
      {"mc.self_s", self_s},
      {"mc.ns_per_exec", ratio(self_s * 1e9, L.timed_executions)},
      {"mc.ns_per_choice_point", ratio(self_s * 1e9, L.timed_choice_points)},
      {"mc.executions", static_cast<double>(L.executions)},
      {"mc.feasible", static_cast<double>(L.feasible)},
      {"mc.useful_ratio", ratio(L.feasible, L.executions)},
      {"mc.pruned_livelock", static_cast<double>(L.pruned_livelock)},
      {"mc.pruned_redundant", static_cast<double>(L.pruned_redundant)},
      {"mc.rf_infeasible", static_cast<double>(L.rf_infeasible)},
      {"mc.rf_wait_choices", static_cast<double>(L.rf_wait_choices)},
      {"mc.choice_points", static_cast<double>(L.choice_points)},
      {"spec.check_s", L.spec_s},
      {"spec.share", ratio(L.spec_s, L.explore_s)},
      {"spec.us_per_check", ratio(L.spec_s * 1e6, L.spec_checks)},
      {"spec.histories_checked", static_cast<double>(L.histories_checked)},
      {"spec.justification_checks",
       static_cast<double>(L.justification_checks)},
      {"parallel.critical_share", ratio(L.critical_s, L.test_wall_s)},
      {"parallel.busy_share",
       ratio(L.busy_s, kShardedJobs * L.parallel_wall_s)},
      {"parallel.handoff_s", L.handoff_s},
      {"parallel.queue_wait_s", L.queue_wait_s},
      {"parallel.shards", static_cast<double>(L.shards)},
      {"parallel.probe_executions", static_cast<double>(L.probe_executions)},
      {"parallel.crashed_shards", static_cast<double>(L.crashed_shards)},
  };
  std::string s = "{";
  for (const auto& [k, x] : v) {
    if (s.size() > 1) s += ",";
    s += "\"" + std::string(k) + "\":" + num(x);
  }
  return s + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string answers = "perfbench/known_answers.txt";
  std::string trace_out;
  std::string record_dir;
  bool setup_only = false;
  // Run the checks in registry order instead of the seeded order.
  bool fixed_order = false;
};

bool parse_u64(const char* s, std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only" || flag == "--fixed-order") {
      (flag == "--setup-only" ? a->setup_only : a->fixed_order) = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      ok = parse_u64(v, &a->seed);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a->seconds = std::strtod(v, &end);
      ok = *v != '\0' && *end == '\0' && a->seconds > 0.0;
    } else if (flag == "--answers") {
      a->answers = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else if (flag == "--record-goldens") {
      a->record_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: invalid value for %s\n", flag.c_str());
      return false;
    }
  }
  if (a->record_dir.empty() && a->workload.empty()) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return false;
  }
  return true;
}

// Deterministic Fisher-Yates order of the checks for pass `pass`.
std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                    std::uint64_t pass, bool fixed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (fixed) return order;
  std::uint64_t state = cds::support::derive_seed(seed, pass + 2);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = cds::support::splitmix64(state) % i;
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

int run(const Args& args) {
  cds::ds::register_all_benchmarks();
  Workload w;
  Answers answers;
  std::string err;
  if (!load_answers(args.answers, &answers, &err) ||
      !make_workload(args.workload, answers, &w, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  const std::string stamp = stamp_json(args.workload, args.seed, w.jobs);
  // The parent times set-up from its spawn of this process to this line.
  std::printf("ready\n");
  std::fflush(stdout);
  if (args.setup_only) return 0;

  const bool traced = !args.trace_out.empty();
  const Clock::time_point origin = Clock::now();
  SpanTrace spans(origin);
  std::string passes_json;
  std::string mismatches_json;
  std::map<std::string, std::uint64_t> executions;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> walls;
  // A traced run alternates traced and untraced passes, so the tracing
  // overhead is measured under the same conditions; it needs one of each.
  const std::size_t min_passes = traced ? 2 : 1;

  for (std::uint64_t pass = 0;; ++pass) {
    const bool trace_pass = traced && pass % 2 == 0;
    Layers layers;
    Ctx ctx;
    ctx.seed = args.seed;
    ctx.layers = &layers;
    ctx.spans = trace_pass ? &spans : nullptr;
    // Only the first traced pass keeps one span per spec callback; later
    // traced passes still time every callback.
    ctx.keep_callback_spans = pass == 0;
    const int pass_span =
        trace_pass ? spans.begin("pass " + std::to_string(pass),
                                 SpanTrace::kNoParent)
                   : SpanTrace::kNoParent;
    const CpuTimes cpu0 = cpu_now();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t idx : pass_order(w.checks.size(), args.seed, pass,
                                          args.fixed_order)) {
      const Check& check = w.checks[idx];
      ctx.check_span = trace_pass ? spans.begin("check " + check.name,
                                                pass_span)
                                  : SpanTrace::kNoParent;
      const Answer got = check.run(ctx);
      if (trace_pass) spans.end(ctx.check_span);
      ++attempted;
      executions[check.name] = got.executions;
      if (got.text != check.expected) {
        ++failed;
        std::fprintf(stderr,
                     "perfbench: check %s answered '%s', expected '%s'\n",
                     check.name.c_str(), got.text.c_str(),
                     check.expected.c_str());
        if (!mismatches_json.empty()) mismatches_json += ",";
        mismatches_json += "{\"check\":\"" + json_escape(check.name) +
                           "\",\"pass\":" + std::to_string(pass) +
                           ",\"expected\":\"" + json_escape(check.expected) +
                           "\",\"got\":\"" + json_escape(got.text) + "\"}";
      }
    }
    const double wall = seconds_between(t0, Clock::now());
    const CpuTimes cpu1 = cpu_now();
    if (trace_pass) spans.end(pass_span);
    walls.push_back(wall);
    if (!passes_json.empty()) passes_json += ",";
    passes_json += "{\"traced\":" + std::string(trace_pass ? "true" : "false") +
                   ",\"wall_s\":" + num(wall) +
                   ",\"user_s\":" + num(cpu1.user_s - cpu0.user_s) +
                   ",\"sys_s\":" + num(cpu1.sys_s - cpu0.sys_s) +
                   ",\"layers\":" + layers_json(layers) + "}";
    const double elapsed = seconds_between(origin, Clock::now());
    if (walls.size() >= min_passes && elapsed + median(walls) > args.seconds) {
      break;
    }
  }

  std::string report = "{\"stamp\":" + stamp;
  report += ",\"passes\":[" + passes_json + "]";
  report += ",\"attempted\":" + std::to_string(attempted);
  report += ",\"failed\":" + std::to_string(failed);
  report += ",\"mismatches\":[" + mismatches_json + "]";
  report += ",\"executions\":{";
  bool first = true;
  for (const auto& [name, n] : executions) {
    report += (first ? "\"" : ",\"") + json_escape(name) +
              "\":" + std::to_string(n);
    first = false;
  }
  report += "}";
  report += ",\"peak_rss_kb\":" + std::to_string(peak_rss_kb());
  if (traced) {
    report += ",\"fiber\":{\"round_trip_ns\":" + num(fiber_round_trip_ns()) +
              ",\"reset_ns\":" + num(fiber_reset_ns()) + "}";
    if (!spans.write_chrome(args.trace_out, stamp)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    report += ",\"trace_file\":\"" + json_escape(args.trace_out) + "\"";
  }
  report += "}";
  std::printf("%s\n", report.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) return 2;
  if (!args.record_dir.empty()) {
    cds::ds::register_all_benchmarks();
    return perfbench::record_goldens(args.record_dir);
  }
  return perfbench::run(args);
}
