// Parallel exploration scaling: exhaustive DFS behavior collection on two
// widened seed litmus shapes at --jobs 1/2/4/8, reported as executions/sec
// and speedup over the serial run (BENCH_parallel.json).
//
// Every point runs kRuns times. The JSON records the median wall time
// ("seconds") with its min and max; execs/sec and speedup are taken from
// medians, so one noisy run cannot fake a superlinear speedup.
//
// The sharded run enumerates exactly the serial run's executions (disjoint
// subtree prefixes; see src/mc/shard.h), so speedup is pure wall-clock —
// the bench asserts the execution counts and behavior sets agree before
// reporting. The host CPU count is recorded alongside: on a single-core
// container the workers serialize and speedup ~1x is the honest result;
// the nightly CI runners are multi-core.
//
// A distributed point (--dist-workers analog: socket coordinator plus
// forked workers, src/dist/) is appended per shape and held to the same
// bar: merged executions must equal the serial count with zero failed
// shards, so the nightly artifact tracks protocol overhead honestly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench/bench_shapes.h"
#include "dist/coordinator.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "harness/runner.h"

namespace {

using cds_bench::Shape;

constexpr int kRuns = 5;

// Wall-time spread of one point over kRuns runs.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Runs `once` kRuns times; `once` returns false if the run diverged from
// the serial reference, which aborts the measurement.
bool time_runs(const std::function<bool()>& once, Timing* t) {
  std::vector<double> secs;
  for (int i = 0; i < kRuns; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!once()) return false;
    const auto t1 = std::chrono::steady_clock::now();
    secs.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(secs.begin(), secs.end());
  *t = Timing{secs[secs.size() / 2], secs.front(), secs.back()};
  return true;
}

double rate(std::uint64_t execs, double secs) {
  return secs > 0 ? static_cast<double>(execs) / secs : 0.0;
}

// One JSON point: median seconds with min/max, median-based rate and
// speedup over the serial median. More workers than cores measures
// scheduling contention, not parallel speedup; `saturated` flags it so
// BENCH_parallel.json consumers (and the nightly regression check) stop
// reading sub-1.0 speedups on saturated hosts as meaningful.
std::string render_point(const char* key, int width, const Timing& t,
                         const Timing& serial, std::uint64_t execs,
                         bool saturated) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"%s\": %d, \"seconds\": %.4f, \"seconds_min\": %.4f, "
                "\"seconds_max\": %.4f, \"execs_per_sec\": %.1f, "
                "\"speedup\": %.3f, \"saturated\": %s",
                key, width, t.median, t.min, t.max, rate(execs, t.median),
                t.median > 0 ? serial.median / t.median : 1.0,
                saturated ? "true" : "false");
  return buf;
}

int cpu_count() {
#if defined(__unix__) || defined(__APPLE__)
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
#else
  return 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  const int jobs_axis[] = {1, 2, 4, 8};
  const int ncpu = cpu_count();

  std::string json = "{\n";
  json += "  \"bench\": \"parallel_scaling\",\n";
  json += "  \"cpus\": " + std::to_string(ncpu) + ",\n";
  json += "  \"runs\": " + std::to_string(kRuns) + ",\n";
  json += "  \"shapes\": [\n";

  bool first_shape = true;
  for (const Shape& s : cds_bench::kBenchShapes) {
    cds::fuzz::Program p;
    std::string err;
    if (!cds::fuzz::Program::parse(s.text, &p, &err)) {
      std::fprintf(stderr, "parallel_scaling: bad shape %s: %s\n", s.name,
                   err.c_str());
      return 1;
    }
    std::printf("%s:\n", s.name);
    cds::fuzz::McBehaviors serial;
    Timing serial_t;
    std::vector<std::string> points;
    for (int jobs : jobs_axis) {
      cds::fuzz::OracleConfig cfg;
      cfg.jobs = jobs;
      Timing t;
      const bool same = time_runs(
          [&] {
            cds::fuzz::McBehaviors r = cds::fuzz::mc_behaviors(p, cfg);
            if (jobs == 1) {
              serial = std::move(r);
              return true;
            }
            return r.behaviors == serial.behaviors &&
                   r.executions == serial.executions &&
                   r.exhausted == serial.exhausted;
          },
          &t);
      if (!same) {
        std::fprintf(stderr,
                     "parallel_scaling: jobs=%d diverged from serial on %s\n",
                     jobs, s.name);
        return 1;
      }
      if (jobs == 1) serial_t = t;
      points.push_back(render_point("jobs", jobs, t, serial_t,
                                    serial.executions, ncpu < jobs));
      std::printf("  jobs=%d  %8llu execs  %7.3fs [%.3f, %.3f]  %10.0f "
                  "execs/s  %.2fx\n",
                  jobs, static_cast<unsigned long long>(serial.executions),
                  t.median, t.min, t.max, rate(serial.executions, t.median),
                  serial_t.median / t.median);
    }

    // Distributed axis: the same shape through the socket
    // coordinator/worker path. The behavior set lives in the forked
    // workers' memory, so only the counter identity is checkable here;
    // the dist test suite covers the rest.
    const int dist_workers = 4;
    std::vector<std::uint64_t> obs;
    cds::harness::Benchmark b;
    b.name = s.name;
    b.display = s.name;
    b.spec = nullptr;
    b.tests.push_back(p.test_fn(&obs));
    cds::harness::RunOptions opts;
    // Mirror the oracle path's engine config (fuzz::engine_config): the
    // identity check compares against the jobs=1 oracle run, so the dist
    // workers must explore under the same stale bound and seed.
    cds::fuzz::OracleConfig ocfg;
    opts.engine.max_steps = ocfg.max_steps;
    opts.engine.stale_read_bound = ocfg.stale_read_bound;
    opts.engine.collect_trace = false;
    opts.engine.seed = ocfg.seed;
    cds::dist::DistOptions d;
    d.dist_workers = dist_workers;
    Timing dist_t;
    cds::dist::DistRunResult r;
    const bool dist_same = time_runs(
        [&] {
          r = cds::dist::run_benchmark_distributed(b, opts, d);
          return r.merged.mc.executions == serial.executions &&
                 r.merged.mc.exhausted == serial.exhausted &&
                 r.failed_shards == 0;
        },
        &dist_t);
    if (!dist_same) {
      std::fprintf(stderr,
                   "parallel_scaling: dist-workers=%d diverged from serial "
                   "on %s (execs %llu vs %llu, failed shards %llu)\n",
                   dist_workers, s.name,
                   static_cast<unsigned long long>(r.merged.mc.executions),
                   static_cast<unsigned long long>(serial.executions),
                   static_cast<unsigned long long>(r.failed_shards));
      return 1;
    }
    std::printf("  dist=%d  %8llu execs  %7.3fs [%.3f, %.3f]  %10.0f "
                "execs/s  %.2fx\n",
                dist_workers, static_cast<unsigned long long>(serial.executions),
                dist_t.median, dist_t.min, dist_t.max,
                rate(serial.executions, dist_t.median),
                serial_t.median / dist_t.median);

    json += first_shape ? "    {\n" : "    ,{\n";
    first_shape = false;
    json += "      \"name\": \"" + std::string(s.name) + "\",\n";
    json += "      \"executions\": " + std::to_string(serial.executions) +
            ",\n";
    json += "      \"exhausted\": ";
    json += serial.exhausted ? "true" : "false";
    json += ",\n      \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      json += "        " + points[i] + "}" +
              (i + 1 < points.size() ? ",\n" : "\n");
    }
    json += "      ],\n";
    json += "      \"distributed\": " +
            render_point("workers", dist_workers, dist_t, serial_t,
                         serial.executions, ncpu < dist_workers) +
            ", \"failed_shards\": 0}\n";
    json += "    }\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "parallel_scaling: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
