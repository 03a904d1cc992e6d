// Engine micro-benchmarks (google-benchmark): the primitive costs behind
// Figure 7's wall-clock numbers — vector-clock joins, history message
// scans, topological-sort enumeration, and end-to-end exploration
// throughput on small litmus tests.
//
// `checker_micro --engine-json <path>` skips google-benchmark and instead
// emits BENCH_engine.json: exhaustive-exploration throughput (execs/sec)
// and rf-class counters for both BENCH_parallel.json shapes under both
// --explore modes, asserting the two modes' behavior sets are identical.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_shapes.h"
#include "ds/msqueue.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "harness/runner.h"
#include "mc/atomic.h"
#include "mc/engine.h"
#include "spec/history.h"
#include "support/vector_clock.h"

namespace {

void BM_VectorClockJoin(benchmark::State& state) {
  cds::support::VectorClock a, b;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    a.set(i, static_cast<std::uint32_t>(i * 3));
    b.set(i, static_cast<std::uint32_t>(i * 2 + 7));
  }
  for (auto _ : state) {
    cds::support::VectorClock c = a;
    c.join(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(16)->Arg(64);

void BM_ExploreStoreBuffering(benchmark::State& state) {
  for (auto _ : state) {
    cds::mc::Engine e;
    auto stats = e.explore([](cds::mc::Exec& x) {
      auto* fx = x.make<cds::mc::Atomic<int>>(0, "x");
      auto* fy = x.make<cds::mc::Atomic<int>>(0, "y");
      int t1 = x.spawn([fx, fy] {
        fx->store(1, cds::mc::MemoryOrder::relaxed);
        (void)fy->load(cds::mc::MemoryOrder::relaxed);
      });
      int t2 = x.spawn([fx, fy] {
        fy->store(1, cds::mc::MemoryOrder::relaxed);
        (void)fx->load(cds::mc::MemoryOrder::relaxed);
      });
      x.join(t1);
      x.join(t2);
    });
    state.counters["executions"] = static_cast<double>(stats.executions);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_ExploreStoreBuffering);

void BM_ExploreMSQueueWithSpec(benchmark::State& state) {
  for (auto _ : state) {
    auto r = cds::harness::run_with_spec(cds::ds::msqueue_test_1p1c);
    state.counters["executions"] = static_cast<double>(r.mc.executions);
    state.counters["histories"] = static_cast<double>(r.spec.histories_checked);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExploreMSQueueWithSpec)->Unit(benchmark::kMillisecond);

void BM_TopoSortEnumeration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<cds::spec::CallRecord> recs(static_cast<std::size_t>(n));
  std::vector<const cds::spec::CallRecord*> calls;
  for (auto& r : recs) calls.push_back(&r);
  std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
  for (int i = 0; i + 2 < n; i += 2) succ[static_cast<std::size_t>(i)].push_back(i + 2);
  for (auto _ : state) {
    std::uint64_t count = 0;
    cds::spec::for_each_topo_order(
        calls, succ, 100000,
        [&](const std::vector<const cds::spec::CallRecord*>&) {
          ++count;
          return true;
        });
    benchmark::DoNotOptimize(count);
    state.counters["orders"] = static_cast<double>(count);
  }
}
BENCHMARK(BM_TopoSortEnumeration)->Arg(4)->Arg(6)->Arg(8);

int emit_engine_json(const char* out_path) {
  std::string json = "{\n  \"bench\": \"engine_micro\",\n  \"shapes\": [\n";
  bool first_shape = true;
  for (const cds_bench::Shape& s : cds_bench::kBenchShapes) {
    cds::fuzz::Program p;
    std::string err;
    if (!cds::fuzz::Program::parse(s.text, &p, &err)) {
      std::fprintf(stderr, "checker_micro: bad shape %s: %s\n", s.name,
                   err.c_str());
      return 1;
    }
    std::printf("%s:\n", s.name);
    json += first_shape ? "    {\n" : "    ,{\n";
    first_shape = false;
    json += "      \"name\": \"" + std::string(s.name) + "\",\n";
    json += "      \"modes\": [\n";
    cds::fuzz::BehaviorSet sets[2];
    std::uint64_t execs[2] = {0, 0};
    const cds::mc::ExploreMode modes[2] = {cds::mc::ExploreMode::kSchedule,
                                           cds::mc::ExploreMode::kRf};
    for (int m = 0; m < 2; ++m) {
      cds::fuzz::OracleConfig cfg;
      cfg.explore = modes[m];
      auto t0 = std::chrono::steady_clock::now();
      cds::fuzz::McBehaviors r = cds::fuzz::mc_behaviors(p, cfg);
      auto t1 = std::chrono::steady_clock::now();
      double secs = std::chrono::duration<double>(t1 - t0).count();
      if (!r.exhausted) {
        std::fprintf(stderr, "checker_micro: %s (%s) hit a cap\n", s.name,
                     to_string(modes[m]));
        return 1;
      }
      sets[m] = r.behaviors;
      execs[m] = r.executions;
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "        {\"mode\": \"%s\", \"executions\": %llu, "
                    "\"feasible\": %llu, \"rf_infeasible\": %llu, "
                    "\"behaviors\": %zu, \"seconds\": %.4f, "
                    "\"execs_per_sec\": %.1f}%s\n",
                    to_string(modes[m]),
                    static_cast<unsigned long long>(r.executions),
                    static_cast<unsigned long long>(r.feasible),
                    static_cast<unsigned long long>(r.rf_infeasible),
                    r.behaviors.size(), secs,
                    secs > 0 ? static_cast<double>(r.executions) / secs : 0.0,
                    m == 0 ? "," : "");
      json += buf;
      std::printf("  %-9s %8llu execs  %5zu behaviors  %7.3fs\n",
                  to_string(modes[m]),
                  static_cast<unsigned long long>(r.executions),
                  r.behaviors.size(), secs);
    }
    if (sets[0] != sets[1]) {
      std::fprintf(stderr,
                   "checker_micro: rf and schedule behavior sets diverged on "
                   "%s (%zu vs %zu behaviors)\n",
                   s.name, sets[0].size(), sets[1].size());
      return 1;
    }
    std::printf("  reduction %.1fx, behavior sets identical\n",
                execs[1] > 0 ? static_cast<double>(execs[0]) /
                                   static_cast<double>(execs[1])
                             : 0.0);
    json += "      ]\n    }\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "checker_micro: cannot write %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--engine-json") == 0) {
      return emit_engine_json(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
