// Tentpole acceptance: SIGKILL the coordinating process at arbitrary
// points inside the journal's write-ahead windows, restart with resume,
// and the verdict plus merged counters must come out bit-identical to an
// uninterrupted serial run — on both BENCH_parallel.json shapes, for the
// distributed coordinator and the local --jobs fork pool, across the
// append/merge crash window and a torn journal tail. Plus epoch fencing:
// a result minted under a previous incarnation's attempt id is dropped
// as fenced, never double-merged.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "dist/chaos.h"
#include "dist/coordinator.h"
#include "dist/net.h"
#include "dist/protocol.h"
#include "ds/suite.h"
#include "fuzz/program.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "mc/atomic.h"
#include "support/io.h"

namespace cds {
namespace {

#if defined(__unix__) || defined(__APPLE__)

std::string tmp_path(const char* name) { return testing::TempDir() + name; }

void expect_bit_identical(const harness::RunResult& serial,
                          const harness::RunResult& merged) {
  EXPECT_EQ(merged.mc.executions, serial.mc.executions);
  EXPECT_EQ(merged.mc.feasible, serial.mc.feasible);
  EXPECT_EQ(merged.mc.pruned_livelock, serial.mc.pruned_livelock);
  EXPECT_EQ(merged.mc.pruned_bound, serial.mc.pruned_bound);
  EXPECT_EQ(merged.mc.pruned_redundant, serial.mc.pruned_redundant);
  EXPECT_EQ(merged.mc.engine_fatal_execs, serial.mc.engine_fatal_execs);
  EXPECT_EQ(merged.mc.violations_total, serial.mc.violations_total);
  EXPECT_EQ(merged.mc.max_trail_depth, serial.mc.max_trail_depth);
  EXPECT_EQ(merged.mc.exhausted, serial.mc.exhausted);
  EXPECT_EQ(merged.verdict, serial.verdict);
  EXPECT_EQ(merged.spec.executions_checked, serial.spec.executions_checked);
  EXPECT_EQ(merged.spec.histories_checked, serial.spec.histories_checked);
  EXPECT_EQ(merged.spec.justification_checks,
            serial.spec.justification_checks);
  EXPECT_EQ(merged.spec.inadmissible_execs, serial.spec.inadmissible_execs);
  EXPECT_EQ(merged.spec.assertion_violation_execs,
            serial.spec.assertion_violation_execs);
}

harness::Benchmark make_litmus_benchmark(const char* name, const char* text,
                                         fuzz::Program* p,
                                         std::vector<std::uint64_t>* obs) {
  std::string err;
  EXPECT_TRUE(fuzz::Program::parse(text, p, &err)) << name << ": " << err;
  harness::Benchmark b;
  b.name = name;
  b.display = name;
  b.spec = nullptr;
  b.tests.push_back(p->test_fn(obs));
  return b;
}

// The two BENCH_parallel.json shapes (bench/parallel_scaling.cpp).
constexpr const char* kMpRelacqWide =
    "litmus v1\n"
    "locations 3\n"
    "t0 store x 1 relaxed\n"
    "t0 store y 1 release\n"
    "t1 load y acquire\n"
    "t1 load x relaxed\n"
    "t2 store z 1 release\n"
    "t2 load y acquire\n"
    "t2 store x 3 relaxed\n"
    "t3 load z acquire\n"
    "t3 store x 2 relaxed\n"
    "t3 load y relaxed\n";

constexpr const char* kCasloopWide =
    "litmus v1\n"
    "locations 2\n"
    "t0 cas x 0 1 acq_rel relaxed\n"
    "t0 store y 1 release\n"
    "t1 cas x 0 2 seq_cst acquire\n"
    "t1 load y acquire\n"
    "t2 rmw x 1 acq_rel\n"
    "t2 load y acquire\n"
    "t3 cas y 1 2 acq_rel relaxed\n"
    "t3 load x acquire\n"
    "t3 store y 3 relaxed\n";

// Forks a child that runs `crashing_run` with coordinator chaos armed and
// asserts the chaos actually SIGKILLed it mid-run (exit status 3 means
// the run completed without the injection firing — a test bug).
template <typename Fn>
void run_until_sigkilled(Fn crashing_run) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    crashing_run();
    _exit(3);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "coordinator was expected to die by chaos SIGKILL, got status "
      << status;
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

class DistResumeSlow : public testing::TestWithParam<const char*> {};

// Kill the distributed coordinator inside the append window (record
// durable, merge state lost), then resume: journaled results replay,
// in-flight shards recompute, counters land bit-identical to serial.
TEST_P(DistResumeSlow, KillAfterAppendThenResumeIsBitIdenticalToSerial) {
  const bool mp = std::string(GetParam()) == "mp";
  const char* text = mp ? kMpRelacqWide : kCasloopWide;
  const std::string path =
      tmp_path((std::string("dist-kill-") + GetParam() + ".journal").c_str());
  std::remove(path.c_str());

  fuzz::Program p;
  std::vector<std::uint64_t> obs;
  harness::Benchmark b = make_litmus_benchmark("bench-shape", text, &p, &obs);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(b, opts);
  ASSERT_TRUE(serial.mc.exhausted);

  dist::DistOptions d;
  d.dist_workers = 2;
  d.journal_path = path;
  run_until_sigkilled([&] {
    dist::DistOptions chaos = d;
    chaos.coord_chaos.kill_after_append = 6;
    (void)dist::run_benchmark_distributed(b, opts, chaos);
  });

  dist::DistOptions resume = d;
  resume.resume = true;
  dist::DistRunResult r = dist::run_benchmark_distributed(b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_TRUE(r.resumed);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_GE(r.replayed_shards, 1u)
      << "results journaled before the kill must be replayed, not re-run";
  expect_bit_identical(serial, r.merged);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(BenchShapes, DistResumeSlow,
                         testing::Values("mp", "casloop"));

// The other crash window: the result record is durable but the process
// dies *before* the merge consumes it. Resume must replay exactly that
// result (no loss, no double-merge).
TEST(DistResumeWindowSlow, KillBetweenAppendAndMergeThenResume) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  const std::string path = tmp_path("dist-merge-window.journal");
  std::remove(path.c_str());
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);

  dist::DistOptions d;
  d.dist_workers = 2;
  d.journal_path = path;
  run_until_sigkilled([&] {
    dist::DistOptions chaos = d;
    chaos.coord_chaos.kill_before_merge_on = 1;  // first result append
    (void)dist::run_benchmark_distributed(*b, opts, chaos);
  });

  dist::DistOptions resume = d;
  resume.resume = true;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_TRUE(r.resumed);
  EXPECT_GE(r.replayed_shards, 1u)
      << "the durable-but-unmerged result must come back from the journal";
  expect_bit_identical(serial, r.merged);
  std::remove(path.c_str());
}

// Local --jobs fork pool under the same discipline: kill mid-run, resume,
// bit-identical.
TEST(ParallelResumeSlow, KillAfterAppendThenResumeIsBitIdenticalToSerial) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  const std::string path = tmp_path("jobs-kill.journal");
  std::remove(path.c_str());
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);

  harness::ParallelOptions par;
  par.jobs = 2;
  par.journal_path = path;
  run_until_sigkilled([&] {
    harness::ParallelOptions chaos = par;
    chaos.coord_chaos.kill_after_append = 4;  // run header + 3 results
    (void)harness::run_benchmark_parallel(*b, opts, chaos);
  });

  harness::ParallelOptions resume = par;
  resume.resume = true;
  harness::ParallelRunResult r = harness::run_benchmark_parallel(*b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_TRUE(r.resumed);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_GE(r.replayed_shards, 3u);
  expect_bit_identical(serial, r.merged);
  std::remove(path.c_str());
}

// Torn tail: chaos chops bytes off the last durable record before the
// kill, simulating power loss mid-append. Resume quarantines the torn
// bytes, recomputes that shard, and still merges bit-identical.
TEST(ParallelResumeSlow, TornJournalTailIsQuarantinedOnResume) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  const std::string path = tmp_path("jobs-torn.journal");
  std::remove(path.c_str());
  std::remove((path + ".quarantined").c_str());
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);

  harness::ParallelOptions par;
  par.jobs = 2;
  par.journal_path = path;
  run_until_sigkilled([&] {
    harness::ParallelOptions chaos = par;
    chaos.coord_chaos.truncate_tail_after = 3;
    (void)harness::run_benchmark_parallel(*b, opts, chaos);
  });

  harness::ParallelOptions resume = par;
  resume.resume = true;
  harness::ParallelRunResult r = harness::run_benchmark_parallel(*b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_TRUE(r.resumed);
  EXPECT_GT(r.journal_quarantined_bytes, 0u);
  expect_bit_identical(serial, r.merged);
  std::remove(path.c_str());
  std::remove((path + ".quarantined").c_str());
}

// Epoch fencing: a rogue connection delivers a result under an attempt id
// minted by some other incarnation (wrong epoch in the high 32 bits). The
// coordinator must count it fenced and keep it out of the merge.
TEST(DistFenceSlow, StaleEpochResultIsFencedNotMerged) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  const std::string path = tmp_path("fence.journal");
  const std::string sock = tmp_path("fence.sock");
  std::remove(path.c_str());
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);

  std::thread rogue([&] {
    dist::Address a;
    std::string err;
    if (!dist::parse_address("unix:" + sock, &a, &err)) return;
    int fd = -1;
    for (int i = 0; i < 500 && fd < 0; ++i) {
      fd = dist::connect_to(a, &err);
      if (fd < 0) usleep(10000);
    }
    if (fd < 0) return;
    // Hello, then a result under an attempt id no incarnation of this
    // coordinator (epoch 1) ever minted: high bits say epoch 99.
    const std::string payload = "not even a shard result";
    const std::uint64_t stale_attempt = (99ull << 32) | 7u;
    std::string msg = dist::render_hello(999999);
    msg += dist::render_result_header(stale_attempt, payload.size());
    msg += payload;
    (void)support::write_full(fd, msg);
    usleep(200000);  // let the coordinator drain the line before EOF
    close(fd);
  });

  dist::DistOptions d;
  d.listen = "unix:" + sock;
  d.dist_workers = 1;
  d.journal_path = path;  // journal => this incarnation runs as epoch 1
  d.lease_seconds = 1.0;  // quick revoke of anything the rogue was handed
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  rogue.join();
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_GE(r.fenced_results, 1u)
      << "the wrong-epoch result must be counted fenced";
  expect_bit_identical(serial, r.merged);
  std::remove(path.c_str());
}

#if defined(__linux__)
// Local workers of the automatic socket die with their coordinator: a
// SIGKILLed coordinator's successor listens on a new path, so an orphan
// could only dial a dead socket until its connect deadline (10 s or more).
// The coordinator's stderr is a pipe its workers inherit; EOF on it means
// every worker has exited.
TEST(DistResumeSlow, AutoSocketWorkersExitWithTheirKilledCoordinator) {
  fuzz::Program p;
  std::vector<std::uint64_t> obs;
  harness::Benchmark b =
      make_litmus_benchmark("bench-shape", kMpRelacqWide, &p, &obs);
  const std::string path = tmp_path("dist-orphans.journal");
  std::remove(path.c_str());
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  run_until_sigkilled([&] {
    close(fds[0]);
    dup2(fds[1], 2);
    close(fds[1]);
    dist::DistOptions d;
    d.dist_workers = 2;
    d.journal_path = path;
    d.coord_chaos.kill_after_append = 3;
    (void)dist::run_benchmark_distributed(b, harness::RunOptions{}, d);
  });
  close(fds[1]);
  const auto t0 = std::chrono::steady_clock::now();
  bool eof = false;
  char buf[4096];
  while (!eof && std::chrono::steady_clock::now() - t0 <
                     std::chrono::seconds(3)) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, 100) > 0) eof = read(fds[0], buf, sizeof buf) <= 0;
  }
  close(fds[0]);
  std::remove(path.c_str());
  EXPECT_TRUE(eof) << "a worker outlived its coordinator by 3 s";
}
#endif  // __linux__

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace cds
