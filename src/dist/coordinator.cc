#include "dist/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dist/journal.h"
#include "dist/net.h"
#include "dist/protocol.h"
#include "harness/shard_result.h"
#include "support/io.h"
#include "support/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_DIST_COORD_POSIX 1
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#endif

namespace cds::dist {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Socket-only scheduling state of one pipeline shard. Retries reuse the
// same shard (same unit, same seed — bit-identical re-exploration); work
// stealing appends fresh shards to the pipeline, minted from a preempted
// shard's frontier.
struct Sched {
  int attempts = 0;            // assignments handed out so far
  double next_eligible = 0.0;  // backoff gate for the next assignment
  double assigned_at = 0.0;    // of the current attempt (steal-age)
  bool stolen = false;         // one preemption request per attempt
};

// Base of the exponential retry backoff (doubled per attempt, plus
// deterministic jitter derived from the engine seed and attempt id).
constexpr double kRetryBackoffSeconds = 0.05;

struct Conn {
  int fd = -1;
  FrameBuffer buf;
  bool greeted = false;        // hello seen, welcome sent
  std::uint64_t attempt = 0;   // attempt this worker believes it holds
  bool reading_payload = false;
  std::uint64_t payload_attempt = 0;
  std::uint64_t payload_len = 0;
  bool dead = false;
};

struct Attempt {
  std::size_t shard = 0;
  int fd = -1;
  double lease_expiry = 0.0;
};

using State = harness::PipelineShard::State;

struct Coordinator {
  const harness::Benchmark& b;
  const harness::RunOptions& opts;
  const DistOptions& d;
  DistRunResult& dr;
  harness::ShardPipeline& pipe;
  std::vector<Sched> sched;  // parallel to pipe.shards

  std::vector<Conn> conns;
  std::map<std::uint64_t, Attempt> live;  // attempt id -> lease
  std::uint64_t attempt_counter = 0;
  std::uint64_t current_workers = 0;
  double last_worker_seen = 0.0;
  // This incarnation's epoch (0 = no journal). Attempt ids embed it in
  // their high 32 bits so a resumed coordinator's fresh ids can never
  // collide with ids a surviving worker still holds from the crashed
  // incarnation.
  std::uint64_t epoch = 0;

  [[nodiscard]] State state(std::size_t sidx) const {
    return pipe.shards[sidx].state;
  }

  double backoff_for(const Sched& s, std::uint64_t attempt_id) const {
    double base = kRetryBackoffSeconds;
    for (int i = 1; i < s.attempts; ++i) base *= 2.0;
    support::Xorshift64 rng(support::derive_seed(
        opts.engine.seed, attempt_id ^ static_cast<std::uint64_t>(s.attempts)));
    const double jitter =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
    return base * (1.0 + jitter);
  }

  // The current attempt is gone (failure report, connection loss, lease
  // expiry, corrupt result): back the shard off for a retry, or record it
  // as a contained permanent failure once the retry budget is spent.
  void schedule_retry(std::size_t sidx, std::uint64_t attempt_id,
                      const char* why) {
    if (state(sidx) != State::kRunning) return;
    Sched& s = sched[sidx];
    if (s.attempts >= d.max_shard_retries + 1) {
      pipe.fail(sidx, attempt_id, why);
      std::fprintf(stderr,
                   "cds::dist: shard %zu (test %zu) failed permanently "
                   "after %d attempts (last: %s)\n",
                   sidx, pipe.shards[sidx].unit.test_index, s.attempts, why);
      return;
    }
    pipe.shards[sidx].state = State::kPending;
    s.next_eligible = now_seconds() + backoff_for(s, attempt_id);
    ++dr.retries;
  }

  void drop_conn(Conn& c, const char* why) {
    if (c.dead) return;
    c.dead = true;
    if (c.greeted && current_workers > 0) --current_workers;
    last_worker_seen = now_seconds();
    auto it = live.find(c.attempt);
    if (c.attempt != 0 && it != live.end() && it->second.fd == c.fd) {
      const std::size_t sidx = it->second.shard;
      const std::uint64_t id = c.attempt;
      live.erase(it);
      schedule_retry(sidx, id, why);
    }
    close(c.fd);
    c.fd = -1;
  }

  bool send_to(Conn& c, const std::string& bytes, const char* what) {
    if (support::write_full(c.fd, bytes)) return true;
    std::fprintf(stderr, "cds::dist: send of %s failed (%s); dropping worker\n",
                 what, std::strerror(errno));
    drop_conn(c, "send failed");
    return false;
  }

  // A complete, in-lease result arrived for `sidx`. The pipeline
  // journals it write-ahead and applies it (for a preempted shard,
  // minting sub-shards covering the unexplored remainder).
  void accept_result(std::size_t sidx, std::uint64_t attempt_id,
                     const std::string& text) {
    std::string err;
    if (!pipe.accept_result(sidx, attempt_id, text, &err)) {
      std::fprintf(stderr,
                   "cds::dist: shard %zu returned a corrupt result (%s); "
                   "retrying\n",
                   sidx, err.c_str());
      schedule_retry(sidx, attempt_id, "corrupt result");
      return;
    }
    sched.resize(pipe.shards.size());
  }

  // An attempt id minted by a previous coordinator incarnation carries
  // that incarnation's epoch in its high bits; count such reports as
  // fenced (the restart-safety property at work) rather than stale.
  void count_dropped(std::uint64_t attempt_id) {
    if (epoch != 0 && (attempt_id >> 32) != epoch) {
      ++dr.fenced_results;
    } else {
      ++dr.stale_results;
    }
  }

  void handle_payload(Conn& c, const std::string& text) {
    auto it = live.find(c.payload_attempt);
    if (it != live.end() && it->second.fd == c.fd) {
      const std::size_t sidx = it->second.shard;
      live.erase(it);
      if (c.attempt == c.payload_attempt) c.attempt = 0;
      accept_result(sidx, c.payload_attempt, text);
    } else {
      count_dropped(c.payload_attempt);
      if (c.attempt == c.payload_attempt) c.attempt = 0;
    }
  }

  void handle_line(Conn& c, const std::string& line) {
    ControlLine msg;
    std::string err;
    if (!parse_control_line(line, &msg, &err)) {
      std::fprintf(stderr, "cds::dist: protocol error from worker (%s); "
                   "dropping connection\n",
                   err.c_str());
      drop_conn(c, "protocol error");
      return;
    }
    switch (msg.kind) {
      case ControlLine::Kind::kHello: {
        if (c.greeted) break;  // duplicate hello: harmless
        const std::uint64_t hb_us = static_cast<std::uint64_t>(
            std::max(0.001, d.lease_seconds / 3.0) * 1e6);
        if (!send_to(c, render_welcome(hb_us, epoch), "welcome")) return;
        c.greeted = true;
        ++dr.connections_total;
        ++current_workers;
        last_worker_seen = now_seconds();
        dr.workers_connected = std::max(dr.workers_connected, current_workers);
        break;
      }
      case ControlLine::Kind::kHeartbeat:
        // Lease renewal happens generically on any traffic from the
        // attempt's owner (see on_readable); a heartbeat for a revoked
        // attempt is simply ignored — its result will be dropped stale.
        break;
      case ControlLine::Kind::kResult:
        if (msg.payload_len > FrameBuffer::kMaxPayload) {
          drop_conn(c, "oversized result payload");
          return;
        }
        c.reading_payload = true;
        c.payload_attempt = msg.shard_id;
        c.payload_len = msg.payload_len;
        break;
      case ControlLine::Kind::kFailed: {
        auto it = live.find(msg.shard_id);
        if (it != live.end() && it->second.fd == c.fd) {
          const std::size_t sidx = it->second.shard;
          live.erase(it);
          schedule_retry(sidx, msg.shard_id, msg.reason.c_str());
        } else {
          count_dropped(msg.shard_id);
        }
        if (c.attempt == msg.shard_id) c.attempt = 0;
        break;
      }
      default:
        // welcome/assign/steal/quit are coordinator->worker verbs.
        drop_conn(c, "unexpected verb from worker");
        return;
    }
  }

  void on_readable(Conn& c) {
    char tmp[65536];
    long got = support::read_some(c.fd, tmp, sizeof tmp);
    if (got <= 0) {
      drop_conn(c, "connection lost");
      return;
    }
    c.buf.append(tmp, static_cast<std::size_t>(got));
    // Any traffic from the owner of a live attempt renews its lease —
    // heartbeats, but also a large result payload trickling in.
    auto it = live.find(c.attempt);
    if (c.attempt != 0 && it != live.end() && it->second.fd == c.fd) {
      it->second.lease_expiry = now_seconds() + d.lease_seconds;
    }
    std::string line;
    while (!c.dead) {
      if (c.reading_payload) {
        std::string payload;
        if (!c.buf.take(static_cast<std::size_t>(c.payload_len), &payload)) {
          break;  // wait for more bytes
        }
        c.reading_payload = false;
        handle_payload(c, payload);
        continue;
      }
      if (!c.buf.next_line(&line)) break;
      handle_line(c, line);
    }
    if (!c.dead && c.buf.overflowed()) drop_conn(c, "oversized frame");
  }

  void sweep_leases() {
    const double now = now_seconds();
    for (auto it = live.begin(); it != live.end();) {
      if (now > it->second.lease_expiry) {
        ++dr.leases_expired;
        const std::size_t sidx = it->second.shard;
        const std::uint64_t id = it->first;
        it = live.erase(it);
        // The worker's conn keeps its (now revoked) attempt id: it stays
        // out of the idle pool until its late report arrives and is
        // dropped as stale.
        schedule_retry(sidx, id, "lease expired");
      } else {
        ++it;
      }
    }
  }

  void assign_ready() {
    const double now = now_seconds();
    for (Conn& c : conns) {
      if (c.dead || !c.greeted || c.attempt != 0) continue;
      // First ready pending shard in queue order: planned shards are in
      // test-then-DFS order and stolen sub-shards append after their
      // parent, which keeps assignment close to serial DFS order.
      std::size_t pick = sched.size();
      for (std::size_t sidx = 0; sidx < sched.size(); ++sidx) {
        if (state(sidx) == State::kPending &&
            sched[sidx].next_eligible <= now) {
          pick = sidx;
          break;
        }
      }
      if (pick == sched.size()) return;
      Sched& s = sched[pick];
      Assignment asg;
      // High 32 bits: this incarnation's epoch. The counter restarts at
      // zero after a crash, so without the epoch a resumed run would
      // re-mint ids that fenced-off workers still hold.
      asg.shard_id = (epoch << 32) | ++attempt_counter;
      asg.bench = b.name;
      asg.unit = pipe.shards[pick].unit;
      asg.engine = opts.engine;
      asg.checker = opts.checker;
      const std::string payload = render_assignment(asg);
      pipe.shards[pick].state = State::kRunning;
      ++s.attempts;
      s.assigned_at = now;
      s.stolen = false;
      live[asg.shard_id] = Attempt{pick, c.fd, now + d.lease_seconds};
      c.attempt = asg.shard_id;
      // Journaled before the assignment leaves: a resumed coordinator
      // sees which shards were in flight (they re-enqueue as pending).
      JournalRecord lease;
      lease.kind = JournalRecord::Kind::kLease;
      lease.shard = pick;
      lease.attempt = asg.shard_id;
      pipe.journal(lease);
      if (!send_to(c, render_assign_header(asg.shard_id, payload.size()) +
                          payload,
                   "assignment")) {
        continue;  // drop_conn already revoked + rescheduled
      }
    }
  }

  void maybe_steal() {
    if (!d.enable_steal) return;
    bool idle = false;
    for (const Conn& c : conns) {
      if (!c.dead && c.greeted && c.attempt == 0) idle = true;
    }
    if (!idle) return;
    for (const harness::PipelineShard& s : pipe.shards) {
      if (s.state == State::kPending) return;  // queue not dry
    }
    const double now = now_seconds();
    const double steal_after =
        d.steal_after_seconds > 0 ? d.steal_after_seconds
                                  : d.lease_seconds / 2.0;
    std::uint64_t victim = 0;
    double oldest = now;
    for (const auto& [id, at] : live) {
      const Sched& s = sched[at.shard];
      if (state(at.shard) != State::kRunning || s.stolen) continue;
      if (now - s.assigned_at < steal_after) continue;
      if (s.assigned_at < oldest) {
        oldest = s.assigned_at;
        victim = id;
      }
    }
    if (victim == 0) return;
    const Attempt at = live[victim];
    for (Conn& c : conns) {
      if (!c.dead && c.fd == at.fd) {
        if (send_to(c, render_steal(victim), "steal")) {
          sched[at.shard].stolen = true;
          ++dr.steals;
        }
        return;
      }
    }
  }
};

}  // namespace

DistRunResult run_benchmark_distributed(const harness::Benchmark& b,
                                        const harness::RunOptions& opts,
                                        const DistOptions& d) {
  DistRunResult dr;
  support::SigpipeIgnoreScope sigpipe_guard;

  // The same plan, journal and replay as --jobs: a distributed run
  // explores the same partition of the same trees, and either mode
  // can resume the other's journal.
  const int workers = std::max(1, d.dist_workers);
  harness::ShardPipeline pipe(b, opts, d, workers, &dr);
  if (!pipe.open_journal()) return dr;

  // After replay everything may already be resolved; don't spin up
  // sockets and workers just to have the main loop exit instantly.
  const bool need_work = !pipe.unresolved().empty();

#ifdef CDS_DIST_COORD_POSIX
  std::string listen_spec = d.listen;
  bool auto_socket = false;
  if (listen_spec.empty()) {
    listen_spec =
        "unix:/tmp/cdsspec-dist-" + std::to_string(getpid()) + ".sock";
    auto_socket = true;
  }
  Address addr;
  std::string err;
  int listen_fd = -1;
  if (need_work &&
      (!parse_address(listen_spec, &addr, &err) ||
       (listen_fd = listen_on(addr, &err)) < 0)) {
    std::fprintf(stderr,
                 "cds::dist: cannot listen on '%s' (%s); running locally\n",
                 listen_spec.c_str(), err.c_str());
  }
  dr.listen_address = listen_spec;

  std::vector<pid_t> worker_pids;
  if (listen_fd >= 0) {
    BenchmarkResolver resolver = d.resolve;
    if (!resolver) {
      const harness::Benchmark* bp = &b;
      resolver = [bp](const std::string& name) -> const harness::Benchmark* {
        if (name == bp->name) return bp;
        return harness::find_benchmark(name);
      };
    }
    const pid_t coordinator_pid = getpid();
    for (int w = 0; w < d.dist_workers; ++w) {
      pid_t pid = fork();
      if (pid < 0) {
        std::fprintf(stderr, "cds::dist: fork of worker %d failed: %s\n", w,
                     std::strerror(errno));
        break;
      }
      if (pid == 0) {
#if defined(__linux__)
        // A worker of the automatic socket can never reach a resumed
        // coordinator (new pid, new path), so it dies with this one
        // instead of dialing a dead socket. The getppid() recheck covers
        // a coordinator that died before the prctl.
        if (auto_socket && (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 ||
                            getppid() != coordinator_pid)) {
          _exit(1);
        }
#endif
        close(listen_fd);
        WorkerOptions wo;
        wo.connect_timeout_seconds =
            std::max(10.0, d.connect_deadline_seconds * 2.0);
        wo.progress_interval_seconds = d.worker_progress_interval_seconds;
        wo.resolve = resolver;
        if (w == 0) wo.chaos = d.worker_chaos;
        _exit(run_worker(listen_spec, wo));
      }
      worker_pids.push_back(pid);
    }

    Coordinator co{b, opts, d, dr, pipe, {}, {}, {}};
    co.sched.resize(pipe.shards.size());
    co.last_worker_seen = now_seconds();
    co.epoch = dr.epoch;
    const double start = now_seconds();
    while (!pipe.unresolved().empty()) {
      // Graceful degradation: nobody ever connected, or everybody left
      // and stayed away. Revoke what's in flight and finish locally.
      const double now = now_seconds();
      const bool nobody_ever = dr.connections_total == 0 &&
                               now - start > d.connect_deadline_seconds;
      const bool all_gone =
          dr.connections_total > 0 && co.current_workers == 0 &&
          now - co.last_worker_seen > d.connect_deadline_seconds;
      if (nobody_ever || all_gone) {
        std::fprintf(stderr,
                     "cds::dist: %s; falling back to the local fork pool\n",
                     nobody_ever ? "no worker connected within the deadline"
                                 : "all workers gone");
        for (auto& [id, at] : co.live) {
          pipe.shards[at.shard].state = State::kPending;
        }
        co.live.clear();
        break;
      }

      std::vector<pollfd> pfds;
      pfds.push_back(pollfd{listen_fd, POLLIN, 0});
      std::vector<std::size_t> pfd_conn;  // pfds[k+1] -> conns index
      for (std::size_t ci = 0; ci < co.conns.size(); ++ci) {
        if (co.conns[ci].dead) continue;
        pfds.push_back(pollfd{co.conns[ci].fd, POLLIN, 0});
        pfd_conn.push_back(ci);
      }
      // Sleep in poll(2) until the earliest timer the loop acts on, not
      // a fixed tick: socket traffic wakes poll by itself, so the only
      // deadlines are lease expiries, retry-backoff gates, the
      // steal-age threshold, and the graceful-degradation deadline.
      // Capped at 1s so clock surprises can't park the loop for long.
      double wake = now + 1.0;
      const auto consider = [&wake](double t) { wake = std::min(wake, t); };
      if (dr.connections_total == 0) {
        consider(start + d.connect_deadline_seconds);
      }
      if (dr.connections_total > 0 && co.current_workers == 0) {
        consider(co.last_worker_seen + d.connect_deadline_seconds);
      }
      for (const auto& [id, at] : co.live) consider(at.lease_expiry);
      // Only future backoff gates need a timer: an already-eligible
      // pending shard is assigned the moment a worker turns idle, and
      // workers turn idle via socket traffic or a lease expiry — both
      // of which wake poll on their own.
      for (std::size_t sidx = 0; sidx < co.sched.size(); ++sidx) {
        if (co.state(sidx) == State::kPending &&
            co.sched[sidx].next_eligible > now) {
          consider(co.sched[sidx].next_eligible);
        }
      }
      if (d.enable_steal) {
        const double steal_after = d.steal_after_seconds > 0
                                       ? d.steal_after_seconds
                                       : d.lease_seconds / 2.0;
        for (const auto& [id, at] : co.live) {
          const Sched& s = co.sched[at.shard];
          if (co.state(at.shard) == State::kRunning && !s.stolen) {
            consider(s.assigned_at + steal_after);
          }
        }
      }
      const int timeout_ms = std::clamp(
          static_cast<int>((wake - now) * 1000.0) + 1, 1, 1000);
      int rc = poll(pfds.data(), pfds.size(), timeout_ms);
      if (rc < 0 && errno != EINTR) break;

      if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
        int fd = accept_conn(listen_fd);
        if (fd >= 0) {
          Conn c;
          c.fd = fd;
          co.conns.push_back(std::move(c));
        }
      }
      for (std::size_t k = 0; k < pfd_conn.size(); ++k) {
        if ((pfds[k + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        Conn& c = co.conns[pfd_conn[k]];
        if (!c.dead) co.on_readable(c);
      }
      co.conns.erase(std::remove_if(co.conns.begin(), co.conns.end(),
                                    [](const Conn& c) { return c.dead; }),
                     co.conns.end());

      co.sweep_leases();
      co.assign_ready();
      co.maybe_steal();
    }

    for (Conn& c : co.conns) {
      if (c.dead) continue;
      (void)support::write_full(c.fd, render_quit());
      close(c.fd);
    }
    close(listen_fd);
    if (auto_socket) unlink(addr.path.c_str());

    // Reap forked workers: quit/EOF ends them promptly; SIGKILL the rest
    // (hung, or parked in a reconnect dial loop) after a short grace.
    for (int pass = 0; pass < 2; ++pass) {
      for (pid_t& pid : worker_pids) {
        if (pid <= 0) continue;
        for (int spin = 0; spin < 50; ++spin) {
          int status = 0;
          pid_t got = waitpid(pid, &status, WNOHANG);
          if (got == pid || (got < 0 && errno == ECHILD)) {
            pid = -1;
            break;
          }
          if (pass == 0) break;  // first pass: one WNOHANG probe only
          usleep(20 * 1000);
        }
        if (pass == 1 && pid > 0) {
          kill(pid, SIGKILL);
          int status = 0;
          waitpid(pid, &status, 0);
          pid = -1;
        }
      }
    }
  }
#else
  (void)need_work;
  dr.listen_address = d.listen;
#endif

  // Anything unresolved (no sockets on this platform, listen failure,
  // fallback trigger) finishes on the local fork pool.
  const std::vector<std::size_t> remaining = pipe.unresolved();
  if (!remaining.empty()) {
    dr.fell_back_local = true;
    (void)pipe.run_on_pool(remaining, workers);
  }
  dr.failed_shards = pipe.merge();
  dr.steal_subshards = pipe.minted;
  dr.corrupt_results = pipe.corrupt_results;

  obs::Registry& M = dr.merged.metrics;
  M.gauge("dist.workers_requested")
      .set(static_cast<std::uint64_t>(std::max(0, d.dist_workers)));
  M.gauge("dist.workers_connected_peak").set(dr.workers_connected);
  M.gauge("dist.connections_total").set(dr.connections_total);
  M.gauge("dist.shards").set(dr.shards);
  M.gauge("dist.probe_executions").set(dr.probe_executions);
  M.gauge("dist.retries").set(dr.retries);
  M.gauge("dist.leases_expired").set(dr.leases_expired);
  M.gauge("dist.steals").set(dr.steals);
  M.gauge("dist.steal_subshards").set(dr.steal_subshards);
  M.gauge("dist.failed_shards").set(dr.failed_shards);
  M.gauge("dist.stale_results").set(dr.stale_results);
  M.gauge("dist.corrupt_results").set(dr.corrupt_results);
  M.gauge("dist.fell_back_local").set(dr.fell_back_local ? 1 : 0);
  M.gauge("dist.epoch").set(dr.epoch);
  M.gauge("dist.resumed").set(dr.resumed ? 1 : 0);
  M.gauge("dist.replayed_shards").set(dr.replayed_shards);
  M.gauge("dist.fenced_results").set(dr.fenced_results);
  M.gauge("dist.journal_quarantined_bytes").set(dr.journal_quarantined_bytes);
  return dr;
}

}  // namespace cds::dist
