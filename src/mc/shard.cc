#include "mc/shard.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "support/io.h"
#include "support/kv.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_MC_SHARD_HAS_FORK 1
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cds::mc {

ShardPlan enumerate_shard_prefixes(const Config& cfg, const TestFn& test,
                                   int depth, std::size_t max_units) {
  ShardPlan plan;
  if (max_units == 0) max_units = 1;

  // Probe config: one execution per probe, no degradation, no budgets, no
  // checkpointing — only the tree-shaping knobs survive.
  Config pcfg = cfg;
  pcfg.max_executions = 1;
  pcfg.sample_executions = 0;
  pcfg.sampling_only = false;
  pcfg.time_budget_seconds = 0.0;
  pcfg.memory_budget_bytes = 0;
  pcfg.watchdog_no_progress_execs = 0;
  pcfg.stop_on_first_violation = false;
  pcfg.checkpoint_path.clear();
  pcfg.checkpoint_every_execs = 0;
  Engine probe(pcfg);

  struct Node {
    std::vector<Choice> prefix;
    bool leaf = false;  // probe ended exactly at |prefix|: one execution
  };
  std::vector<Node> units(1);

  for (int level = 0; level < depth && units.size() < max_units; ++level) {
    std::vector<Node> next;
    next.reserve(units.size());
    bool expanded = false;
    for (Node& u : units) {
      if (u.leaf || next.size() >= max_units) {
        next.push_back(std::move(u));
        continue;
      }
      probe.set_subtree(u.prefix);
      (void)probe.explore(test);
      ++plan.probe_executions;
      std::vector<Choice> t = probe.current_trail();
      if (t.size() <= u.prefix.size()) {
        // The prefix already covers a whole execution — a leaf unit.
        u.leaf = true;
        next.push_back(std::move(u));
        continue;
      }
      // Split at the first choice point below the prefix: one child per
      // alternative, in DFS order.
      const Choice& branch = t[u.prefix.size()];
      expanded = true;
      for (std::uint16_t a = 0; a < branch.num; ++a) {
        Node child;
        child.prefix = u.prefix;
        child.prefix.push_back(Choice{branch.kind, a, branch.num});
        next.push_back(std::move(child));
      }
    }
    units = std::move(next);
    if (!expanded) break;
  }

  plan.prefixes.reserve(units.size());
  for (Node& u : units) plan.prefixes.push_back(std::move(u.prefix));
  return plan;
}

std::vector<std::vector<Choice>> split_remaining_frontier(
    std::size_t pinned, const std::vector<Choice>& frontier) {
  std::vector<std::vector<Choice>> out;
  if (pinned > frontier.size()) return out;
  // Deepest level first: the right-siblings of the frontier's last choice
  // are the executions a serial DFS would visit next (advance() flips the
  // deepest non-exhausted choice point).
  for (std::size_t i = frontier.size(); i-- > pinned;) {
    const Choice& c = frontier[i];
    for (std::uint32_t a = c.chosen + 1u; a < c.num; ++a) {
      std::vector<Choice> p(frontier.begin(),
                            frontier.begin() + static_cast<std::ptrdiff_t>(i));
      p.push_back(Choice{c.kind, static_cast<std::uint16_t>(a), c.num});
      out.push_back(std::move(p));
    }
  }
  return out;
}

bool prefix_dfs_less(const std::vector<Choice>& a,
                     const std::vector<Choice>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].chosen != b[i].chosen) return a[i].chosen < b[i].chosen;
  }
  return a.size() < b.size();
}

// ---------------------------------------------------------------------------
// fork_map
// ---------------------------------------------------------------------------

namespace {

#ifdef CDS_MC_SHARD_HAS_FORK

// Worker loop: read "u <idx>\n" assignments off `in`, answer each with an
// "r <idx> <len>\n<len payload bytes>" frame on `out`; "q\n" (or EOF, or
// any malformed input) ends the process. Never returns.
[[noreturn]] void worker_loop(int in, int out,
                              const std::function<std::string(std::size_t)>& work,
                              std::ptrdiff_t sigkill_on_unit) {
  std::string line;
  for (;;) {
    line.clear();
    char c;
    for (;;) {
      long k = support::read_some(in, &c, 1);
      if (k <= 0) _exit(0);
      if (c == '\n') break;
      line.push_back(c);
    }
    if (line == "q") _exit(0);
    if (line.size() < 3 || line[0] != 'u' || line[1] != ' ') _exit(1);
    std::uint64_t idx = 0;
    if (!support::parse_u64(std::string_view(line).substr(2), &idx)) _exit(1);
    if (static_cast<std::ptrdiff_t>(idx) == sigkill_on_unit) {
      raise(SIGKILL);  // test hook: die holding the assignment
    }
    std::string text = work(idx);
    std::string hdr = "r " + std::to_string(idx) + " " +
                      std::to_string(text.size()) + "\n";
    if (!support::write_full(out, hdr) || !support::write_full(out, text)) {
      _exit(0);
    }
  }
}

#endif  // CDS_MC_SHARD_HAS_FORK

}  // namespace

std::vector<UnitResult> fork_map(
    std::size_t n, const std::function<std::string(std::size_t)>& work,
    const ForkMapOptions& opts) {
  std::vector<UnitResult> out(n);
  std::vector<char> done(n, 0);
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // The whole map — worker pipes and the sequential fallback — runs with
  // SIGPIPE ignored, so a worker dying at any point in the conversation
  // surfaces as EPIPE on the write that raced it.
  support::SigpipeIgnoreScope sigpipe_guard;

  // Sequential fallback; also sweeps up units left unassigned if every
  // worker dies. Units already marked done (including crashed ones) are
  // left alone.
  auto run_inline = [&]() {
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      out[i].assigned_seconds = elapsed();
      out[i].worker = 0;
      out[i].text = work(i);
      out[i].done_seconds = elapsed();
      out[i].ran = true;
      done[i] = 1;
      if (opts.on_result) opts.on_result(i, out[i]);
    }
  };

#ifndef CDS_MC_SHARD_HAS_FORK
  run_inline();
  return out;
#else
  if (opts.jobs <= 1 || n <= 1) {
    run_inline();
    return out;
  }

  struct Worker {
    pid_t pid = -1;
    int work_fd = -1;    // coordinator writes assignments
    int result_fd = -1;  // coordinator reads result frames
    std::ptrdiff_t assigned = -1;
    std::string buf;
    bool alive = false;
  };
  std::vector<Worker> ws;
  const std::size_t want =
      std::min(static_cast<std::size_t>(opts.jobs), n);

  for (std::size_t w = 0; w < want; ++w) {
    int wfd[2], rfd[2];
    if (pipe(wfd) != 0) break;
    if (pipe(rfd) != 0) {
      close(wfd[0]);
      close(wfd[1]);
      break;
    }
    pid_t pid = fork();
    if (pid < 0) {
      close(wfd[0]);
      close(wfd[1]);
      close(rfd[0]);
      close(rfd[1]);
      break;
    }
    if (pid == 0) {
      close(wfd[1]);
      close(rfd[0]);
      for (const Worker& o : ws) {  // siblings' ends are not ours to hold
        close(o.work_fd);
        close(o.result_fd);
      }
      worker_loop(wfd[0], rfd[1], work, opts.sigkill_on_unit);
    }
    close(wfd[0]);
    close(rfd[1]);
    Worker wk;
    wk.pid = pid;
    wk.work_fd = wfd[1];
    wk.result_fd = rfd[0];
    wk.alive = true;
    ws.push_back(wk);
  }

  if (ws.empty()) {
    run_inline();  // sequential fallback
    return out;
  }

  std::size_t next_unit = 0;
  auto next_pending = [&]() -> std::ptrdiff_t {
    while (next_unit < n && done[next_unit]) ++next_unit;
    return next_unit < n ? static_cast<std::ptrdiff_t>(next_unit++) : -1;
  };
  auto assign = [&](Worker& w) {
    std::ptrdiff_t u = next_pending();
    if (u < 0) {
      (void)support::write_full(w.work_fd, "q\n");
      close(w.work_fd);
      w.work_fd = -1;
      w.assigned = -1;
      return;
    }
    w.assigned = u;
    out[static_cast<std::size_t>(u)].assigned_seconds = elapsed();
    out[static_cast<std::size_t>(u)].worker =
        static_cast<int>(&w - ws.data());
    (void)support::write_full(w.work_fd, "u " + std::to_string(u) + "\n");
    // If the write failed the worker is dying; its EOF below records the
    // unit as crashed.
  };
  for (Worker& w : ws) assign(w);

  std::size_t alive = ws.size();
  std::vector<pollfd> pfds;
  std::vector<std::size_t> order;
  while (alive > 0) {
    pfds.clear();
    order.clear();
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
      if (!ws[wi].alive) continue;
      pfds.push_back(pollfd{ws[wi].result_fd, POLLIN, 0});
      order.push_back(wi);
    }
    int pr = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = ws[order[k]];
      char tmp[65536];
      long got = support::read_some(w.result_fd, tmp, sizeof tmp);
      if (got > 0) {
        w.buf.append(tmp, static_cast<std::size_t>(got));
        for (;;) {  // drain complete frames
          std::size_t nl = w.buf.find('\n');
          if (nl == std::string::npos) break;
          std::uint64_t idx = 0, len = 0;
          std::string_view hdr(w.buf.data(), nl);  // "r <idx> <len>"
          if (support::take_word(&hdr) != "r" ||
              !support::parse_u64(support::take_word(&hdr), &idx) ||
              !support::parse_u64(hdr, &len) || idx >= n) {
            // Protocol corruption: drop the worker, crash its unit below.
            got = 0;
            break;
          }
          if (w.buf.size() < nl + 1 + len) break;  // frame incomplete
          out[idx].text = w.buf.substr(nl + 1, len);
          out[idx].ran = true;
          out[idx].done_seconds = elapsed();
          done[idx] = 1;
          w.buf.erase(0, nl + 1 + len);
          w.assigned = -1;
          assign(w);  // the worker starts its next unit before on_result
          if (opts.on_result) opts.on_result(idx, out[idx]);
        }
      }
      if (got <= 0) {
        // EOF (worker exited or died) or corruption. An in-flight
        // assignment becomes a crashed unit — recorded, never retried, so
        // the merged outcome is deterministic.
        w.alive = false;
        --alive;
        if (w.work_fd >= 0) {
          close(w.work_fd);
          w.work_fd = -1;
        }
        close(w.result_fd);
        w.result_fd = -1;
        if (w.assigned >= 0) {
          const auto idx = static_cast<std::size_t>(w.assigned);
          done[idx] = 1;
          out[idx].ran = false;
          if (opts.on_result) opts.on_result(idx, out[idx]);
          w.assigned = -1;
        }
        if (w.pid > 0) {
          kill(w.pid, SIGKILL);  // no-op if it exited cleanly
        }
      }
    }
  }

  for (Worker& w : ws) {
    if (w.work_fd >= 0) close(w.work_fd);
    if (w.result_fd >= 0) close(w.result_fd);
    int status = 0;
    waitpid(w.pid, &status, 0);
  }

  // Units never assigned (all workers died early) still get computed.
  run_inline();
  return out;
#endif
}

}  // namespace cds::mc
