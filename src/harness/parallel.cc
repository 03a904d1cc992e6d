#include "harness/parallel.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace cds::harness {

ShardPipeline::ShardPipeline(const Benchmark& b, const RunOptions& opts,
                             const ShardPipelineOptions& o, int workers,
                             ShardRunResult* out)
    : b_(b), opts_(opts), o_(o), out_(*out) {
  out_.merged.mc.seed = opts.engine.seed;
  const std::size_t max_shards =
      o.max_shards != 0 ? o.max_shards
                        : static_cast<std::size_t>(std::max(1, workers)) * 4;
  for (std::size_t i = 0; i < b.tests.size(); ++i) {
    mc::Config pcfg = opts.engine;
    pcfg.test_name = b.name + "#" + std::to_string(i);
    pcfg.test_index = static_cast<std::uint32_t>(i);
    mc::ShardPlan plan = mc::enumerate_shard_prefixes(
        pcfg, b.tests[i], o.shard_depth, max_shards);
    out_.probe_executions += plan.probe_executions;
    const std::size_t shard_count = plan.prefixes.size();
    for (std::size_t u = 0; u < shard_count; ++u) {
      PipelineShard s;
      s.unit = make_shard_unit(opts, i, std::move(plan.prefixes[u]), u,
                               shard_count);
      shards.push_back(std::move(s));
    }
  }
  out_.shards = shards.size();
}

bool ShardPipeline::refuse_resume(std::string why) {
  out_.resume_error = std::move(why);
  out_.merged.verdict = mc::Verdict::kInconclusive;
  out_.merged.mc.verdict = out_.merged.verdict;
  return false;
}

bool ShardPipeline::open_journal() {
  if (o_.journal_path.empty()) return true;
  // Hash the freshly planned units BEFORE replay mints sub-shards: this
  // is the identity a later resume re-derives and compares.
  std::vector<ShardUnit> planned;
  planned.reserve(shards.size());
  for (const PipelineShard& s : shards) planned.push_back(s.unit);
  const std::uint32_t plan_hash = dist::journal_plan_hash(planned);
  const std::uint32_t fp = dist::journal_config_fingerprint(opts_.engine);
  std::uint64_t epoch = 1;
  if (o_.resume) {
    dist::JournalReplay rep;
    std::string jerr;
    // An unreadable journal (another version, an I/O error) is refused:
    // starting fresh would truncate it.
    if (!dist::load_journal(o_.journal_path, &rep, &jerr)) {
      return refuse_resume(jerr);
    }
    out_.journal_quarantined_bytes = rep.quarantined_bytes;
    if (!rep.quarantine_note.empty()) {
      std::fprintf(stderr, "cds::harness: %s\n", rep.quarantine_note.c_str());
    }
    const dist::JournalRecord* hdr = nullptr;
    for (const dist::JournalRecord& r : rep.records) {
      if (r.kind == dist::JournalRecord::Kind::kRun) {
        hdr = &r;
        break;
      }
    }
    // A resume against a missing or headerless journal starts fresh —
    // convenient for "always pass --resume" retry loops.
    if (hdr != nullptr) {
      if (hdr->bench != b_.name || hdr->fingerprint != fp ||
          hdr->plan_hash != plan_hash || hdr->shards != planned.size()) {
        return refuse_resume(
            "journal '" + o_.journal_path + "' records a different " +
            (hdr->bench != b_.name
                 ? "benchmark ('" + hdr->bench + "')"
                 : hdr->fingerprint != fp ? std::string("config fingerprint")
                                          : std::string("shard plan")) +
            "; refusing to merge incompatible shards (delete the journal "
            "or rerun with the original parameters)");
      }
      out_.resumed = true;
      epoch = rep.last_epoch + 1;
      replay(rep);
    }
  }
  out_.epoch = epoch;
  std::string jerr;
  if (!journal_.open(o_.journal_path, /*truncate=*/!out_.resumed, &jerr)) {
    std::fprintf(stderr, "cds::harness: %s; continuing without durability\n",
                 jerr.c_str());
    return true;
  }
  journal_.set_chaos(o_.coord_chaos);
  dist::JournalRecord run;
  run.kind = dist::JournalRecord::Kind::kRun;
  run.epoch = epoch;
  run.shards = planned.size();
  run.plan_hash = plan_hash;
  run.fingerprint = fp;
  run.bench = b_.name;
  journal(run);
  return true;
}

// Lease and mint records are informational: an in-flight shard simply
// stays pending and recomputes, and minting replays implicitly because
// apply() is a pure function of the journaled result.
void ShardPipeline::replay(const dist::JournalReplay& rep) {
  for (const dist::JournalRecord& r : rep.records) {
    const auto sidx = static_cast<std::size_t>(r.shard);
    if (r.kind != dist::JournalRecord::Kind::kResult &&
        r.kind != dist::JournalRecord::Kind::kFailed) {
      continue;
    }
    if (sidx >= shards.size()) {
      std::fprintf(stderr,
                   "cds::harness: journal names unknown shard %zu; ignored\n",
                   sidx);
      continue;
    }
    if (shards[sidx].state != PipelineShard::State::kPending) continue;
    if (r.kind == dist::JournalRecord::Kind::kFailed) {
      // The crashed incarnation recorded this as the shard's final
      // outcome (its retry budget or pool worker is spent); keep it.
      shards[sidx].state = PipelineShard::State::kFailed;
      continue;
    }
    ShardResult sr;
    std::string why;
    if (!parse(sidx, r.payload, &sr, &why)) {
      std::fprintf(stderr,
                   "cds::harness: journaled result for shard %zu does not "
                   "parse (%s); recomputing\n",
                   sidx, why.c_str());
      continue;
    }
    apply(sidx, std::move(sr));
    ++out_.replayed_shards;
  }
}

void ShardPipeline::journal(const dist::JournalRecord& r) {
  if (!journal_.is_open()) return;
  std::string jerr;
  if (!journal_.append(r, &jerr)) {
    std::fprintf(stderr,
                 "cds::harness: journal append failed (%s); continuing "
                 "without durability\n",
                 jerr.c_str());
    journal_.close_file();
  }
}

bool ShardPipeline::parse(std::size_t sidx, const std::string& text,
                          ShardResult* sr, std::string* why) const {
  if (!parse_shard_result(text, sr, why)) return false;
  if (sr->stats.preempted &&
      sr->frontier.size() < shards[sidx].unit.prefix.size()) {
    *why = "frontier shorter than the shard's own prefix";
    return false;
  }
  return true;
}

// A preempted (stolen) shard mints sub-shards covering the unexplored
// remainder of its subtree, then the normalized partial result is stored.
// Pure given (shards, sidx, sr) — split_remaining_frontier and
// derive_seed are deterministic — so replay re-mints the exact sub-shard
// sequence the live run minted. Returns the minted count.
std::size_t ShardPipeline::apply(std::size_t sidx, ShardResult sr) {
  std::size_t count = 0;
  if (sr.stats.preempted) {
    // Copy the parent unit first: each push_back below may reallocate
    // `shards`, invalidating references into it.
    const ShardUnit parent = shards[sidx].unit;
    std::vector<std::vector<mc::Choice>> subs =
        mc::split_remaining_frontier(parent.prefix.size(), sr.frontier);
    for (std::size_t k = 0; k < subs.size(); ++k) {
      PipelineShard ns;
      ns.unit = parent;
      ns.unit.prefix = std::move(subs[k]);
      // Fresh derived seed per sub-shard; the sampling budget stays the
      // parent's (already divided) share — sub-shards jointly re-cover
      // the parent's unexplored remainder, not a new tranche.
      ns.unit.engine_seed = support::derive_seed(
          parent.engine_seed, 1000 + static_cast<std::uint64_t>(k));
      shards.push_back(std::move(ns));
    }
    count = subs.size();
    minted += count;
    // The partial result's counters are exact for the executions it
    // explored; coverage of the remainder is now the sub-shards' job.
    // The engine conservatively reports exhausted=false on preemption,
    // which must not poison the test-level AND.
    sr.stats.preempted = false;
    sr.stats.stopped_early = false;
    sr.stats.exhausted = true;
  }
  shards[sidx].result = std::move(sr);
  shards[sidx].state = PipelineShard::State::kDone;
  return count;
}

bool ShardPipeline::accept_result(std::size_t sidx, std::uint64_t attempt,
                                  const std::string& text, std::string* why) {
  ShardResult sr;
  if (!parse(sidx, text, &sr, why)) {
    ++corrupt_results;
    return false;
  }
  // WAL: the raw (pre-normalization) payload is durable before any merge
  // state changes; replay re-derives the same minted sub-shards from it.
  dist::JournalRecord rec;
  rec.kind = dist::JournalRecord::Kind::kResult;
  rec.shard = sidx;
  rec.attempt = attempt;
  rec.payload = text;
  journal(rec);
  const std::size_t count = apply(sidx, std::move(sr));
  if (count > 0) {
    // Informational (replay re-mints from the result record itself);
    // lets offline audits cross-check the mint count.
    dist::JournalRecord m;
    m.kind = dist::JournalRecord::Kind::kMint;
    m.shard = sidx;
    m.count = count;
    journal(m);
  }
  return true;
}

void ShardPipeline::fail(std::size_t sidx, std::uint64_t attempt,
                         const std::string& why) {
  dist::JournalRecord rec;
  rec.kind = dist::JournalRecord::Kind::kFailed;
  rec.shard = sidx;
  rec.attempt = attempt;
  rec.payload = why;
  journal(rec);
  shards[sidx].state = PipelineShard::State::kFailed;
}

std::vector<std::size_t> ShardPipeline::unresolved(std::ptrdiff_t test) const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const PipelineShard& ps = shards[s];
    if (ps.state != PipelineShard::State::kPending &&
        ps.state != PipelineShard::State::kRunning) {
      continue;
    }
    if (test < 0 || ps.unit.test_index == static_cast<std::size_t>(test)) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<mc::UnitResult> ShardPipeline::run_on_pool(
    const std::vector<std::size_t>& idx, int jobs,
    std::ptrdiff_t sigkill_unit) {
  mc::ForkMapOptions fm;
  fm.jobs = jobs;
  fm.sigkill_on_unit = sigkill_unit;
  // Each outcome is journaled (inside accept_result/fail) the moment the
  // pool reports it, before fork_map returns it to the merge.
  fm.on_result = [&](std::size_t j, const mc::UnitResult& ur) {
    const std::size_t sidx = idx[j];
    if (!ur.ran) {
      fail(sidx, 0, "fork-pool worker died");
      return;
    }
    std::string why;
    if (!accept_result(sidx, 0, ur.text, &why)) {
      // Not journaled: a resumed run recomputes the shard.
      std::fprintf(stderr,
                   "cds::harness: shard %zu returned a corrupt result (%s); "
                   "treating as crashed\n",
                   sidx, why.c_str());
      shards[sidx].state = PipelineShard::State::kFailed;
    }
  };
  return mc::fork_map(
      idx.size(),
      [&](std::size_t j) { return run_shard_unit(b_, opts_, shards[idx[j]].unit); },
      fm);
}

std::uint64_t ShardPipeline::merge() {
  RunResult& total = out_.merged;
  total.mc.exhausted = true;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < b_.tests.size(); ++i) {
    // Merge in serial DFS order. Sub-shards minted by preemption were
    // appended out of order; a preempted parent's prefix is a proper
    // prefix of its sub-shards' and therefore sorts first, so violations
    // and the record cap behave exactly as in an undisturbed serial run.
    std::vector<std::size_t> order;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (shards[s].unit.test_index == i) order.push_back(s);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return mc::prefix_dfs_less(shards[x].unit.prefix,
                                                  shards[y].unit.prefix);
                     });
    bool test_exhausted = true;
    bool test_falsified = false;
    std::uint64_t test_fatals = 0;
    std::uint64_t failed_here = 0;
    std::uint64_t recorded_here = 0;
    for (std::size_t s : order) {
      if (shards[s].state != PipelineShard::State::kDone) {
        ++failed_here;
        test_exhausted = false;
        continue;
      }
      ShardResult& sr = shards[s].result;
      mc::merge_shard_stats(total.mc, sr.stats);
      test_exhausted = test_exhausted && sr.stats.exhausted;
      test_falsified = test_falsified || sr.stats.violations_total > 0;
      test_fatals += sr.stats.engine_fatal_execs;
      total.spec.merge(sr.spec);
      total.metrics.merge(sr.metrics);
      // Per-test record cap mirrors the serial engine's: shards merge in
      // DFS order and each records its DFS-first violations, so the first
      // max_recorded_violations across shards are the same records a
      // serial run keeps.
      for (mc::Violation& v : sr.violations) {
        if (opts_.engine.max_recorded_violations != 0 &&
            recorded_here >= opts_.engine.max_recorded_violations) {
          break;
        }
        total.violations.push_back(std::move(v));
        ++recorded_here;
      }
      for (std::string& rep : sr.reports) {
        total.reports.push_back(std::move(rep));
      }
    }
    failed += failed_here;
    const mc::Verdict tv =
        test_falsified
            ? mc::Verdict::kFalsified
            : (test_exhausted && test_fatals == 0 && failed_here == 0
                   ? mc::Verdict::kVerifiedExhaustive
                   : mc::Verdict::kInconclusive);
    mc::weaken_verdict(total.verdict, tv);
    total.mc.exhausted = total.mc.exhausted && test_exhausted;
  }
  total.mc.verdict = total.verdict;
  out_.shards = shards.size();

  dist::JournalRecord done;
  done.kind = dist::JournalRecord::Kind::kDone;
  done.verdict = static_cast<std::uint64_t>(total.verdict);
  journal(done);
  return failed;
}

ParallelRunResult run_benchmark_parallel(const Benchmark& b,
                                         const RunOptions& opts,
                                         const ParallelOptions& par) {
  ParallelRunResult pr;
  pr.jobs = std::max(1, par.jobs);
  ShardPipeline pipe(b, opts, par, pr.jobs, &pr);
  if (!pipe.open_journal()) return pr;

  // Coordinator-side observability: per-worker busy time / unit counts and
  // aggregate queue wait. These are wall-clock and topology facts, so they
  // live in gauges/timers, never in the bit-identical counter set.
  std::map<int, std::pair<double, std::uint64_t>> worker_busy;  // w -> {s, units}
  double queue_wait_seconds = 0.0;
  double span_base = 0.0;  // sum of earlier tests' last shard ends

  for (std::size_t i = 0; i < b.tests.size(); ++i) {
    // Shards this test still owes (everything, on a fresh run).
    const std::vector<std::size_t> pending =
        pipe.unresolved(static_cast<std::ptrdiff_t>(i));
    if (pending.empty()) continue;
    // The kill hook names a within-test shard index; translate it to this
    // pool call's unit numbering (a resumed run skips shards, so the two
    // no longer coincide).
    std::ptrdiff_t sigkill_unit = -1;
    if (par.sigkill_shard >= 0) {
      for (std::size_t j = 0; j < pending.size(); ++j) {
        if (pipe.shards[pending[j]].unit.ordinal ==
            static_cast<std::size_t>(par.sigkill_shard)) {
          sigkill_unit = static_cast<std::ptrdiff_t>(j);
        }
      }
    }
    const std::vector<mc::UnitResult> results =
        pipe.run_on_pool(pending, pr.jobs, sigkill_unit);

    double test_end = 0.0;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const mc::UnitResult& ur = results[j];
      if (!ur.ran || ur.done_seconds <= ur.assigned_seconds) continue;
      const ShardUnit& u = pipe.shards[pending[j]].unit;
      ShardSpan span;
      span.name = b.name + "#" + std::to_string(i) + " shard " +
                  std::to_string(u.ordinal + 1) + "/" +
                  std::to_string(u.total);
      span.worker = ur.worker;
      span.start_seconds = span_base + ur.assigned_seconds;
      span.duration_seconds = ur.done_seconds - ur.assigned_seconds;
      pr.spans.push_back(std::move(span));
      auto& [busy, units] = worker_busy[ur.worker];
      busy += ur.done_seconds - ur.assigned_seconds;
      ++units;
      queue_wait_seconds += ur.assigned_seconds;
      test_end = std::max(test_end, ur.done_seconds);
    }
    span_base += test_end;
  }
  pr.crashed_shards = pipe.merge();

  obs::Registry& M = pr.merged.metrics;
  M.gauge("parallel.jobs").set(static_cast<std::uint64_t>(pr.jobs));
  M.gauge("parallel.shards").set(pr.shards);
  M.gauge("parallel.crashed_shards").set(pr.crashed_shards);
  M.gauge("parallel.probe_executions").set(pr.probe_executions);
  M.gauge("parallel.epoch").set(pr.epoch);
  M.gauge("parallel.resumed").set(pr.resumed ? 1 : 0);
  M.gauge("parallel.replayed_shards").set(pr.replayed_shards);
  M.gauge("parallel.journal_quarantined_bytes")
      .set(pr.journal_quarantined_bytes);
  if (queue_wait_seconds > 0.0) {
    M.timer("parallel.shard_queue_wait")
        .add_ns(static_cast<std::uint64_t>(queue_wait_seconds * 1e9));
  }
  for (const auto& [w, bu] : worker_busy) {
    const std::string prefix = "parallel.worker" + std::to_string(w);
    M.gauge(prefix + ".units").set(bu.second);
    M.timer(prefix + ".busy")
        .add_ns(static_cast<std::uint64_t>(bu.first * 1e9));
  }
  return pr;
}

}  // namespace cds::harness
