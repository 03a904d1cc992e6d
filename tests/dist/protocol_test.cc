// Dist wire protocol: control-line and assignment round-trips, strict
// rejection of malformed frames (truncated, oversized, byte-flipped) with
// token/line diagnostics and no partially-applied state, plus the
// frontier-split primitives the work-stealing path is built on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dist/net.h"
#include "dist/protocol.h"
#include "harness/shard_result.h"
#include "mc/shard.h"
#include "mc/trace.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "support/stats_fill.h"

namespace cds {
namespace {

using dist::Assignment;
using dist::ControlLine;
using mc::Choice;
using mc::ChoiceKind;

std::string strip_nl(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

TEST(DistControlLine, RoundTripsEveryVerb) {
  ControlLine c;
  std::string err;

  ASSERT_TRUE(dist::parse_control_line(strip_nl(dist::render_hello(4242)), &c,
                                       &err))
      << err;
  EXPECT_EQ(c.kind, ControlLine::Kind::kHello);
  EXPECT_EQ(c.pid, 4242u);

  ASSERT_TRUE(dist::parse_control_line(
      strip_nl(dist::render_welcome(1666666, 3)), &c, &err))
      << err;
  EXPECT_EQ(c.kind, ControlLine::Kind::kWelcome);
  EXPECT_EQ(c.heartbeat_us, 1666666u);
  EXPECT_EQ(c.epoch, 3u);

  ASSERT_TRUE(
      dist::parse_control_line(strip_nl(dist::render_heartbeat(7)), &c, &err));
  EXPECT_EQ(c.kind, ControlLine::Kind::kHeartbeat);
  EXPECT_EQ(c.shard_id, 7u);

  ASSERT_TRUE(dist::parse_control_line(
      strip_nl(dist::render_result_header(9, 12345)), &c, &err));
  EXPECT_EQ(c.kind, ControlLine::Kind::kResult);
  EXPECT_EQ(c.shard_id, 9u);
  EXPECT_EQ(c.payload_len, 12345u);

  ASSERT_TRUE(dist::parse_control_line(
      strip_nl(dist::render_assign_header(3, 999)), &c, &err));
  EXPECT_EQ(c.kind, ControlLine::Kind::kAssign);
  EXPECT_EQ(c.payload_len, 999u);

  ASSERT_TRUE(
      dist::parse_control_line(strip_nl(dist::render_steal(11)), &c, &err));
  EXPECT_EQ(c.kind, ControlLine::Kind::kSteal);
  EXPECT_EQ(c.shard_id, 11u);

  ASSERT_TRUE(
      dist::parse_control_line(strip_nl(dist::render_quit()), &c, &err));
  EXPECT_EQ(c.kind, ControlLine::Kind::kQuit);
}

TEST(DistControlLine, FailedReasonSurvivesNewlinesAndBackslashes) {
  const std::string reason = "child killed\nby signal 9\\ (SIGKILL)";
  ControlLine c;
  std::string err;
  ASSERT_TRUE(dist::parse_control_line(
      strip_nl(dist::render_failed(5, reason)), &c, &err))
      << err;
  EXPECT_EQ(c.kind, ControlLine::Kind::kFailed);
  EXPECT_EQ(c.shard_id, 5u);
  EXPECT_EQ(c.reason, reason);
}

TEST(DistControlLine, RejectsMalformedLinesWithTokenDiagnostics) {
  const char* bad[] = {
      "",
      "quit now",
      "hb",
      "hb notanumber",
      "hb 1 2",
      "steal -3",
      "result 5",
      "result 5 x",
      "assign 5 18446744073709551616",  // u64 overflow
      "hello cdsspec-dist v2 pid=1",    // wrong version
      "hello cdsspec-dist v1",          // missing pid
      "hello cdsspec-dist v1 pid=abc",
      "welcome cdsspec-dist v1 pid=3",  // pid on a welcome
      "rseult 5 10",                    // typo verb
      "RESULT 5 10",                    // case-sensitive
  };
  for (const char* line : bad) {
    ControlLine c;
    c.kind = ControlLine::Kind::kHeartbeat;
    c.shard_id = 424242;
    std::string err;
    EXPECT_FALSE(dist::parse_control_line(line, &c, &err)) << line;
    EXPECT_FALSE(err.empty()) << line;
    EXPECT_NE(err.find("token"), std::string::npos)
        << "diagnostic must name the offending token: " << err;
    // Rejection leaves the output untouched.
    EXPECT_EQ(c.kind, ControlLine::Kind::kHeartbeat) << line;
    EXPECT_EQ(c.shard_id, 424242u) << line;
  }
}

Assignment sample_assignment() {
  Assignment a;
  a.shard_id = 77;
  a.bench = "synthetic bench\nwith weird name";
  a.unit.test_index = 2;
  a.unit.ordinal = 3;
  a.unit.total = 8;
  a.unit.engine_seed = 0xdeadbeefcafef00dull;
  a.unit.sample_executions = 1250;
  a.unit.prefix = {Choice{ChoiceKind::kSchedule, 1, 3},
                   Choice{ChoiceKind::kReadsFrom, 0, 2},
                   Choice{ChoiceKind::kSchedule, 2, 4}};
  a.engine.max_executions = 100000;
  a.engine.stale_read_bound = 4;
  a.engine.stop_on_first_violation = true;
  a.engine.time_budget_seconds = 1.5;
  a.engine.seed = 42;
  a.checker.max_histories = 512;
  a.checker.seed = 43;
  return a;
}

TEST(DistAssignment, RoundTripsEveryField) {
  // Every row of the engine and checker config tables, each moved off its
  // default: a row added to either table is covered with no edit here.
  Assignment a = sample_assignment();
  a.engine = testing_support::non_default_fields<mc::Config>();
  a.checker = testing_support::non_default_fields<spec::SpecChecker::Options>();
  const auto engine_rows = testing_support::rows(a.engine);
  const auto default_rows = testing_support::rows(mc::Config{});
  ASSERT_EQ(engine_rows.size(), default_rows.size());
  for (std::size_t k = 0; k < engine_rows.size(); ++k) {
    EXPECT_NE(engine_rows[k], default_rows[k]) << engine_rows[k].first;
  }
  const auto checker_rows = testing_support::rows(a.checker);
  const auto checker_defaults =
      testing_support::rows(spec::SpecChecker::Options{});
  for (std::size_t k = 0; k < checker_rows.size(); ++k) {
    EXPECT_NE(checker_rows[k], checker_defaults[k]) << checker_rows[k].first;
  }

  std::string text = dist::render_assignment(a);
  Assignment back;
  std::string err;
  ASSERT_TRUE(dist::parse_assignment(text, &back, &err)) << err;
  EXPECT_EQ(back.shard_id, a.shard_id);
  EXPECT_EQ(back.bench, a.bench);
  EXPECT_EQ(back.unit.test_index, a.unit.test_index);
  EXPECT_EQ(back.unit.ordinal, a.unit.ordinal);
  EXPECT_EQ(back.unit.total, a.unit.total);
  EXPECT_EQ(back.unit.engine_seed, a.unit.engine_seed);
  EXPECT_EQ(back.unit.sample_executions, a.unit.sample_executions);
  EXPECT_EQ(mc::render_choices(back.unit.prefix),
            mc::render_choices(a.unit.prefix));
  EXPECT_EQ(testing_support::rows(back.engine), engine_rows);
  EXPECT_EQ(testing_support::rows(back.checker), checker_rows);
}

TEST(DistAssignment, StaleVersionAndBadRowsAreRejected) {
  const std::string text = dist::render_assignment(sample_assignment());
  auto reject = [&](const std::string& from, const std::string& to,
                    const char* expect_msg) {
    std::string bad = text;
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    Assignment out;
    std::string err;
    EXPECT_FALSE(dist::parse_assignment(bad, &out, &err)) << to;
    EXPECT_NE(err.find(expect_msg), std::string::npos) << to << ": " << err;
  };
  // A v1 assignment has no explore row: a worker would run schedule mode.
  reject("shard-assign v2", "shard-assign v1",
         "unsupported version: 'shard-assign v1'");
  reject(" explore=0", "", "missing key 'explore'");
  reject(" explore=0", " explore=2", "out of range for 'explore'");
  reject(" threads=32", " threads=0", "bad engine thread cap");
  reject(" unsound=0", " unsound=3", "out of range for 'unsound'");
  reject(" reports=8", " reports=4294967296", "out of range for 'reports'");
}

TEST(DistAssignment, EveryTruncationIsRejectedWithALineDiagnostic) {
  // Chop the rendered payload at every line boundary: every proper prefix
  // must be rejected (strict framing), with a "line N:" diagnostic, and
  // must leave the output object untouched.
  const std::string text = dist::render_assignment(sample_assignment());
  std::vector<std::size_t> cuts;
  for (std::size_t p = 0; p < text.size(); ++p) {
    if (text[p] == '\n') cuts.push_back(p + 1);
  }
  ASSERT_GT(cuts.size(), 5u);
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    Assignment out;
    out.shard_id = 999999;
    out.bench = "untouched";
    std::string err;
    EXPECT_FALSE(
        dist::parse_assignment(text.substr(0, cuts[k]), &out, &err))
        << "prefix of " << cuts[k] << " bytes parsed";
    EXPECT_NE(err.find("line "), std::string::npos) << err;
    EXPECT_EQ(out.shard_id, 999999u);
    EXPECT_EQ(out.bench, "untouched");
  }
}

TEST(DistAssignment, ByteFlipFuzzNeverCrashesOrPartiallyApplies) {
  const std::string text = dist::render_assignment(sample_assignment());
  support::Xorshift64 rng(0x5eedf00d);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string m = text;
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = static_cast<std::size_t>(rng.below(m.size()));
      m[pos] = static_cast<char>(m[pos] ^ (1u << rng.below(8)));
    }
    Assignment out;
    out.shard_id = 123456789;
    out.bench = "sentinel";
    std::string err;
    if (!dist::parse_assignment(m, &out, &err)) {
      EXPECT_FALSE(err.empty());
      EXPECT_EQ(out.shard_id, 123456789u) << "partial apply on reject";
      EXPECT_EQ(out.bench, "sentinel");
    }
    // An accepted mutation (a flip inside an escaped name, say) is fine —
    // the contract is no crash and no torn output, not bit-sensitivity.
  }
}

TEST(DistAssignment, OversizedGarbageIsRejectedNotAllocated) {
  // A wall of bytes with no newline overflows the frame buffer rather
  // than accumulating without bound; the parser side rejects junk fast.
  dist::FrameBuffer fb;
  std::string junk(dist::FrameBuffer::kMaxLine + 4096, 'A');
  fb.append(junk.data(), junk.size());
  std::string line;
  EXPECT_FALSE(fb.next_line(&line));
  EXPECT_TRUE(fb.overflowed());

  Assignment out;
  std::string err;
  EXPECT_FALSE(dist::parse_assignment(junk, &out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(DistFrameBuffer, CarvesLinesAndPayloadsIncrementally) {
  dist::FrameBuffer fb;
  const std::string stream = "result 5 10\nabcdefghijhb 6\n";
  // Feed one byte at a time: framing must not depend on read boundaries.
  std::string line, payload;
  std::size_t fed = 0;
  for (char ch : stream) {
    fb.append(&ch, 1);
    ++fed;
    if (fed == 12) {
      ASSERT_TRUE(fb.next_line(&line));
      EXPECT_EQ(line, "result 5 10");
    }
  }
  ASSERT_TRUE(fb.take(10, &payload));
  EXPECT_EQ(payload, "abcdefghij");
  ASSERT_TRUE(fb.next_line(&line));
  EXPECT_EQ(line, "hb 6");
  EXPECT_EQ(fb.buffered(), 0u);
  EXPECT_FALSE(fb.overflowed());
}

// ---------------------------------------------------------------------------
// Work-stealing primitives
// ---------------------------------------------------------------------------

TEST(FrontierSplit, RightSiblingsOfEveryUnpinnedLevelDeepestFirst) {
  // frontier = [a(1/3), b(0/2), c(1/4)] pinned at 1: the remainder is
  //   [a, b, c=2], [a, b, c=3]      (siblings of the deepest choice)
  //   [a, b=1]                       (siblings one level up)
  // and nothing at the pinned level.
  std::vector<Choice> frontier = {Choice{ChoiceKind::kSchedule, 1, 3},
                                  Choice{ChoiceKind::kReadsFrom, 0, 2},
                                  Choice{ChoiceKind::kSchedule, 1, 4}};
  auto subs = mc::split_remaining_frontier(1, frontier);
  ASSERT_EQ(subs.size(), 3u);
  ASSERT_EQ(subs[0].size(), 3u);
  EXPECT_EQ(subs[0][2].chosen, 2);
  ASSERT_EQ(subs[1].size(), 3u);
  EXPECT_EQ(subs[1][2].chosen, 3);
  ASSERT_EQ(subs[2].size(), 2u);
  EXPECT_EQ(subs[2][1].chosen, 1);
  // DFS order: every returned prefix sorts after the frontier's own path
  // and they are mutually ordered.
  for (std::size_t k = 0; k + 1 < subs.size(); ++k) {
    EXPECT_TRUE(mc::prefix_dfs_less(subs[k], subs[k + 1])) << k;
  }
}

TEST(FrontierSplit, LastExecutionOfSubtreeSplitsToNothing) {
  std::vector<Choice> frontier = {Choice{ChoiceKind::kSchedule, 2, 3},
                                  Choice{ChoiceKind::kReadsFrom, 1, 2}};
  EXPECT_TRUE(mc::split_remaining_frontier(0, frontier).empty());
  // Fully pinned: nothing may be split regardless of alternatives.
  std::vector<Choice> open = {Choice{ChoiceKind::kSchedule, 0, 3}};
  EXPECT_TRUE(mc::split_remaining_frontier(1, open).empty());
}

TEST(FrontierSplit, PrefixDfsLessOrdersProperPrefixFirst) {
  std::vector<Choice> parent = {Choice{ChoiceKind::kSchedule, 1, 3}};
  std::vector<Choice> child = {Choice{ChoiceKind::kSchedule, 1, 3},
                               Choice{ChoiceKind::kReadsFrom, 0, 2}};
  std::vector<Choice> sibling = {Choice{ChoiceKind::kSchedule, 2, 3}};
  EXPECT_TRUE(mc::prefix_dfs_less(parent, child));
  EXPECT_FALSE(mc::prefix_dfs_less(child, parent));
  EXPECT_TRUE(mc::prefix_dfs_less(child, sibling));
  EXPECT_TRUE(mc::prefix_dfs_less(parent, sibling));
  EXPECT_FALSE(mc::prefix_dfs_less(parent, parent));
}

// ---------------------------------------------------------------------------
// Metrics wire-line fuzz (the other strict line parser on the dist path)
// ---------------------------------------------------------------------------

TEST(MetricsWireFuzz, MutatedLinesNeverCrashOrPartiallyApply) {
  obs::Registry r;
  r.counter("engine.executions").add(12345);
  r.histogram("engine.depth").record(7);
  r.gauge("dist.retries").set(3);
  r.timer("engine.dfs_phase").add_ns(5000000);
  std::vector<std::string> wire = r.render_wire();
  ASSERT_FALSE(wire.empty());

  support::Xorshift64 rng(0xfeedface);
  for (const std::string& line : wire) {
    for (int trial = 0; trial < 500; ++trial) {
      std::string m = line;
      const std::size_t pos = static_cast<std::size_t>(rng.below(m.size()));
      m[pos] = static_cast<char>(m[pos] ^ (1u << rng.below(8)));
      obs::Registry target;
      target.counter("preexisting").add(1);
      std::string before = target.to_json();
      std::string err;
      if (!target.parse_wire_line(m, &err)) {
        EXPECT_FALSE(err.empty());
        EXPECT_EQ(target.to_json(), before)
            << "rejected line mutated the registry: " << m;
      }
    }
    // Truncations too: every proper prefix either parses cleanly or
    // rejects without touching the registry.
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      obs::Registry target;
      std::string before = target.to_json();
      std::string err;
      if (!target.parse_wire_line(line.substr(0, cut), &err)) {
        EXPECT_FALSE(err.empty());
        EXPECT_EQ(target.to_json(), before);
      }
    }
  }
}

}  // namespace
}  // namespace cds
