// Shard-result wire (v5) and the stats tables behind it: every row of
// ExplorationStats and SpecChecker::Stats round-trips through the shard
// wire, the checkpoint and the prior.*/spec.cur.* extras and folds by its
// kind; strict rejection of stale wire versions and malformed stats lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "harness/runner.h"
#include "harness/shard_result.h"
#include "mc/checkpoint.h"
#include "mc/trace.h"
#include "support/rng.h"
#include "support/stats_fill.h"

namespace cds {
namespace {

using testing_support::distinct_fields;
using testing_support::rows;

harness::RunResult full_result() {
  harness::RunResult r;
  r.mc = distinct_fields<mc::ExplorationStats>(0);
  r.mc.preempted = false;
  r.spec = distinct_fields<spec::SpecChecker::Stats>(0);
  r.violations.push_back(mc::Violation{
      mc::ViolationKind::kSpecAssertion, "postcondition of deq()=1 failed",
      17, {mc::Choice{mc::ChoiceKind::kReadsFrom, 1, 3}}, 0});
  r.reports.push_back("spec 'MSQueue': 1 violation\nsecond line");
  return r;
}

TEST(ShardResult, RoundTripCarriesRfCounters) {
  harness::RunResult r = full_result();
  std::string wire = harness::render_shard_result(r);
  EXPECT_EQ(wire.rfind("shard-result v5", 0), 0u) << wire;
  harness::ShardResult back;
  std::string err;
  ASSERT_TRUE(harness::parse_shard_result(wire, &back, &err)) << err;
  EXPECT_EQ(back.stats.rf_infeasible, r.mc.rf_infeasible);
  EXPECT_EQ(rows(back.stats), rows(r.mc));
  EXPECT_EQ(rows(back.spec), rows(r.spec));
  ASSERT_EQ(back.violations.size(), 1u);
  EXPECT_EQ(back.violations[0].detail, r.violations[0].detail);
  ASSERT_EQ(back.reports.size(), 1u);
  EXPECT_EQ(back.reports[0], r.reports[0]);
}

TEST(ShardResult, StaleWireVersionsAreRejected) {
  // A payload left by an older build (say, in a journal) must read as
  // corrupt, not merge with fields missing or misread.
  std::string wire = harness::render_shard_result(full_result());
  for (const char* old : {"shard-result v1", "shard-result v2",
                          "shard-result v3", "shard-result v4"}) {
    std::string stale = wire;
    stale.replace(0, 15, old);
    harness::ShardResult back;
    std::string err;
    EXPECT_FALSE(harness::parse_shard_result(stale, &back, &err)) << old;
    EXPECT_NE(err.find("unsupported version"), std::string::npos) << err;
    EXPECT_NE(err.find(old), std::string::npos) << err;
  }
}

TEST(ShardResult, MissingRfKeyIsRejected) {
  // Each edit of the stats line must fail the parse, naming the reason.
  const harness::RunResult r = full_result();
  const std::string wire = harness::render_shard_result(r);
  const std::string feasible = " feasible=" + std::to_string(r.mc.feasible);
  const std::string infeasible =
      " rf_infeasible=" + std::to_string(r.mc.rf_infeasible);
  const std::string verdict =
      " verdict=" + std::to_string(static_cast<int>(r.mc.verdict));
  struct Edit {
    std::string from, to;
    const char* why;
  };
  const Edit edits[] = {
      {infeasible, "", "missing key 'rf_infeasible'"},
      // A repeated key must not stand in for a missing one.
      {feasible, " executions=7", "duplicate key 'executions'"},
      {feasible, " feasible= 5", "malformed"},
      {feasible, " feasible=123456789012345678901", "malformed value"},
      {feasible, " feasible=-1", "malformed value"},
      {feasible, " bogus=1", "unknown key 'bogus'"},
      {verdict, " verdict=7", "out of range"},
  };
  for (const Edit& e : edits) {
    std::string bad = wire;
    const std::size_t at = bad.find(e.from);
    ASSERT_NE(at, std::string::npos) << e.from;
    bad.replace(at, e.from.size(), e.to);
    harness::ShardResult back;
    std::string err;
    EXPECT_FALSE(harness::parse_shard_result(bad, &back, &err)) << e.to;
    EXPECT_NE(err.find(e.why), std::string::npos) << e.to << ": " << err;
  }
}

TEST(ShardResult, MergeSumsRfCountersExactly) {
  mc::ExplorationStats total;
  total.exhausted = true;
  std::uint64_t want_infeasible = 0;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    mc::ExplorationStats shard;
    shard.executions = 10 * i;
    shard.rf_infeasible = 7 * i;
    shard.exhausted = true;
    want_infeasible += shard.rf_infeasible;
    mc::merge_shard_stats(total, shard);
  }
  EXPECT_EQ(total.rf_infeasible, want_infeasible);
  EXPECT_TRUE(total.exhausted);
}

// The three multi-line formats read through support::LineReader, fuzzed
// once: byte flips and truncations of a valid rendering must be rejected
// with a "line N:" diagnostic or parse, never crash (run it under ASan).
TEST(ShardResult, EveryLineFormatSurvivesByteFlipsAndTruncation) {
  mc::TrailFile t;
  t.test_name = "ms-queue#1";
  t.kind = "spec-assertion";
  t.detail = "two\nlines \\ here";
  t.choices = {mc::Choice{mc::ChoiceKind::kSchedule, 1, 2},
               mc::Choice{mc::ChoiceKind::kReadsFrom, 0, 3}};
  mc::Checkpoint cp;
  cp.test_name = "ms-queue#1";
  cp.phase = mc::Checkpoint::Phase::kDfs;
  cp.violations = full_result().violations;
  cp.extra.emplace_back("prior.executions", 3);
  cp.trail = t.choices;
  struct Format {
    std::string text;
    bool (*parse)(const std::string&, std::string*);
  };
  const Format formats[] = {
      {mc::render_trail(t),
       [](const std::string& x, std::string* err) {
         mc::TrailFile out;
         return mc::parse_trail(x, &out, err);
       }},
      {mc::render_checkpoint(cp),
       [](const std::string& x, std::string* err) {
         mc::Checkpoint out;
         return mc::parse_checkpoint(x, &out, err);
       }},
      {harness::render_shard_result(full_result()),
       [](const std::string& x, std::string* err) {
         harness::ShardResult out;
         return harness::parse_shard_result(x, &out, err);
       }},
  };
  support::Xorshift64 rng(0xf1a9f1a9);
  for (const Format& f : formats) {
    std::string err;
    ASSERT_TRUE(f.parse(f.text, &err)) << err;
    for (int trial = 0; trial < 2000; ++trial) {
      std::string m = f.text;
      const int flips = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < flips; ++k) {
        const std::size_t pos = static_cast<std::size_t>(rng.below(m.size()));
        m[pos] = static_cast<char>(m[pos] ^ (1u << rng.below(8)));
      }
      err.clear();
      if (!f.parse(m, &err)) {
        EXPECT_EQ(err.rfind("line ", 0), 0u) << err;
      }
    }
    // Every proper prefix fails, except the one that drops only the
    // final newline.
    for (std::size_t cut = 0; cut + 1 < f.text.size(); ++cut) {
      EXPECT_FALSE(f.parse(f.text.substr(0, cut), &err))
          << "prefix of " << cut << " bytes parsed";
    }
  }
}

// Every row, filled with distinct values, through every codec the tables
// generate: the shard wire, the checkpoint `stats` line, the harness's
// prior.* extras and the spec checker's spec.cur.* extras.
TEST(StatsTable, EveryRowRoundTripsThroughEveryCodec) {
  std::set<std::string> keys;
  for (const auto& [k, v] : rows(mc::ExplorationStats{})) keys.insert(k);
  EXPECT_EQ(keys.size(), rows(mc::ExplorationStats{}).size())
      << "wire keys must be unique";

  for (std::uint64_t pass = 0; pass < 5; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    harness::RunResult r;
    r.mc = distinct_fields<mc::ExplorationStats>(pass);
    r.spec = distinct_fields<spec::SpecChecker::Stats>(pass);
    if (r.mc.preempted) {
      r.frontier = {mc::Choice{mc::ChoiceKind::kSchedule, 0, 2}};
    }
    std::string err;

    harness::ShardResult wire;
    ASSERT_TRUE(harness::parse_shard_result(harness::render_shard_result(r),
                                            &wire, &err))
        << err;
    EXPECT_EQ(rows(wire.stats), rows(r.mc));
    EXPECT_EQ(rows(wire.spec), rows(r.spec));

    mc::Checkpoint cp;
    cp.stats = r.mc;
    cp.last_progress_exec = 77 + pass;
    harness::encode_prior(r, &cp);
    support::put_fields(cp.extra, "spec.cur.", r.spec);
    mc::Checkpoint back;
    ASSERT_TRUE(mc::parse_checkpoint(mc::render_checkpoint(cp), &back, &err))
        << err;
    EXPECT_EQ(rows(back.stats), rows(r.mc));
    EXPECT_EQ(back.last_progress_exec, 77 + pass);

    harness::RunResult prior;
    ASSERT_TRUE(harness::decode_prior(back, &prior));
    EXPECT_EQ(rows(prior.mc), rows(r.mc));
    EXPECT_EQ(rows(prior.spec), rows(r.spec));

    spec::SpecChecker checker;
    checker.restore_from_checkpoint(back);
    EXPECT_EQ(rows(checker.stats()), rows(r.spec));
    support::KvPairs extra;
    checker.on_checkpoint(extra);
    for (const auto& [k, v] : extra) {
      EXPECT_EQ(back.extra_value(k, ~0ull), v) << k;
    }
  }
}

// Fold checks by kind, expanded over the tables themselves.
template <class T>
void check_sum(const char* row, T a, T b, T m) {
  EXPECT_EQ(m, a + b) << row;
}
void check_any(const char* row, bool a, bool b, bool m) {
  EXPECT_EQ(m, a || b) << row;
}
void check_all(const char* row, bool a, bool b, bool m) {
  EXPECT_EQ(m, a && b) << row;
}
void check_max(const char* row, std::uint64_t a, std::uint64_t b,
               std::uint64_t m) {
  EXPECT_EQ(m, std::max(a, b)) << row;
}
template <class T>
void check_keep(const char* row, T a, T, T m) {
  EXPECT_EQ(m, a) << row;
}
#define CHECK_FOLD(type, member, key, fold) \
  check_##fold(#member, a.member, b.member, m.member);

TEST(StatsTable, EveryRowFoldsByItsKind) {
  // Passes p and q give every boolean row all four (a, b) combinations.
  for (std::uint64_t p = 0; p < 5; ++p) {
    for (std::uint64_t q = 0; q < 5; ++q) {
      SCOPED_TRACE("passes " + std::to_string(p) + "," + std::to_string(q));
      {
        const auto a = distinct_fields<mc::ExplorationStats>(p);
        const auto b = distinct_fields<mc::ExplorationStats>(q);
        mc::ExplorationStats m = a;
        mc::merge_shard_stats(m, b);
        CDS_EXPLORATION_STATS(CHECK_FOLD)
      }
      {
        const auto a = distinct_fields<spec::SpecChecker::Stats>(p);
        const auto b = distinct_fields<spec::SpecChecker::Stats>(q);
        spec::SpecChecker::Stats m = a;
        m.merge(b);
        CDS_SPEC_STATS(CHECK_FOLD)
      }
    }
  }
}

}  // namespace
}  // namespace cds
