// Unit tests for the litmus fuzzer: program format round-trips,
// generator determinism and legality, the brute-force interleaving
// oracle on known litmus shapes, and the minimizer.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"

namespace cds {
namespace {

using fuzz::BehaviorSet;
using fuzz::GenParams;
using fuzz::Op;
using fuzz::OpCode;
using fuzz::OracleConfig;
using fuzz::Program;
using mc::MemoryOrder;

Program parse_or_die(const std::string& text) {
  Program p;
  std::string err;
  EXPECT_TRUE(Program::parse(text, &p, &err)) << err;
  return p;
}

constexpr const char* kSb =
    "litmus v1\n"
    "locations 2\n"
    "t0 store x 1 seq_cst\n"
    "t0 load y seq_cst\n"
    "t1 store y 1 seq_cst\n"
    "t1 load x seq_cst\n";

TEST(FuzzProgram, ParsePrintRoundTrip) {
  Program p = parse_or_die(kSb);
  EXPECT_EQ(p.threads(), 2);
  EXPECT_EQ(p.total_ops(), 4);
  EXPECT_TRUE(p.sc_only());
  Program q = parse_or_die(p.to_string());
  EXPECT_EQ(p.to_string(), q.to_string());
}

TEST(FuzzProgram, ParseAllOpcodesAndComments) {
  Program p = parse_or_die(
      "# header comment\n"
      "litmus v1\n"
      "locations 3\n"
      "t0 cas z 0 2 seq_cst acquire  # trailing comment\n"
      "t0 fence release\n"
      "t1 rmw x 1 acq_rel\n"
      "t1 load z acquire\n"
      "t2 store y 2 release\n");
  EXPECT_EQ(p.threads(), 3);
  EXPECT_FALSE(p.sc_only());
  EXPECT_EQ(p.ops[0][0].code, OpCode::kCas);
  EXPECT_EQ(p.ops[0][0].expected, 0u);
  EXPECT_EQ(p.ops[0][0].value, 2u);
  EXPECT_EQ(p.ops[0][0].failure, MemoryOrder::acquire);
  EXPECT_EQ(p.ops[0][1].code, OpCode::kFence);
  EXPECT_EQ(p.ops[1][0].code, OpCode::kRmwAdd);
  Program q = parse_or_die(p.to_string());
  EXPECT_EQ(p.to_string(), q.to_string());
}

TEST(FuzzProgram, ParseRejectsMalformed) {
  Program p;
  std::string err;
  EXPECT_FALSE(Program::parse("nonsense\n", &p, &err));
  EXPECT_FALSE(Program::parse("litmus v1\nlocations 9\n", &p, &err));
  EXPECT_FALSE(
      Program::parse("litmus v1\nlocations 2\nt0 load q seq_cst\n", &p, &err));
  EXPECT_FALSE(
      Program::parse("litmus v1\nlocations 2\nt0 load x release\n", &p, &err))
      << "release-form load must not parse as valid";
  // Values parse strictly: no silent 0 for junk, no truncated suffix.
  for (const char* op : {"t0 store x abc relaxed", "t0 store x 1z relaxed",
                         "t0 rmw x -1 relaxed",
                         "t0 cas x 0 99999999999999999999 seq_cst relaxed",
                         "t0 cas x z 1 seq_cst relaxed"}) {
    EXPECT_FALSE(Program::parse(
        std::string("litmus v1\nlocations 2\n") + op + "\n", &p, &err))
        << op;
    EXPECT_NE(err.find("(line 3)"), std::string::npos) << op << ": " << err;
  }
}

TEST(FuzzProgram, ValidateRejectsIllegalOrders) {
  Program p = parse_or_die(kSb);
  EXPECT_TRUE(p.validate());
  Program bad_load = p;
  bad_load.ops[0][1].order = MemoryOrder::release;
  std::string why;
  EXPECT_FALSE(bad_load.validate(&why));
  Program bad_store = p;
  bad_store.ops[0][0].order = MemoryOrder::acquire;
  EXPECT_FALSE(bad_store.validate(&why));
  Program bad_loc = p;
  bad_loc.ops[1][0].loc = 3;
  EXPECT_FALSE(bad_loc.validate(&why));
}

TEST(FuzzGenerator, DeterministicAndValid) {
  GenParams gp;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Program a = fuzz::generate(gp, seed);
    Program b = fuzz::generate(gp, seed);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(a.validate(&why)) << "seed " << seed << ": " << why;
    EXPECT_GE(a.threads(), gp.min_threads);
    EXPECT_LE(a.threads(), gp.max_threads);
    EXPECT_LE(a.total_ops(), gp.max_total_ops);
    EXPECT_GE(a.total_ops(), gp.min_threads * gp.min_ops_per_thread);
  }
}

TEST(FuzzGenerator, ScOnlyProfileIsScOnly) {
  GenParams gp;
  gp.sc_only = true;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    EXPECT_TRUE(fuzz::generate(gp, seed).sc_only()) << "seed " << seed;
  }
}

TEST(FuzzGenerator, SeedsYieldDistinctPrograms) {
  GenParams gp;
  std::set<std::string> shapes;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    shapes.insert(fuzz::generate(gp, seed).to_string());
  }
  EXPECT_GT(shapes.size(), 30u) << "seeds should rarely collide";
}

TEST(FuzzOracle, InterleavingsOfStoreBuffering) {
  // SB under SC admits exactly 3 read pairs: (0,1), (1,0), (1,1) —
  // never (0,0) — and finals are always 1,1. Slots are per-op
  // thread-major, with stores contributing fixed zeros.
  Program p = parse_or_die(kSb);
  BehaviorSet ref;
  ASSERT_TRUE(fuzz::interleaving_behaviors(p, OracleConfig{}, &ref));
  EXPECT_EQ(ref.size(), 3u);
  EXPECT_EQ(ref.count("r:0,0,0,0|f:1,1"), 0u) << "both-zero is forbidden";
  EXPECT_EQ(ref.count("r:0,1,0,1|f:1,1"), 1u);
}

TEST(FuzzOracle, EngineMatchesInterleavingsOnSb) {
  Program p = parse_or_die(kSb);
  OracleConfig cfg;
  auto mc = fuzz::mc_behaviors(p, cfg);
  ASSERT_TRUE(mc.exhausted);
  BehaviorSet ref;
  ASSERT_TRUE(fuzz::interleaving_behaviors(p, cfg, &ref));
  EXPECT_EQ(mc.behaviors, ref);
}

TEST(FuzzOracle, StrengthenSitesCoverNonSeqCstOrders) {
  Program p = parse_or_die(
      "litmus v1\n"
      "locations 2\n"
      "t0 store x 1 release\n"
      "t0 fence seq_cst\n"
      "t1 cas x 0 2 seq_cst relaxed\n"
      "t1 load y seq_cst\n");
  // store(release) + cas failure(relaxed): exactly two strengthenable sites.
  auto sites = fuzz::strengthen_sites(p);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_FALSE(sites[0].failure_order);
  EXPECT_TRUE(sites[1].failure_order);
  Program q = fuzz::strengthen_at(p, sites[0]);
  EXPECT_EQ(q.ops[0][0].order, MemoryOrder::seq_cst);
  Program r = fuzz::strengthen_at(p, sites[1]);
  EXPECT_EQ(r.ops[1][0].failure, MemoryOrder::acquire);
  // A fully seq_cst program has no strengthenable sites.
  EXPECT_TRUE(fuzz::strengthen_sites(parse_or_die(kSb)).empty());
}

TEST(FuzzOracle, CheckProgramAgreesOnClassicLitmus) {
  for (const char* text : {kSb,
                           "litmus v1\nlocations 2\n"
                           "t0 store x 1 relaxed\nt0 store y 1 release\n"
                           "t1 load y acquire\nt1 load x relaxed\n"}) {
    Program p = parse_or_die(text);
    auto res = fuzz::check_program(p, OracleConfig{});
    EXPECT_TRUE(res.agreed()) << p.to_string();
    EXPECT_GE(res.oracles_run, 1);
  }
}

TEST(FuzzMinimize, ShrinksToSmallestFailingShape) {
  // Predicate: "some thread stores 2 to x". Minimal shape: 1 thread, 1 op.
  Program p = parse_or_die(
      "litmus v1\n"
      "locations 3\n"
      "t0 store x 1 seq_cst\n"
      "t0 load z seq_cst\n"
      "t1 store y 2 seq_cst\n"
      "t1 store x 2 seq_cst\n"
      "t2 rmw z 1 acq_rel\n");
  auto has_store2_to_x = [](const Program& q) {
    for (const auto& t : q.ops) {
      for (const Op& op : t) {
        if (op.code == OpCode::kStore && op.loc == 0 && op.value == 2) {
          return true;
        }
      }
    }
    return false;
  };
  fuzz::MinimizeStats stats;
  Program m = fuzz::minimize(p, has_store2_to_x, &stats);
  EXPECT_TRUE(has_store2_to_x(m));
  EXPECT_EQ(m.threads(), 1);
  EXPECT_EQ(m.total_ops(), 1);
  EXPECT_EQ(m.locations, 1) << "unused locations must be dropped";
  EXPECT_GT(stats.reductions, 0);
  std::string why;
  EXPECT_TRUE(m.validate(&why)) << why;
}

TEST(FuzzMinimize, FixpointKeepsFailingProgramIntact) {
  Program p = parse_or_die(kSb);
  // Nothing smaller than the full SB shape satisfies this predicate.
  auto is_full_sb = [&](const Program& q) { return q.total_ops() == 4; };
  Program m = fuzz::minimize(p, is_full_sb, nullptr);
  EXPECT_EQ(m.total_ops(), 4);
}

}  // namespace
}  // namespace cds
