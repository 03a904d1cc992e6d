// Annotation-runtime tests: ordering-point vocabulary (PotentialOP /
// OPCheck / OPClear), spec-line accounting, and the composability of
// per-object checking (paper Section 3.2).
#include <gtest/gtest.h>

#include <string>

#include "harness/runner.h"
#include "mc/atomic.h"
#include "spec/annotations.h"
#include "spec/checker.h"
#include "spec/render.h"
#include "spec/seqstate.h"
#include "spec/specification.h"

namespace cds {
namespace {

using harness::RunResult;
using harness::run_with_spec;
using mc::MemoryOrder;
using spec::Ctx;

const spec::Specification& pair_spec() {
  static spec::Specification* s = [] {
    auto* sp = new spec::Specification("PairSpec");
    sp->state<std::int64_t>();
    sp->method("inc").side_effect([](Ctx& c) { ++c.st<std::int64_t>(); });
    sp->method("get")
        .side_effect([](Ctx& c) { c.s_ret = c.st<std::int64_t>(); })
        .post([](Ctx& c) { return c.c_ret() == c.s_ret; });
    return sp;
  }();
  return *s;
}

TEST(Annotations, PotentialOpPromotedByOpCheck) {
  // Record a potential OP; promote it only on the taken path. The promoted
  // event must order the calls (same-thread ops always ordered, so check
  // cross-thread via a release/acquire pair).
  RunResult r = run_with_spec([](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(pair_spec());
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    int t1 = x.spawn([&] {
      spec::Method m(*obj, "inc");
      flag->store(1, MemoryOrder::release);
      m.potential_op(7);
      m.op_check(7);  // condition held: promote
    });
    int t2 = x.spawn([&] {
      spec::Method m(*obj, "get");
      // Spin until the inc is visible so the calls are ordered in every
      // complete execution (unfair spins are livelock-pruned).
      for (;;) {
        if (flag->load(MemoryOrder::acquire) == 1) break;
        mc::yield();
      }
      m.op_clear_define();
      m.ret(1);
    });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_EQ(r.mc.violations_total, 0u)
      << (r.reports.empty() ? "" : r.reports[0]);
}

TEST(Annotations, UnpromotedPotentialOpLeavesCallUnordered) {
  // Without op_check, the potential OP is dropped: the inc call has no
  // ordering points, so it is concurrent with everything — the strict get
  // postcondition then fails in the history that orders get first.
  RunResult r = run_with_spec([](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(pair_spec());
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    {
      spec::Method m(*obj, "inc");
      flag->store(1, MemoryOrder::release);
      m.potential_op(7);
      // no op_check: dropped
    }
    {
      spec::Method m(*obj, "get");
      (void)flag->load(MemoryOrder::acquire);
      m.op_define();
      m.ret(1);
    }
  });
  EXPECT_TRUE(r.detected_assertion())
      << "an unordered inc must break the strict get in some history";
}

TEST(Annotations, OpClearDiscardsEarlierPoints) {
  // op_clear wipes previously defined points; with none re-defined, the
  // call is unordered (same effect as above).
  RunResult r = run_with_spec([](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(pair_spec());
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    {
      spec::Method m(*obj, "inc");
      flag->store(1, MemoryOrder::release);
      m.op_define();
      m.op_clear();  // discard
    }
    {
      spec::Method m(*obj, "get");
      (void)flag->load(MemoryOrder::acquire);
      m.op_define();
      m.ret(1);
    }
  });
  EXPECT_TRUE(r.detected_assertion());
}

TEST(Annotations, RetCapturesValue) {
  spec::SpecChecker checker;
  mc::Engine e;
  checker.attach(e);
  std::int64_t captured = -1;
  bool has = false;
  e.explore([&](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(pair_spec());
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    {
      spec::Method m(*obj, "get");
      (void)flag->load(MemoryOrder::acquire);
      m.op_define();
      EXPECT_EQ(m.ret(42), 42);
    }
    captured = checker.recorder().calls().back().c_ret;
    has = checker.recorder().calls().back().has_ret;
  });
  checker.detach();
  EXPECT_EQ(captured, 42);
  EXPECT_TRUE(has);
}

TEST(Annotations, ArgumentsCapturedUpToMax) {
  spec::SpecChecker checker;
  mc::Engine e;
  checker.attach(e);
  int nargs = -1;
  std::int64_t a2 = -1;
  e.explore([&](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(pair_spec());
    {
      spec::Method m(*obj, "inc", {10, 20, 30, 40, 50, 60});
      m.ret(0);
    }
    nargs = checker.recorder().calls().back().nargs;
    a2 = checker.recorder().calls().back().arg(2);
  });
  checker.detach();
  EXPECT_EQ(nargs, spec::CallRecord::kMaxArgs);
  EXPECT_EQ(a2, 30);
}

TEST(Annotations, ObjectsCheckedIndependently) {
  // Composability (Theorem 1): a violation on one object is reported even
  // when another object's calls are all fine, and counts once.
  RunResult r = run_with_spec([](mc::Exec& x) {
    auto* good = x.make<spec::Object>(pair_spec());
    auto* bad = x.make<spec::Object>(pair_spec());
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    {
      spec::Method m(*good, "inc");
      flag->store(1, MemoryOrder::release);
      m.op_define();
    }
    {
      spec::Method m(*good, "get");
      (void)flag->load(MemoryOrder::acquire);
      m.op_define();
      m.ret(1);  // correct
    }
    {
      spec::Method m(*bad, "get");
      (void)flag->load(MemoryOrder::acquire);
      m.op_define();
      m.ret(99);  // wrong: this object's counter is 0
    }
  });
  EXPECT_TRUE(r.detected_assertion());
  ASSERT_FALSE(r.reports.empty());
  EXPECT_NE(r.reports[0].find("get()=99"), std::string::npos);
}

TEST(Annotations, SpecLineAccounting) {
  spec::Specification sp("Counting");
  EXPECT_EQ(sp.spec_lines(), 0);
  sp.state<std::int64_t>();
  EXPECT_EQ(sp.spec_lines(), 1);
  sp.method("a").side_effect([](Ctx&) {}).post([](Ctx&) { return true; });
  EXPECT_EQ(sp.spec_lines(), 3);
  sp.admit("a", "a", [](const spec::CallRecord&, const spec::CallRecord&) {
    return false;
  });
  EXPECT_EQ(sp.spec_lines(), 4);
  EXPECT_EQ(sp.admissibility_lines(), 1);
  sp.note_op_site("op_define", "x.cc", 10);
  sp.note_op_site("op_define", "x.cc", 10);  // duplicate: one site
  sp.note_op_site("op_define", "x.cc", 20);
  EXPECT_EQ(sp.ordering_point_sites(), 2);
  EXPECT_EQ(sp.spec_lines(), 6);
}

// Op-site accounting is keyed on (kind, file pointer, line) with the
// `kind@file:line` string as the identity: a site seen again counts once,
// even through a second copy of its file name, while two kinds on one line
// are two sites.
TEST(Annotations, OpSiteCountsEachSiteOnce) {
  spec::Specification sp("Sites");
  static const char kFile[] = "ds.cc";
  const std::string same_name = kFile;  // same file name, other address
  sp.note_op_site("op_define", kFile, 7);
  sp.note_op_site("op_define", kFile, 7);
  EXPECT_EQ(sp.ordering_point_sites(), 1);
  sp.note_op_site("op_define", same_name.c_str(), 7);
  EXPECT_EQ(sp.ordering_point_sites(), 1);
  sp.note_op_site("op_check", kFile, 7);
  EXPECT_EQ(sp.ordering_point_sites(), 2);
  sp.note_op_site("op_check", kFile, 8);
  EXPECT_EQ(sp.ordering_point_sites(), 3);
}

// Re-running annotated code execution after execution must not add sites:
// each textual annotation counts once however often it fires.
TEST(Annotations, OpSitesStayFlatAcrossExecutions) {
  static spec::Specification* sp = [] {
    auto* s = new spec::Specification("SitesFlat");
    s->state<std::int64_t>();
    s->method("inc").side_effect([](Ctx& c) { ++c.st<std::int64_t>(); });
    return s;
  }();
  spec::SpecChecker checker;
  mc::Engine e;
  checker.attach(e);
  auto body = [](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(*sp);
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    spec::Method m(*obj, "inc");
    flag->store(1, MemoryOrder::release);
    m.potential_op(1);
    m.op_check(1);
    m.op_clear();
    m.op_clear_define();
    m.op_define();
  };
  std::uint64_t executions = 0;
  for (int i = 0; i < 1000; ++i) executions += e.explore(body).executions;
  checker.detach();
  EXPECT_EQ(executions, 1000u);
  EXPECT_EQ(checker.stats().executions_checked, 1000u);
  EXPECT_EQ(sp->ordering_point_sites(), 5);
}

TEST(Annotations, MethodRegistrationIdempotent) {
  spec::Specification sp("Idem");
  spec::MethodSpec& a1 = sp.method("a");
  spec::MethodSpec& a2 = sp.method("a");
  EXPECT_EQ(&a1, &a2);
  EXPECT_EQ(sp.method_count(), 1);
  EXPECT_EQ(sp.method_index("a"), 0);
  EXPECT_EQ(sp.method_index("zzz"), -1);
}

TEST(Annotations, InactiveWithoutChecker) {
  // Annotated code must run unchanged under a plain engine.
  mc::Engine e;
  auto stats = e.explore([](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(pair_spec());
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    spec::Method m(*obj, "get");
    (void)flag->load(MemoryOrder::acquire);
    m.op_define();
    m.ret(1);
  });
  EXPECT_EQ(stats.feasible, 1u);
  EXPECT_EQ(stats.violations_total, 0u);
}

TEST(Render, DotContainsNodesAndEdges) {
  spec::SpecChecker checker;
  mc::Engine e;
  checker.attach(e);
  std::string dot;
  e.explore([&](mc::Exec& x) {
    auto* obj = x.make<spec::Object>(pair_spec());
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    {
      spec::Method m(*obj, "inc", {3});
      flag->store(1, MemoryOrder::release);
      m.op_define();
    }
    {
      spec::Method m(*obj, "get");
      (void)flag->load(MemoryOrder::acquire);
      m.op_define();
      m.ret(1);
    }
    dot = spec::render_dot(checker.recorder().calls());
  });
  checker.detach();
  EXPECT_NE(dot.find("digraph r_relation"), std::string::npos);
  EXPECT_NE(dot.find("inc(3)"), std::string::npos);
  EXPECT_NE(dot.find("get()=1"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos)
      << "inc must be r-ordered before get:\n"
      << dot;
}

}  // namespace
}  // namespace cds
