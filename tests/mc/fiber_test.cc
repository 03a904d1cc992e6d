// Direct tests of the cooperative fiber substrate.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <vector>

#include "fiber/fiber.h"

namespace cds::fiber {
namespace {

TEST(Fiber, PingPong) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  std::vector<int> log;
  f->reset([&] {
    log.push_back(1);
    sched.switch_to(*f);
    log.push_back(3);
    f->mark_finished();
    sched.switch_to(*f);
  });
  f->switch_to(sched);
  log.push_back(2);
  f->switch_to(sched);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f->finished());
}

TEST(Fiber, ResetReusesStack) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  int runs = 0;
  for (int i = 0; i < 3; ++i) {
    f->reset([&] {
      ++runs;
      f->mark_finished();
      sched.switch_to(*f);
    });
    EXPECT_TRUE(f->armed());
    EXPECT_FALSE(f->finished());
    f->switch_to(sched);
    EXPECT_TRUE(f->finished());
  }
  EXPECT_EQ(runs, 3);
}

TEST(Fiber, ManyFibersRoundRobin) {
  Fiber sched;
  sched.init_native();
  constexpr int kN = 8;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) fibers.push_back(std::make_unique<Fiber>());
  for (int i = 0; i < kN; ++i) {
    Fiber* self = fibers[static_cast<std::size_t>(i)].get();
    self->reset([&, i, self] {
      order.push_back(i);
      sched.switch_to(*self);  // yield once
      order.push_back(i + 100);
      self->mark_finished();
      sched.switch_to(*self);
    });
  }
  for (auto& f : fibers) f->switch_to(sched);  // first leg
  for (auto& f : fibers) f->switch_to(sched);  // second leg
  ASSERT_EQ(order.size(), 2u * kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order[static_cast<std::size_t>(kN + i)], i + 100);
  }
}

TEST(Fiber, DeepStackUse) {
  // Fibers must tolerate a reasonable amount of stack (recursion depth).
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  long sum = 0;
  struct Rec {
    static long go(int n) {
      char pad[512];
      pad[0] = static_cast<char>(n);
      if (n == 0) return pad[0];
      return pad[0] + go(n - 1);
    }
  };
  f->reset([&] {
    sum = Rec::go(100);
    f->mark_finished();
    sched.switch_to(*f);
  });
  f->switch_to(sched);
  EXPECT_EQ(sum, 5050);
}

// A fallthrough handler lets an entry wrapper that returns (instead of
// switching out) be recovered rather than aborting the process.
Fiber* g_fallthrough_sched = nullptr;
int g_fallthrough_hits = 0;

TEST(Fiber, FallthroughHandlerRecovers) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  g_fallthrough_sched = &sched;
  g_fallthrough_hits = 0;
  Fiber::set_fallthrough_handler([](Fiber& offender) {
    ++g_fallthrough_hits;
    offender.mark_finished();
    g_fallthrough_sched->switch_to(offender);  // must not return
  });
  f->reset([] { /* returns without mark_finished + switch */ });
  f->switch_to(sched);
  EXPECT_EQ(g_fallthrough_hits, 1);
  EXPECT_TRUE(f->finished());
  Fiber::set_fallthrough_handler(nullptr);  // Engine reinstalls its own
}

// The switch hand-builds each fiber's first frame, so the entry function
// must still see the alignment a call gives: a 16-byte-aligned frame and
// correctly aligned over-aligned locals, on a fresh and on a reset fiber.
TEST(Fiber, EntryFrameIsAligned) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  for (int run = 0; run < 2; ++run) {
    std::uintptr_t frame = 1;
    std::uintptr_t local = 1;
    f->reset([&] {
      alignas(32) volatile char buf[32];
      buf[0] = 0;
      frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      local = reinterpret_cast<std::uintptr_t>(&buf[0]);
      f->mark_finished();
      sched.switch_to(*f);
    });
    f->switch_to(sched);
    EXPECT_EQ(frame % 16, 0u) << "run " << run;
    EXPECT_EQ(local % 32, 0u) << "run " << run;
  }
}

// Six values live across a switch on each side, more than the caller-saved
// registers that survive a call, so at -O2 both sides keep them in
// callee-saved registers; a switch that drops one hands the other side's
// value back.
[[gnu::noinline]] std::uint64_t hold_across_switch(Fiber& to, Fiber& from,
                                                   std::uint64_t seed) {
  volatile std::uint64_t src = seed;
  std::uint64_t a = src * 3, b = src * 5, c = src * 7, d = src * 11,
                e = src * 13, g = src * 17;
  // Opaque to the optimiser on both sides of the switch, so the six values
  // themselves (not `src`, to recompute them from) stay live across it.
  asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(g));
  to.switch_to(from);
  asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(g));
  const bool kept = a == seed * 3 && b == seed * 5 && c == seed * 7 &&
                    d == seed * 11 && e == seed * 13 && g == seed * 17;
  return kept ? 0 : 1;
}

TEST(Fiber, CalleeSavedRegistersSurviveSwitches) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  std::uint64_t fiber_lost = 0;
  f->reset([&] {
    for (std::uint64_t i = 0; i < 4; ++i) {
      fiber_lost += hold_across_switch(sched, *f, 0x1111 + i);
    }
    f->mark_finished();
    sched.switch_to(*f);
  });
  std::uint64_t sched_lost = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    sched_lost += hold_across_switch(*f, sched, 0x7777 + i);
  }
  EXPECT_TRUE(f->finished());
  EXPECT_EQ(fiber_lost, 0u);
  EXPECT_EQ(sched_lost, 0u);
}

// One division through SSE and one through the x87 unit: each follows the
// rounding mode of the control register it reads (MXCSR or the x87 control
// word), and 1/3 is inexact, so upward and downward results differ.
[[gnu::noinline]] double third() {
  volatile double one = 1.0, three = 3.0;
  return one / three;
}
[[gnu::noinline]] long double third_x87() {
  volatile long double one = 1.0L, three = 3.0L;
  return one / three;
}

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  int fiber_mode = -1;
  bool fiber_sse_kept = false;
  bool fiber_x87_kept = false;
  f->reset([&] {
    std::fesetround(FE_UPWARD);
    const double up = third();
    const long double up_x87 = third_x87();
    sched.switch_to(*f);  // the scheduler resumes us in FE_DOWNWARD
    fiber_mode = std::fegetround();
    fiber_sse_kept = third() == up;
    fiber_x87_kept = third_x87() == up_x87;
    f->mark_finished();
    sched.switch_to(*f);
  });
  f->switch_to(sched);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "fiber's mode leaked out";
  std::fesetround(FE_DOWNWARD);
  const double down = third();
  const long double down_x87 = third_x87();
  f->switch_to(sched);
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  EXPECT_EQ(third(), down);
  EXPECT_EQ(third_x87(), down_x87);
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(fiber_mode, FE_UPWARD) << "scheduler's mode leaked in";
  EXPECT_TRUE(fiber_sse_kept);
  EXPECT_TRUE(fiber_x87_kept);
}

}  // namespace
}  // namespace cds::fiber
