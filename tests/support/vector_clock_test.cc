// Differential test of the inline-buffer clock against a std::vector
// reference. BasicClock stores up to kInline entries inline and spills to
// the heap beyond; every lattice operation, copy, move and assignment must
// behave exactly like the plain vector-backed clock it replaced, in both
// directions across the inline/spilled boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/vector_clock.h"

namespace cds {
namespace {

using Clock = support::VectorClock;
constexpr std::size_t kInline = Clock::kInline;

// The reference: the vector-backed clock semantics, spelled out.
struct Ref {
  std::vector<std::uint32_t> c;

  std::uint32_t get(std::size_t i) const { return i < c.size() ? c[i] : 0u; }
  void grow(std::size_t i) {
    if (i >= c.size()) c.resize(i + 1, 0u);
  }
  void set(std::size_t i, std::uint32_t v) { grow(i), c[i] = v; }
  void raise(std::size_t i, std::uint32_t v) { grow(i), c[i] = std::max(c[i], v); }
  void bump(std::size_t i) { grow(i), ++c[i]; }
  void join(const Ref& o) {
    if (o.c.size() > c.size()) c.resize(o.c.size(), 0u);
    for (std::size_t i = 0; i < o.c.size(); ++i) c[i] = std::max(c[i], o.c[i]);
  }
  bool leq(const Ref& o) const {
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c[i] > o.get(i)) return false;
    }
    return true;
  }
  bool empty() const {
    return std::all_of(c.begin(), c.end(), [](std::uint32_t v) { return v == 0; });
  }
};

void expect_same(const Clock& k, const Ref& r, const char* what) {
  ASSERT_EQ(k.stored_size(), r.c.size()) << what;
  for (std::size_t i = 0; i < 3 * kInline; ++i) {
    ASSERT_EQ(k.get(i), r.get(i)) << what << " index " << i;
  }
  ASSERT_EQ(k.empty(), r.empty()) << what;
  if (k.stored_size() > kInline) {
    ASSERT_GE(k.heap_bytes(), k.stored_size() * sizeof(std::uint32_t)) << what;
  }
}

// Indices straddle the inline capacity so clocks keep crossing it.
std::size_t pick_index(support::Xorshift64& rng) {
  return rng.below(4) == 0 ? rng.below(3 * kInline) : rng.below(kInline + 2);
}

TEST(ClockStorage, RandomOpsMatchVectorReference) {
  constexpr std::size_t kClocks = 6;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    support::Xorshift64 rng(seed);
    std::vector<Clock> ks(kClocks);
    std::vector<Ref> rs(kClocks);
    for (int step = 0; step < 20000; ++step) {
      const std::size_t a = rng.below(kClocks);
      const std::size_t b = rng.below(kClocks);
      const auto v = static_cast<std::uint32_t>(rng.below(50));
      const char* what = "?";
      switch (rng.below(11)) {
        case 0: {
          const std::size_t i = pick_index(rng);
          ks[a].set(i, v), rs[a].set(i, v), what = "set";
          break;
        }
        case 1: {
          const std::size_t i = pick_index(rng);
          ks[a].raise(i, v), rs[a].raise(i, v), what = "raise";
          break;
        }
        case 2: {
          const std::size_t i = pick_index(rng);
          ks[a].bump(i), rs[a].bump(i), what = "bump";
          break;
        }
        case 3:
          ks[a].join(ks[b]), rs[a].join(rs[b]), what = "join";
          break;
        case 4:
          ks[a].clear(), rs[a].c.clear(), what = "clear";
          break;
        case 5:
          ks[a] = ks[b], rs[a] = rs[b], what = "copy-assign";
          break;
        case 6: {
          Clock tmp(ks[b]);  // copy-construct, then move-assign
          ks[a] = std::move(tmp);
          rs[a] = rs[b];
          what = "move-assign";
          // A moved-from clock is empty and fully usable.
          ASSERT_EQ(tmp.stored_size(), 0u);
          tmp.set(kInline + 1, 3);
          ASSERT_EQ(tmp.get(kInline + 1), 3u);
          break;
        }
        case 7: {
          Clock tmp(ks[b]);
          Clock moved(std::move(tmp));  // move-construct
          ASSERT_EQ(tmp.stored_size(), 0u);
          ks[a] = moved;
          rs[a] = rs[b];
          what = "move-construct";
          break;
        }
        case 8: {
          Clock& self = ks[a];
          self = ks[a];  // self-assignment keeps the value
          what = "self-assign";
          break;
        }
        case 9:
          ASSERT_EQ(ks[a].leq(ks[b]), rs[a].leq(rs[b])) << "leq";
          ASSERT_EQ(ks[a] == ks[b], rs[a].leq(rs[b]) && rs[b].leq(rs[a]))
              << "==";
          what = "compare";
          break;
        case 10: {
          const std::size_t i = pick_index(rng);
          ASSERT_EQ(ks[a].includes(i, v), rs[a].get(i) >= v) << "includes";
          what = "includes";
          break;
        }
      }
      for (std::size_t k = 0; k < kClocks; ++k) {
        expect_same(ks[k], rs[k], what);
        if (::testing::Test::HasFatalFailure()) {
          FAIL() << "seed " << seed << " step " << step << " after " << what;
        }
      }
    }
  }
}

TEST(ClockStorage, CrossesTheInlineBoundaryBothWays) {
  Clock small;
  small.set(2, 7);
  Clock big;
  big.set(3 * kInline, 9);  // spilled
  big.set(1, 4);
  ASSERT_GT(big.heap_bytes(), 0u);
  ASSERT_EQ(small.heap_bytes(), 0u);

  // inline <- spilled (copy): the target spills, the source is unchanged.
  Clock a(small);
  a = big;
  EXPECT_TRUE(a == big);
  EXPECT_GT(a.heap_bytes(), 0u);

  // spilled <- inline (copy): the value shrinks, the storage is kept.
  a = small;
  EXPECT_TRUE(a == small);
  EXPECT_EQ(a.stored_size(), small.stored_size());
  EXPECT_EQ(a.get(3 * kInline), 0u);
  EXPECT_GT(a.heap_bytes(), 0u);

  // inline <- spilled (move): the target takes the heap block.
  Clock b(small);
  Clock big_copy(big);
  b = std::move(big_copy);
  EXPECT_TRUE(b == big);
  EXPECT_EQ(big_copy.stored_size(), 0u);
  EXPECT_EQ(big_copy.heap_bytes(), 0u);

  // spilled <- inline (move): the value is copied in.
  Clock small_copy(small);
  b = std::move(small_copy);
  EXPECT_TRUE(b == small);

  // clear keeps spilled storage for reuse; join regrows within it.
  Clock c(big);
  const std::size_t held = c.heap_bytes();
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.stored_size(), 0u);
  EXPECT_EQ(c.heap_bytes(), held);
  c.join(big);
  EXPECT_TRUE(c == big);
  EXPECT_EQ(c.heap_bytes(), held);

  // Timestamps report the spilled bytes of both lattices.
  support::Timestamps ts;
  EXPECT_EQ(ts.heap_bytes(), 0u);
  ts.vc = big;
  ts.view.set(3 * kInline, 1);
  EXPECT_EQ(ts.heap_bytes(), ts.vc.heap_bytes() + ts.view.heap_bytes());
  EXPECT_GT(ts.view.heap_bytes(), 0u);
}

}  // namespace
}  // namespace cds
