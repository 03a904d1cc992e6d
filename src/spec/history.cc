#include "spec/history.h"

#include <algorithm>

#include "support/rng.h"

namespace cds::spec {

void build_r_edges(const std::vector<const CallRecord*>& calls,
                   std::vector<std::vector<int>>& succ) {
  const int n = static_cast<int>(calls.size());
  if (succ.size() < calls.size()) succ.resize(calls.size());
  for (std::vector<int>& row : succ) row.clear();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      if (call_r_before(*calls[static_cast<std::size_t>(i)],
                        *calls[static_cast<std::size_t>(j)])) {
        succ[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
}

namespace {

// Enumeration storage, one per OS thread, reused across calls so that an
// enumeration allocates only when a history outgrows every earlier one. A
// callback that enumerates again finds it busy and uses a fresh one.
struct TopoScratch {
  std::vector<int> indeg;
  std::vector<const CallRecord*> order;
  // The available sets of every level on the current recursion path, each
  // a contiguous segment in increasing node-index order, deepest last.
  std::vector<int> avail;
  bool busy = false;
};

thread_local TopoScratch t_scratch;

struct TopoCtx {
  const std::vector<const CallRecord*>* calls;
  const std::vector<std::vector<int>>* succ;
  TopoScratch* s;
  std::uint64_t cap;
  TopoResult res;
  OrderFn cb;
};

// All-topological-sorts backtracking with an explicit available-set: each
// level receives the sorted list of indeg-0 nodes (the segment
// [begin, end) of s->avail) instead of rescanning all n indegrees per level
// (the old O(n)-per-level scan dominated on long histories where only a
// couple of calls are ever available at once). The set is kept in
// increasing node-index order, which is exactly the order the old full
// scan visited candidates in, so the stream of emitted orders is
// bit-for-bit identical.
bool topo_rec(TopoCtx& c, std::size_t begin, std::size_t end) {
  const std::size_t n = c.calls->size();
  std::vector<int>& indeg = c.s->indeg;
  std::vector<const CallRecord*>& order = c.s->order;
  std::vector<int>& avail = c.s->avail;
  if (order.size() == n) {
    ++c.res.count;
    if (!c.cb(order)) {
      c.res.stopped = true;
      return false;
    }
    if (c.res.count >= c.cap) {
      c.res.capped = true;
      return false;
    }
    return true;
  }
  if (begin == end) {
    c.res.cycle = true;  // nodes remain but every one has a predecessor left
    return true;
  }
  for (std::size_t vi = begin; vi < end; ++vi) {
    const int v = avail[vi];
    const std::vector<int>& out = (*c.succ)[static_cast<std::size_t>(v)];
    for (int w : out) --indeg[static_cast<std::size_t>(w)];
    order.push_back((*c.calls)[static_cast<std::size_t>(v)]);

    // Child set = avail \ {v} ∪ successors that just became available,
    // merged in index order, as the segment after this level's. Indices,
    // not iterators: appending may reallocate.
    const std::size_t child = avail.size();
    for (std::size_t ui = begin; ui < end; ++ui) {
      if (ui != vi) avail.push_back(avail[ui]);
    }
    for (int w : out) {
      if (indeg[static_cast<std::size_t>(w)] == 0) {
        const auto first = avail.begin() + static_cast<std::ptrdiff_t>(child);
        avail.insert(std::lower_bound(first, avail.end(), w), w);
      }
    }

    bool keep = topo_rec(c, child, avail.size());

    avail.resize(child);
    order.pop_back();
    for (int w : out) ++indeg[static_cast<std::size_t>(w)];
    if (!keep) return false;
  }
  return true;
}

void initial_indegree(const std::vector<std::vector<int>>& succ,
                      std::vector<int>& indeg) {
  indeg.assign(succ.size(), 0);
  for (const auto& edges : succ) {
    for (int w : edges) ++indeg[static_cast<std::size_t>(w)];
  }
}

}  // namespace

TopoResult for_each_topo_order(const std::vector<const CallRecord*>& calls,
                               const std::vector<std::vector<int>>& succ,
                               std::uint64_t cap, OrderFn cb) {
  TopoScratch nested;
  TopoScratch& s = t_scratch.busy ? nested : t_scratch;
  s.busy = true;
  initial_indegree(succ, s.indeg);
  s.order.clear();
  s.avail.clear();
  for (int v = 0; v < static_cast<int>(calls.size()); ++v) {
    if (s.indeg[static_cast<std::size_t>(v)] == 0) s.avail.push_back(v);
  }
  TopoCtx c{&calls, &succ, &s, cap == 0 ? UINT64_MAX : cap, {}, cb};
  topo_rec(c, 0, s.avail.size());
  s.busy = false;
  return c.res;
}

TopoResult sample_topo_orders(const std::vector<const CallRecord*>& calls,
                              const std::vector<std::vector<int>>& succ,
                              std::uint64_t n, std::uint64_t seed,
                              OrderFn cb) {
  TopoResult res;
  support::Xorshift64 rng(seed);
  const int size = static_cast<int>(calls.size());
  std::vector<int> indeg0;
  initial_indegree(succ, indeg0);
  std::vector<const CallRecord*> order;
  order.reserve(calls.size());
  for (std::uint64_t s = 0; s < n; ++s) {
    std::vector<int> indeg = indeg0;
    order.clear();
    for (int step = 0; step < size; ++step) {
      int avail[256];
      int na = 0;
      for (int v = 0; v < size; ++v) {
        if (indeg[static_cast<std::size_t>(v)] == 0 && na < 256) avail[na++] = v;
      }
      if (na == 0) {
        res.cycle = true;
        return res;
      }
      int v = avail[rng.below(static_cast<std::uint64_t>(na))];
      indeg[static_cast<std::size_t>(v)] = -1;
      for (int w : succ[static_cast<std::size_t>(v)]) --indeg[static_cast<std::size_t>(w)];
      order.push_back(calls[static_cast<std::size_t>(v)]);
    }
    ++res.count;
    if (!cb(order)) {
      res.stopped = true;
      return res;
    }
  }
  return res;
}

}  // namespace cds::spec
