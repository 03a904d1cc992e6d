// Sequential-history generation: enumerating (and sampling) the topological
// orders of the method-call graph induced by the `r` relation
// (paper Section 5.2 "Generating and Checking Sequential Histories").
#ifndef CDS_SPEC_HISTORY_H
#define CDS_SPEC_HISTORY_H

#include <cstdint>
#include <vector>

#include "spec/call.h"
#include "support/function_ref.h"

namespace cds::spec {

struct TopoResult {
  std::uint64_t count = 0;  // orders delivered to the callback
  bool capped = false;      // enumeration stopped at the cap
  bool cycle = false;       // edges were cyclic (no valid history)
  bool stopped = false;     // callback requested early stop
};

// Receives each order; returns false to stop the enumeration.
using OrderFn = support::FunctionRef<bool(const std::vector<const CallRecord*>&)>;

// Direct `r` edges among `calls` (indices into the vector): afterwards
// succ[i] holds j iff calls[i] r-> calls[j], for every i < calls.size().
// Fills `succ` in place so a caller that keeps it reuses the rows' storage;
// it never shrinks, and rows at or past calls.size() are left empty.
void build_r_edges(const std::vector<const CallRecord*>& calls,
                   std::vector<std::vector<int>>& succ);

// Invokes `cb` with every topological order of `calls` under `succ`, up to
// `cap` orders. `cb` returns false to stop early. Here and below, `succ`
// needs a row per call; extra rows must be empty, as build_r_edges leaves
// them.
TopoResult for_each_topo_order(const std::vector<const CallRecord*>& calls,
                               const std::vector<std::vector<int>>& succ,
                               std::uint64_t cap, OrderFn cb);

// Draws `n` uniformly-step-random topological orders (the paper's
// random-sampling option for executions whose history count explodes).
TopoResult sample_topo_orders(const std::vector<const CallRecord*>& calls,
                              const std::vector<std::vector<int>>& succ,
                              std::uint64_t n, std::uint64_t seed, OrderFn cb);

}  // namespace cds::spec

#endif  // CDS_SPEC_HISTORY_H
