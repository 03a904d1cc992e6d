// Existential specification check over one observed history.
//
// The model checker's SpecChecker (spec/checker.h) enumerates sequential
// histories of an execution and reports a violation when ANY topological
// order of the r relation fails — universal semantics, justified by the
// engine enumerating every execution, so a spurious order on one execution
// is a real order on another.
//
// The stress backend (harness/stress_backend.h) observes a single hardware
// schedule per iteration, and its r relation is only the real-time interval
// order (spec/call.h: rt_begin/rt_end) — a sound under-approximation that
// lacks the reads-from-derived edges the model tracks. Under-ordering means
// extra topological orders that no C/C++11 execution justifies, so the
// universal check would report false violations. This header provides the
// dual, sound-for-stress semantics: the observed history is a violation
// only when the enumeration COMPLETED (no cap) and NO order passes — i.e.
// no linearization of what actually happened satisfies the specification.
// Admissibility checks are skipped: they reason about which concurrent
// usages the spec forbids, which requires the model's precise r relation.
#ifndef CDS_SPEC_OBSERVED_H
#define CDS_SPEC_OBSERVED_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "spec/call.h"

namespace cds::spec {

struct ObservedCheckResult {
  // Set only when some object's call set has no passing order and the
  // order enumeration for it was exhaustive.
  bool violation = false;
  std::string detail;
  // Some object hit the enumeration cap without a passing order: the
  // iteration is unresolved (never a violation).
  bool capped = false;
  std::uint64_t histories_checked = 0;
};

// Checks every object's calls within one iteration's committed records.
// `max_histories` caps the per-object topological-order enumeration.
[[nodiscard]] ObservedCheckResult check_observed_calls(
    std::span<const CallRecord> calls, std::uint64_t max_histories);

}  // namespace cds::spec

#endif  // CDS_SPEC_OBSERVED_H
