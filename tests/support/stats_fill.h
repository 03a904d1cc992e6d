// Test helpers over the stats tables (mc/stats.h, spec/checker.h): fill
// every row generically and compare two structs row by row, so a test
// covers a new row with no edit.
#ifndef CDS_TESTS_SUPPORT_STATS_FILL_H
#define CDS_TESTS_SUPPORT_STATS_FILL_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mc/stats.h"
#include "spec/checker.h"
#include "support/kv.h"

namespace cds::testing_support {

// Row k (1-based) of pass p: counters 1000*(p+1)+k, seconds (100p+k)/2,
// booleans bit p of k, verdicts (k+p) mod 3. Counters differ between rows
// and passes; any two boolean rows differ in some pass 0..4, so a
// permuted key shows up in one of the passes.
template <class S>
S distinct_fields(std::uint64_t pass) {
  S s;
  std::uint64_t k = 0;
  S::each(s, [&](const char*, auto& v) {
    using T = std::remove_reference_t<decltype(v)>;
    ++k;
    if constexpr (std::is_same_v<T, bool>) {
      v = ((k >> pass) & 1) != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      v = static_cast<double>(100 * pass + k) / 2;
    } else if constexpr (std::is_same_v<T, mc::Verdict>) {
      v = static_cast<mc::Verdict>((k + pass) % 3);
    } else {
      v = 1000 * (pass + 1) + k;
    }
  });
  return s;
}

// Every row as (wire key, wire value), in table order.
template <class S>
std::vector<std::pair<std::string, std::uint64_t>> rows(const S& s) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  S::each(s, [&](const char* key, const auto& v) {
    using support::to_wire;
    out.emplace_back(key, to_wire(v));
  });
  return out;
}

}  // namespace cds::testing_support

#endif  // CDS_TESTS_SUPPORT_STATS_FILL_H
