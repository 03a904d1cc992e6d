// Test helpers over the stats and config tables (mc/stats.h,
// mc/config.h, spec/checker.h): fill every row generically and compare two
// structs row by row, so a test covers a new row with no edit.
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

// Every row moved off its default, each number distinct: booleans
// negated, enumerations to their second value (or first, if that is the
// default), numbers to 100 + row index, seconds to row + 0.25.
template <class S>
S non_default_fields() {
  S s;
  std::uint64_t k = 0;
  S::each(s, [&](const char*, auto& v) {
    using T = std::remove_reference_t<decltype(v)>;
    using support::to_wire;
    ++k;
    if constexpr (std::is_same_v<T, bool>) {
      v = !v;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(to_wire(v) == 1 ? 0 : 1);
    } else if constexpr (std::is_same_v<T, double>) {
      v = static_cast<double>(k) + 0.25;
    } else {
      v = static_cast<T>(100 + k);
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
