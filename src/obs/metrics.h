// Observability registry: zero-dependency counters / gauges / timers /
// power-of-two histograms for the exploration pipeline.
//
// Design rules:
//  - The hot path is a single add through a cached pointer: callers look
//    up `Counter*` once (registration is a map insert) and then bump it
//    with `c->add()`, which compiles to one memory add. No atomics — the
//    engine is single-threaded per process; cross-process aggregation
//    happens via the shard wire format (render_wire/parse_wire_line).
//  - Metric kinds encode merge semantics. Counters and histograms must be
//    *schedule-independent* (pure functions of the explored execution
//    set): they merge by summation and the sharded merge of an exhaustive
//    run is bit-identical to a serial run. Wall-clock and topology-
//    dependent quantities (per-worker throughput, peak footprints, probe
//    counts) go in timers and gauges, which merge by sum / max and are
//    excluded from that determinism contract.
//  - Snapshots are deterministic: names are kept sorted (std::map), so
//    to_json() / render_wire() emit a canonical byte stream for equal
//    registry contents.
#ifndef CDS_OBS_METRICS_H
#define CDS_OBS_METRICS_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "support/kv.h"

namespace cds::obs {

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

// Merge-by-max scalar (peaks, sizes, topology facts).
struct Gauge {
  std::uint64_t value = 0;
  void set(std::uint64_t v) { value = v; }
  void set_max(std::uint64_t v) {
    if (v > value) value = v;
  }
};

// Accumulated wall-clock nanoseconds + sample count.
struct Timer {
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
  void add_ns(std::uint64_t ns) {
    total_ns += ns;
    ++count;
  }
  [[nodiscard]] double total_seconds() const {
    return static_cast<double>(total_ns) * 1e-9;
  }
};

// Power-of-two histogram: bucket 0 holds value 0, bucket k (k >= 1) holds
// values in [2^(k-1), 2^k). 32 buckets cover the full uint32 range and
// beyond (the last bucket absorbs the tail).
struct Histogram {
  static constexpr std::size_t kBuckets = 32;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t samples = 0;

  static std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    std::size_t b = 1;
    while (v > 1 && b + 1 < kBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  void record(std::uint64_t v) {
    ++buckets[bucket_of(v)];
    ++samples;
  }
};

class Registry {
 public:
  // Lookup-or-create. References are stable for the registry's lifetime
  // (std::map nodes never move), so callers cache the pointer once and
  // bump through it on the hot path.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Timer& timer(const std::string& name) { return timers_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Timer>& timers() const {
    return timers_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value;
  }

  // Counters/histograms/timers sum, gauges take the max. Merging is
  // commutative and associative for every kind, so shard merge order
  // cannot perturb the snapshot.
  void merge(const Registry& other) {
    for (const auto& [name, c] : other.counters_) counters_[name].value += c.value;
    for (const auto& [name, g] : other.gauges_) gauges_[name].set_max(g.value);
    for (const auto& [name, t] : other.timers_) {
      Timer& mine = timers_[name];
      mine.total_ns += t.total_ns;
      mine.count += t.count;
    }
    for (const auto& [name, h] : other.histograms_) {
      Histogram& mine = histograms_[name];
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
        mine.buckets[i] += h.buckets[i];
      mine.samples += h.samples;
    }
  }

  void clear() {
    counters_.clear();
    gauges_.clear();
    timers_.clear();
    histograms_.clear();
  }

  // Canonical JSON snapshot ("cdsspec-metrics-v1"): four sections keyed by
  // sorted metric name. Histogram buckets are emitted with trailing zero
  // buckets trimmed. Two registries with equal contents render the same
  // bytes regardless of registration order.
  [[nodiscard]] std::string to_json() const {
    std::string out;
    out += "{\n  \"schema\": \"cdsspec-metrics-v1\",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      append_key(&out, &first, name);
      append_u64(&out, c.value);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
      append_key(&out, &first, name);
      append_u64(&out, g.value);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"timers_ns\": {";
    first = true;
    for (const auto& [name, t] : timers_) {
      append_key(&out, &first, name);
      out += "{\"total_ns\": ";
      append_u64(&out, t.total_ns);
      out += ", \"count\": ";
      append_u64(&out, t.count);
      out += "}";
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
      append_key(&out, &first, name);
      out += "{\"samples\": ";
      append_u64(&out, h.samples);
      out += ", \"buckets\": [";
      std::size_t last = Histogram::kBuckets;
      while (last > 0 && h.buckets[last - 1] == 0) --last;
      for (std::size_t i = 0; i < last; ++i) {
        if (i) out += ", ";
        append_u64(&out, h.buckets[i]);
      }
      out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
  }

  // Line-oriented wire form for the shard-result protocol: one metric per
  // line, `c <name> <v>` / `g <name> <v>` / `t <name> <total_ns> <count>` /
  // `h <name> <samples> <b0> <b1> ...` (trailing zero buckets trimmed).
  // Metric names never contain whitespace.
  [[nodiscard]] std::vector<std::string> render_wire() const {
    std::vector<std::string> lines;
    char buf[64];
    for (const auto& [name, c] : counters_) {
      std::snprintf(buf, sizeof buf, " %llu",
                    static_cast<unsigned long long>(c.value));
      lines.push_back("c " + name + buf);
    }
    for (const auto& [name, g] : gauges_) {
      std::snprintf(buf, sizeof buf, " %llu",
                    static_cast<unsigned long long>(g.value));
      lines.push_back("g " + name + buf);
    }
    for (const auto& [name, t] : timers_) {
      std::snprintf(buf, sizeof buf, " %llu %llu",
                    static_cast<unsigned long long>(t.total_ns),
                    static_cast<unsigned long long>(t.count));
      lines.push_back("t " + name + buf);
    }
    for (const auto& [name, h] : histograms_) {
      std::string line = "h " + name;
      std::snprintf(buf, sizeof buf, " %llu",
                    static_cast<unsigned long long>(h.samples));
      line += buf;
      std::size_t last = Histogram::kBuckets;
      while (last > 0 && h.buckets[last - 1] == 0) --last;
      for (std::size_t i = 0; i < last; ++i) {
        std::snprintf(buf, sizeof buf, " %llu",
                      static_cast<unsigned long long>(h.buckets[i]));
        line += buf;
      }
      lines.push_back(line);
    }
    return lines;
  }

  // Parses one render_wire() line into this registry (overwriting any
  // existing metric of that name). Returns false on malformed input with
  // the reason (and the offending token's position) in *err; a rejected
  // line never modifies the registry — every value is validated into
  // locals before anything is committed, so an adversarial line cannot
  // leave a half-written histogram or timer behind.
  bool parse_wire_line(const std::string& line, std::string* err) {
    std::vector<std::string> tok = split_ws(line);
    auto fail = [&](const char* why, std::size_t token_index) {
      if (err) {
        *err = std::string(why) + " at token " + std::to_string(token_index) +
               ": '" + line + "'";
      }
      return false;
    };
    if (tok.size() < 3) return fail("short metric line", tok.size());
    std::uint64_t v0 = 0;
    if (!support::parse_u64(tok[2], &v0)) return fail("bad metric value", 2);
    if (tok[0] == "c" && tok.size() == 3) {
      counters_[tok[1]].value = v0;
    } else if (tok[0] == "g" && tok.size() == 3) {
      gauges_[tok[1]].value = v0;
    } else if (tok[0] == "t" && tok.size() == 4) {
      std::uint64_t cnt = 0;
      if (!support::parse_u64(tok[3], &cnt)) return fail("bad timer count", 3);
      Timer& t = timers_[tok[1]];
      t.total_ns = v0;
      t.count = cnt;
    } else if (tok[0] == "h") {
      if (tok.size() - 3 > Histogram::kBuckets) {
        return fail("too many buckets", 3 + Histogram::kBuckets);
      }
      Histogram h{};
      h.samples = v0;
      for (std::size_t i = 3; i < tok.size(); ++i) {
        if (!support::parse_u64(tok[i], &h.buckets[i - 3])) {
          return fail("bad bucket", i);
        }
      }
      histograms_[tok[1]] = h;
    } else {
      return fail("unknown metric kind", 0);
    }
    return true;
  }

 private:
  static void append_u64(std::string* out, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    *out += buf;
  }
  static void append_key(std::string* out, bool* first, const std::string& k) {
    *out += *first ? "\n    \"" : ",\n    \"";
    *first = false;
    *out += k;
    *out += "\": ";
  }
  static std::vector<std::string> split_ws(const std::string& s) {
    std::vector<std::string> tok;
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && s[i] == ' ') ++i;
      std::size_t j = i;
      while (j < s.size() && s[j] != ' ') ++j;
      if (j > i) tok.push_back(s.substr(i, j - i));
      i = j;
    }
    return tok;
  }

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Timer> timers_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace cds::obs

#endif  // CDS_OBS_METRICS_H
