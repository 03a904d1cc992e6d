// In-memory span recorder for the benchmark's traced runs, written out once
// at the end as a Chrome trace (chrome://tracing, Perfetto).
//
// Spans are recorded only from the benchmark's own files, around calls into
// the checker's public API; every span names the span that caused it
// (args.parent), so nesting does not depend on which track a span lands
// on. Track 0 holds passes, checks, explorations and spec callbacks; shard
// spans go on track 1 + worker because two workers' shards overlap in time.
#ifndef CDS_PERFBENCH_SPAN_TRACE_H
#define CDS_PERFBENCH_SPAN_TRACE_H

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// JSON string body escaping (quotes, backslashes, control characters).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

class SpanTrace {
 public:
  static constexpr int kNoParent = -1;

  explicit SpanTrace(Clock::time_point origin) : origin_(origin) {}

  // Opens a span now; close it with end(). Returns its id.
  int begin(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, 0, now_s(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes span `id` and returns its duration in seconds.
  double end(int id) {
    spans_[id].dur_s = now_s() - spans_[id].start_s;
    return spans_[id].dur_s;
  }

  // Records an already-finished span measured elsewhere.
  int add(std::string name, int parent, int track, Clock::time_point start,
          Clock::time_point stop) {
    spans_.push_back(Span{std::move(name), parent, track,
                          seconds_between(origin_, start),
                          seconds_between(start, stop)});
    return static_cast<int>(spans_.size()) - 1;
  }
  int add(std::string name, int parent, int track, double start_s,
          double dur_s) {
    spans_.push_back(Span{std::move(name), parent, track, start_s, dur_s});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] double start_of(int id) const { return spans_[id].start_s; }

  // Writes {"traceEvents": [...], "otherData": <metadata>}. Returns false
  // if the file cannot be written.
  bool write_chrome(const std::string& path,
                    const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                    "\"traceEvents\":[\n",
                 metadata_json.c_str());
    std::set<int> tracks;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      tracks.insert(s.track);
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}},\n",
                   json_escape(s.name).c_str(), s.track, s.start_s * 1e6,
                   (s.dur_s < 0 ? 0.0 : s.dur_s) * 1e6, i, s.parent);
    }
    for (int t : tracks) {
      const std::string label =
          t == 0 ? "checks" : "shard worker " + std::to_string(t - 1);
      std::fprintf(f,
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                   "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                   t, label.c_str());
    }
    std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                    "\"args\":{\"name\":\"perfbench\"}}");
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int track;
    double start_s;
    double dur_s;
  };

  [[nodiscard]] double now_s() const {
    return seconds_between(origin_, Clock::now());
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // CDS_PERFBENCH_SPAN_TRACE_H
