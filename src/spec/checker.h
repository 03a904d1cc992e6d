// The CDSSpec checker: plugs into the model-checking engine and validates
// every feasible execution against the attached specifications via
// non-deterministic linearizability (paper Definitions 1–7, Section 5.2).
//
// Per execution, per object:
//   1. extract the `r` relation from the recorded ordering points,
//   2. check admissibility (Definition 1) against the spec's @Admit rules,
//   3. enumerate valid sequential histories (topological orders of `r`,
//      Definition 2) and replay the sequential specification on each,
//   4. for every method call with justifying conditions, enumerate its
//      justifying subhistories (Definition 3) and require at least one to
//      satisfy them, or the call's CONCURRENT set to (Definition 4).
#ifndef CDS_SPEC_CHECKER_H
#define CDS_SPEC_CHECKER_H

#include <cstdint>
#include <string>
#include <vector>

#include "mc/engine.h"
#include "obs/metrics.h"
#include "spec/annotations.h"
#include "spec/history.h"
#include "spec/specification.h"
#include "support/kv.h"

namespace cds::spec {

class SpecChecker : public mc::ExecutionListener {
 public:
  // Every Options field, declared once: X(member, wire key, shape), as for
  // mc::Config (mc/config.h). None shapes the choice tree; a shard
  // assignment's `checker` line carries them all.
#define CDS_SPEC_OPTIONS(X)              \
  X(max_histories, "histories", run)     \
  X(sampled_histories, "sampled", run)   \
  X(max_subhistories, "subhist", run)    \
  X(max_reports, "reports", run)         \
  X(report_trace, "rtrace", run)         \
  X(seed, "seed", run)

  struct Options {
    // Exhaustive-history cap per object per execution; beyond it, the
    // checker additionally samples random histories (paper's
    // random-generation option).
    std::uint64_t max_histories = 2048;
    std::uint64_t sampled_histories = 64;
    // Cap on justifying-subhistory orders per call.
    std::uint64_t max_subhistories = 1024;
    // Keep detailed textual reports for at most this many violations.
    std::uint32_t max_reports = 8;
    // Include the engine's event trace in reports.
    bool report_trace = true;
    std::uint64_t seed = 0x5DEECE66Dull;

    template <class Self, class F>
    static void each(Self& s, F&& f) {
      CDS_SPEC_OPTIONS(CDS_CONFIG_VISIT)
    }
  };

  // Every Stats field, declared once: X(type, member, wire key, fold), as
  // for mc::ExplorationStats (mc/stats.h). All counters are
  // per-execution-pure, so sharded runs sum to the serial values.
#define CDS_SPEC_STATS(X)                                      \
  X(std::uint64_t, executions_checked, "checked", sum)         \
  X(std::uint64_t, inadmissible_execs, "inadmissible", sum)    \
  X(std::uint64_t, assertion_violation_execs, "assertions", sum) \
  X(std::uint64_t, histories_checked, "histories", sum)        \
  X(std::uint64_t, justification_checks, "justifications", sum) \
  X(bool, history_cap_hit, "cap_hit", any)                     \
  X(bool, r_cycle_seen, "r_cycle", any)

  struct Stats {
    CDS_SPEC_STATS(CDS_STATS_MEMBER)

    template <class Self, class F>
    static void each(Self& s, F&& f) {
      CDS_SPEC_STATS(CDS_STATS_VISIT)
    }
    void merge(const Stats& from) {
      Stats& into = *this;
      CDS_SPEC_STATS(CDS_STATS_FOLD)
    }
  };

  SpecChecker();
  explicit SpecChecker(Options opts);
  ~SpecChecker() override;

  // Registers this checker as the engine's listener and arms the
  // annotation recorder.
  void attach(mc::Engine& e);
  void detach();

  void on_execution_begin(mc::Engine& e) override;
  bool on_execution_complete(mc::Engine& e) override;
  // Checkpoint persistence: exports the live counters as "spec.cur.*"
  // entries so a kill+resume restores them via restore_from_checkpoint().
  void on_checkpoint(
      std::vector<std::pair<std::string, std::uint64_t>>& extra) override;
  void restore_from_checkpoint(const mc::Checkpoint& cp);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Recorder& recorder() { return recorder_; }
  [[nodiscard]] const std::vector<std::string>& reports() const { return reports_; }

 private:
  struct ObjectCalls {
    const Specification* spec = nullptr;
    std::vector<const CallRecord*> calls;
  };

  // Returns true iff the object's calls satisfy the specification on this
  // execution (reports through the engine otherwise).
  bool check_object(mc::Engine& e, const ObjectCalls& oc);
  bool check_admissibility(mc::Engine& e, const ObjectCalls& oc,
                           const std::vector<std::vector<int>>& succ);
  bool check_histories(mc::Engine& e, const ObjectCalls& oc,
                       const std::vector<std::vector<int>>& succ);
  bool check_justifications(mc::Engine& e, const ObjectCalls& oc,
                            const std::vector<std::vector<int>>& succ);

  // Replays one sequential history; returns the index of the first call
  // violating its pre/postcondition, or -1 if the history passes.
  int replay_history(const ObjectCalls& oc,
                     const std::vector<const CallRecord*>& order,
                     std::string* why);

  void file_report(mc::Engine& e, mc::ViolationKind kind, std::string detail);
  [[nodiscard]] std::string format_call(const CallRecord& c) const;
  [[nodiscard]] std::string format_order(
      const std::vector<const CallRecord*>& order) const;

  // Concurrent sets for the execution currently being checked.
  const std::vector<const CallRecord*>* concurrent_of(const CallRecord* c) const;

  Options opts_;
  Stats stats_;
  Recorder recorder_;
  mc::Engine* engine_ = nullptr;
  std::vector<std::string> reports_;

  // Cached metric handles into the attached engine's registry (null until
  // attach). All four are per-execution-pure counters, so sharded runs sum
  // to the serial values bit-for-bit.
  obs::Counter* m_execs_ = nullptr;
  obs::Counter* m_histories_ = nullptr;
  obs::Counter* m_justifications_ = nullptr;
  obs::Counter* m_cap_hits_ = nullptr;

  // Per-execution scratch, reused across executions so a check allocates
  // only when an execution outgrows every earlier one: calls grouped by
  // object id; for the object being checked (valid during check_object)
  // its r edges and per-call concurrent sets (rows past its call count are
  // empty or stale); and one call's r-predecessors with their induced edges
  // (check_justifications).
  std::vector<ObjectCalls> objects_;
  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<const CallRecord*>> concurrent_;
  std::vector<const CallRecord*> preds_;
  std::vector<std::size_t> pred_idx_;
  std::vector<std::vector<int>> pred_succ_;
  const std::vector<const CallRecord*>* cur_calls_ = nullptr;
};

}  // namespace cds::spec

#endif  // CDS_SPEC_CHECKER_H
