#include "spec/checker.h"

#include <algorithm>
#include <sstream>

#include "support/rng.h"

namespace cds::spec {

SpecChecker::SpecChecker() : SpecChecker(Options()) {}
SpecChecker::SpecChecker(Options opts) : opts_(opts) {}

SpecChecker::~SpecChecker() { detach(); }

void SpecChecker::attach(mc::Engine& e) {
  engine_ = &e;
  e.set_listener(this);
  Recorder::set_current(&recorder_);
  obs::Registry& m = e.metrics();
  m_execs_ = &m.counter("spec.executions_checked");
  m_histories_ = &m.counter("spec.histories_checked");
  m_justifications_ = &m.counter("spec.justification_checks");
  m_cap_hits_ = &m.counter("spec.cap_hits");
}

void SpecChecker::detach() {
  if (engine_ != nullptr) {
    engine_->set_listener(nullptr);
    engine_ = nullptr;
  }
  m_execs_ = m_histories_ = m_justifications_ = m_cap_hits_ = nullptr;
  if (Recorder::current() == &recorder_) Recorder::set_current(nullptr);
}

void SpecChecker::on_execution_begin(mc::Engine& e) {
  // Arm with the Backend identity: annotation guards compare the tag
  // against harness::Backend::current(), which the engine sets to its
  // Backend subobject.
  recorder_.begin_execution(static_cast<const harness::Backend*>(&e));
}

void SpecChecker::on_checkpoint(
    std::vector<std::pair<std::string, std::uint64_t>>& extra) {
  support::put_fields(extra, "spec.cur.", stats_);
}

void SpecChecker::restore_from_checkpoint(const mc::Checkpoint& cp) {
  stats_ = Stats{};
  support::get_fields(cp.extra, "spec.cur.", &stats_);
}

bool SpecChecker::on_execution_complete(mc::Engine& e) {
  ++stats_.executions_checked;
  if (m_execs_ != nullptr) m_execs_->add();
  // Group the execution's calls per object (composability, Section 3.2:
  // each object is checked against its own specification in isolation).
  // Object ids are dense per execution, so objects_ is indexed by id and
  // reused; objects are checked in increasing id order.
  for (ObjectCalls& oc : objects_) oc.calls.clear();
  for (const CallRecord& c : recorder_.calls()) {
    if (c.object >= objects_.size()) objects_.resize(c.object + 1);
    ObjectCalls& oc = objects_[c.object];
    oc.spec = c.spec;
    oc.calls.push_back(&c);
  }
  for (const ObjectCalls& oc : objects_) {
    // Composability (Section 3.2) makes each object's verdict independent,
    // so a violation on one object must not skip the spec checks for the
    // remaining objects in this execution. The engine's
    // stop_on_first_violation config and our caller decide when to stop
    // exploring; here we always finish the per-object sweep.
    if (!oc.calls.empty()) (void)check_object(e, oc);
  }
  return true;
}

const std::vector<const CallRecord*>* SpecChecker::concurrent_of(
    const CallRecord* c) const {
  if (cur_calls_ == nullptr) return nullptr;
  for (std::size_t i = 0; i < cur_calls_->size(); ++i) {
    if ((*cur_calls_)[i] == c) return &concurrent_[i];
  }
  return nullptr;
}

bool SpecChecker::check_object(mc::Engine& e, const ObjectCalls& oc) {
  const auto n = oc.calls.size();
  if (n == 0) return true;
  build_r_edges(oc.calls, succ_);
  const std::vector<std::vector<int>>& succ = succ_;

  // Precompute concurrent(m) for every call (Section 3.1).
  if (concurrent_.size() < n) concurrent_.resize(n);
  for (std::size_t i = 0; i < n; ++i) concurrent_[i].clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      bool ij = std::find(succ[i].begin(), succ[i].end(), static_cast<int>(j)) !=
                succ[i].end();
      bool ji = std::find(succ[j].begin(), succ[j].end(), static_cast<int>(i)) !=
                succ[j].end();
      if (!ij && !ji) concurrent_[i].push_back(oc.calls[j]);
    }
  }
  cur_calls_ = &oc.calls;

  bool ok = check_admissibility(e, oc, succ);
  if (ok) ok = check_histories(e, oc, succ);
  if (ok) ok = check_justifications(e, oc, succ);

  cur_calls_ = nullptr;
  return ok;
}

bool SpecChecker::check_admissibility(mc::Engine& e, const ObjectCalls& oc,
                                      const std::vector<std::vector<int>>& succ) {
  const Specification& spec = *oc.spec;
  if (spec.admits().empty()) return true;
  const auto n = oc.calls.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool ij = std::find(succ[i].begin(), succ[i].end(), static_cast<int>(j)) !=
                succ[i].end();
      bool ji = std::find(succ[j].begin(), succ[j].end(), static_cast<int>(i)) !=
                succ[j].end();
      if (ij || ji) continue;  // ordered: admissible pair
      const CallRecord& a = *oc.calls[i];
      const CallRecord& b = *oc.calls[j];
      for (const AdmitRule& rule : spec.admits()) {
        bool fires = false;
        if (a.method == rule.m1 && b.method == rule.m2 && rule.guard(a, b)) {
          fires = true;
        } else if (b.method == rule.m1 && a.method == rule.m2 && rule.guard(b, a)) {
          fires = true;
        }
        if (fires) {
          ++stats_.inadmissible_execs;
          file_report(
              e, mc::ViolationKind::kInadmissible,
              "spec '" + spec.name() + "': calls " + format_call(a) + " and " +
                  format_call(b) +
                  " must be ordered by the admissibility rules but are "
                  "concurrent; the data structure's behavior is undefined "
                  "for this usage (execution not checked further)");
          return false;
        }
      }
    }
  }
  return true;
}

int SpecChecker::replay_history(const ObjectCalls& oc,
                                const std::vector<const CallRecord*>& order,
                                std::string* why) {
  const Specification& spec = *oc.spec;
  Specification::State st(spec);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const CallRecord& c = *order[k];
    const MethodSpec& ms = spec.method_at(c.method);
    Ctx ctx(st.get(), c, concurrent_of(&c));
    if (!ms.check_pre(ctx)) {
      *why = "precondition of " + format_call(c) + " failed";
      return static_cast<int>(k);
    }
    ms.apply_side_effect(ctx);
    if (!ms.check_post(ctx)) {
      *why = "postcondition of " + format_call(c) + " failed (S_RET=" +
             std::to_string(ctx.s_ret) + ")";
      return static_cast<int>(k);
    }
  }
  return -1;
}

bool SpecChecker::check_histories(mc::Engine& e, const ObjectCalls& oc,
                                  const std::vector<std::vector<int>>& succ) {
  bool violated = false;
  std::string why;
  std::vector<const CallRecord*> bad_order;

  auto cb = [&](const std::vector<const CallRecord*>& order) {
    ++stats_.histories_checked;
    if (m_histories_ != nullptr) m_histories_->add();
    if (replay_history(oc, order, &why) >= 0) {
      violated = true;
      bad_order = order;
      return false;
    }
    return true;
  };

  TopoResult res = for_each_topo_order(oc.calls, succ, opts_.max_histories, cb);
  if (res.cycle) {
    stats_.r_cycle_seen = true;
    file_report(e, mc::ViolationKind::kSpecAssertion,
                "spec '" + oc.spec->name() +
                    "': ordering points induce a cyclic r relation; no "
                    "valid sequential history exists");
    return false;
  }
  if (res.capped && !violated) {
    stats_.history_cap_hit = true;
    if (m_cap_hits_ != nullptr) m_cap_hits_->add();
    // Beyond the exhaustive cap: sample random histories (paper's option).
    // Derive the sampling seed from the execution index so different
    // executions draw different histories; a fixed seed would re-sample the
    // same orders every execution, systematically missing violations that
    // only distinct draws can reach.
    sample_topo_orders(oc.calls, succ, opts_.sampled_histories,
                       support::derive_seed(opts_.seed, e.execution_index()),
                       cb);
  }

  if (violated) {
    ++stats_.assertion_violation_execs;
    file_report(e, mc::ViolationKind::kSpecAssertion,
                "spec '" + oc.spec->name() + "': " + why +
                    "\n  sequential history: " + format_order(bad_order));
    return false;
  }
  return true;
}

bool SpecChecker::check_justifications(mc::Engine& e, const ObjectCalls& oc,
                                       const std::vector<std::vector<int>>& succ) {
  const Specification& spec = *oc.spec;
  const auto n = oc.calls.size();

  for (std::size_t mi = 0; mi < n; ++mi) {
    const CallRecord& m = *oc.calls[mi];
    const MethodSpec& ms = spec.method_at(m.method);
    if (!ms.has_justifying()) continue;
    ++stats_.justification_checks;
    if (m_justifications_ != nullptr) m_justifications_->add();

    // Justifying subhistories (Definition 3): exactly the r-predecessors of
    // m, in every order consistent with r, with m last.
    std::vector<const CallRecord*>& preds = preds_;
    std::vector<std::size_t>& pred_idx = pred_idx_;
    preds.clear();
    pred_idx.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j == mi) continue;
      if (std::find(succ[j].begin(), succ[j].end(), static_cast<int>(mi)) !=
          succ[j].end()) {
        preds.push_back(oc.calls[j]);
        pred_idx.push_back(j);
      }
    }
    // Induced edges among the predecessors (every row cleared: rows past
    // preds.size() must be empty for the enumeration).
    std::vector<std::vector<int>>& psucc = pred_succ_;
    if (psucc.size() < preds.size()) psucc.resize(preds.size());
    for (std::vector<int>& row : psucc) row.clear();
    for (std::size_t a = 0; a < preds.size(); ++a) {
      for (std::size_t b = 0; b < preds.size(); ++b) {
        if (a == b) continue;
        if (std::find(succ[pred_idx[a]].begin(), succ[pred_idx[a]].end(),
                      static_cast<int>(pred_idx[b])) != succ[pred_idx[a]].end()) {
          psucc[a].push_back(static_cast<int>(b));
        }
      }
    }

    bool justified = false;
    auto try_order = [&](const std::vector<const CallRecord*>& order) {
      Specification::State st(spec);
      for (const CallRecord* p : order) {
        Ctx pctx(st.get(), *p, concurrent_of(p));
        spec.method_at(p->method).apply_side_effect(pctx);
      }
      Ctx mctx(st.get(), m, concurrent_of(&m));
      if (!ms.check_justifying_pre(mctx)) return true;  // try next order
      ms.apply_side_effect(mctx);
      if (!ms.check_justifying_post(mctx)) return true;
      justified = true;
      return false;  // found a justifying subhistory; stop
    };

    for_each_topo_order(preds, psucc, opts_.max_subhistories, try_order);

    if (!justified) {
      ++stats_.assertion_violation_execs;
      std::string msg = "spec '" + spec.name() + "': behavior of " +
                        format_call(m) +
                        " is not justified by any justifying subhistory or "
                        "by its concurrent method calls\n  r-predecessors: ";
      msg += format_order(preds);
      msg += "\n  concurrent: ";
      if (const auto* conc = concurrent_of(&m)) {
        for (std::size_t i = 0; i < conc->size(); ++i) {
          if (i > 0) msg += ", ";
          msg += format_call(*(*conc)[i]);
        }
      }
      file_report(e, mc::ViolationKind::kSpecAssertion, std::move(msg));
      return false;
    }
  }
  return true;
}

void SpecChecker::file_report(mc::Engine& e, mc::ViolationKind kind,
                              std::string detail) {
  if (reports_.size() < opts_.max_reports) {
    std::string full = detail;
    if (opts_.report_trace) {
      full += "\n  execution #" + std::to_string(e.execution_index()) +
              " trace:\n" + e.format_trace();
    }
    reports_.push_back(std::move(full));
  }
  e.report_violation(kind, std::move(detail));
}

std::string SpecChecker::format_call(const CallRecord& c) const {
  std::ostringstream os;
  os << c.spec->method_at(c.method).name() << '(';
  for (int i = 0; i < c.nargs; ++i) {
    if (i > 0) os << ", ";
    os << c.args[i];
  }
  os << ')';
  if (c.has_ret) os << '=' << c.c_ret;
  os << " [T" << c.thread << ']';
  return os.str();
}

std::string SpecChecker::format_order(
    const std::vector<const CallRecord*>& order) const {
  std::string s;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0) s += " -> ";
    s += format_call(*order[i]);
  }
  return s;
}

}  // namespace cds::spec
