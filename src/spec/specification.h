// The CDSSpec specification DSL.
//
// This is the typed-C++ counterpart of the paper's annotation grammar
// (Figure 5); see DESIGN.md for the one-to-one mapping. A Specification
// bundles:
//   - the equivalent sequential data structure's state (@DeclareState),
//   - per-method side effects and assertions (@SideEffect, @PreCondition,
//     @PostCondition, @JustifyingPrecondition, @JustifyingPostcondition),
//   - admissibility rules (@Admit: m1 <-> m2 (cond)).
//
// Inside the condition/effect lambdas, `Ctx` exposes the paper's keywords:
// C_RET (ctx.c_ret()), S_RET (ctx.s_ret), method arguments (ctx.arg(i)),
// the declared state (ctx.st<T>()), and CONCURRENT (ctx.concurrent()).
#ifndef CDS_SPEC_SPECIFICATION_H
#define CDS_SPEC_SPECIFICATION_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spec/call.h"

namespace cds::spec {

class Specification;

// Evaluation context for one method call during a sequential replay.
class Ctx {
 public:
  Ctx(void* state, const CallRecord& call,
      const std::vector<const CallRecord*>* concurrent)
      : state_(state), call_(&call), concurrent_(concurrent) {}

  // The declared sequential state (@DeclareState); T must match the
  // spec's state<T>() declaration.
  template <typename T>
  [[nodiscard]] T& st() const {
    return *static_cast<T*>(state_);
  }

  [[nodiscard]] std::int64_t arg(int i) const { return call_->arg(i); }
  [[nodiscard]] std::int64_t c_ret() const { return call_->c_ret; }
  [[nodiscard]] const CallRecord& call() const { return *call_; }

  // CONCURRENT: the method calls concurrent with this one (empty outside
  // justification checks of executions with concurrency).
  [[nodiscard]] const std::vector<const CallRecord*>& concurrent() const {
    static const std::vector<const CallRecord*> kEmpty;
    return concurrent_ != nullptr ? *concurrent_ : kEmpty;
  }

  // S_RET: the sequential return value, written by the side effect and read
  // by the postcondition.
  std::int64_t s_ret = 0;

 private:
  void* state_;
  const CallRecord* call_;
  const std::vector<const CallRecord*>* concurrent_;
};

using EffectFn = std::function<void(Ctx&)>;
using CondFn = std::function<bool(Ctx&)>;
// Admissibility guard over a concrete unordered pair (M1 = first-named
// method of the rule, M2 = the other call).
using AdmitFn = std::function<bool(const CallRecord& m1, const CallRecord& m2)>;

class MethodSpec {
 public:
  explicit MethodSpec(std::string name, int index)
      : name_(std::move(name)), index_(index) {}

  MethodSpec& side_effect(EffectFn fn) {
    side_effect_ = std::move(fn);
    return *this;
  }
  MethodSpec& pre(CondFn fn) {
    pre_ = std::move(fn);
    return *this;
  }
  MethodSpec& post(CondFn fn) {
    post_ = std::move(fn);
    return *this;
  }
  MethodSpec& justifying_pre(CondFn fn) {
    justifying_pre_ = std::move(fn);
    return *this;
  }
  MethodSpec& justifying_post(CondFn fn) {
    justifying_post_ = std::move(fn);
    return *this;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] bool has_justifying() const {
    return justifying_pre_ != nullptr || justifying_post_ != nullptr;
  }
  [[nodiscard]] int annotation_count() const {
    return (side_effect_ ? 1 : 0) + (pre_ ? 1 : 0) + (post_ ? 1 : 0) +
           (justifying_pre_ ? 1 : 0) + (justifying_post_ ? 1 : 0);
  }

  void apply_side_effect(Ctx& c) const {
    if (side_effect_) side_effect_(c);
  }
  [[nodiscard]] bool check_pre(Ctx& c) const { return !pre_ || pre_(c); }
  [[nodiscard]] bool check_post(Ctx& c) const { return !post_ || post_(c); }
  [[nodiscard]] bool check_justifying_pre(Ctx& c) const {
    return !justifying_pre_ || justifying_pre_(c);
  }
  [[nodiscard]] bool check_justifying_post(Ctx& c) const {
    return !justifying_post_ || justifying_post_(c);
  }

 private:
  std::string name_;
  int index_;
  EffectFn side_effect_;
  CondFn pre_, post_, justifying_pre_, justifying_post_;
};

struct AdmitRule {
  int m1;  // method index of the rule's first name
  int m2;  // method index of the rule's second name
  AdmitFn guard;
};

class Specification {
 public:
  explicit Specification(std::string name);
  ~Specification();
  Specification(const Specification&) = delete;
  Specification& operator=(const Specification&) = delete;

  // @DeclareState — T is default-constructed per sequential replay
  // (@Initial/@Copy/@Clear default to T's special members, as the paper
  // notes is almost always sufficient).
  template <typename T>
  Specification& state() {
    create_state_ = []() -> void* { return new T(); };
    destroy_state_ = [](void* p) { delete static_cast<T*>(p); };
    return *this;
  }

  // Declares (or returns the already-declared) method named `name`.
  MethodSpec& method(const std::string& name);

  // @Admit: m1 <-> m2 (cond). When an execution leaves a concrete (m1, m2)
  // pair unordered by `r` and the guard returns true, the execution is
  // inadmissible: the data structure's behavior is not specified for it.
  Specification& admit(const std::string& m1, const std::string& m2, AdmitFn guard);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int method_index(const std::string& name) const;  // -1 if absent
  [[nodiscard]] const MethodSpec& method_at(int idx) const { return *methods_[static_cast<std::size_t>(idx)]; }
  [[nodiscard]] int method_count() const { return static_cast<int>(methods_.size()); }
  [[nodiscard]] const std::vector<AdmitRule>& admits() const { return admits_; }
  [[nodiscard]] bool has_state() const { return create_state_ != nullptr; }

  // RAII holder for one sequential-replay state instance.
  class State {
   public:
    explicit State(const Specification& s)
        : p_(s.create_state_ ? s.create_state_() : nullptr),
          destroy_(s.destroy_state_) {}
    ~State() {
      if (p_ != nullptr) destroy_(p_);
    }
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    [[nodiscard]] void* get() const { return p_; }

   private:
    void* p_;
    void (*destroy_)(void*);
  };

  // --- expressiveness accounting (paper Section 6.2) -------------------
  // Lines of specification: 1 for the state declaration, 1 per method
  // annotation, 1 per admissibility rule, plus 1 per distinct ordering-
  // point annotation site (counted by the annotation runtime).
  [[nodiscard]] int spec_lines() const;
  [[nodiscard]] int admissibility_lines() const { return static_cast<int>(admits_.size()); }
  // Counts the annotation site `kind@file:line` once. Called on every
  // annotation of every execution, so a site already seen (same kind and
  // file pointers, same line) returns after a lock-free list walk; the key
  // string is built, and compared by content, only the first time a
  // (kind, file, line) triple shows up. Thread-safe (annotation sites fire
  // from concurrent real threads under the stress backend); first sightings
  // serialize on a process-wide mutex in the .cc.
  void note_op_site(const char* kind, const char* file,
                    std::uint32_t line) const;
  [[nodiscard]] int ordering_point_sites() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<MethodSpec>> methods_;
  std::vector<AdmitRule> admits_;
  void* (*create_state_)() = nullptr;
  void (*destroy_state_)(void*) = nullptr;

  // Op-site accounting: a side table, hence mutable. `seen_` heads a
  // newest-first list of every (kind, file, line) triple noted so far; its
  // nodes live in seen_nodes_ until the Specification dies. op_sites_
  // holds the distinct site strings (several triples may name one site if
  // a file name has more than one address).
  struct SeenSite {
    const char* kind;
    const char* file;
    std::uint32_t line;
    const SeenSite* next;
  };
  mutable std::atomic<const SeenSite*> seen_{nullptr};
  mutable std::vector<std::unique_ptr<SeenSite>> seen_nodes_;
  mutable std::vector<std::string> op_sites_;
};

}  // namespace cds::spec

#endif  // CDS_SPEC_SPECIFICATION_H
