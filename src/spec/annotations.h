// Runtime annotation API embedded in data-structure implementations.
//
// This is the executable counterpart of the instrumentation the paper's
// specification compiler inserts: method boundaries with argument/return
// capture, and the ordering-point annotations of Figure 5 (OPDefine,
// PotentialOP, OPCheck, OPClear, OPClearDefine).
//
// Usage inside a data structure:
//
//   int deq() {
//     cds::spec::Method m(spec_obj_, "deq");
//     while (true) {
//       Node* h = head.load(acquire);
//       Node* n = h->next.load(acquire);
//       m.op_clear_define();                    // @OPClearDefine: true
//       if (n == nullptr) return m.ret(-1);
//       if (head.compare_exchange_strong(h, n, release))
//         return m.ret(n->data);
//     }
//   }
//
// Annotations are no-ops when no SpecChecker is attached (the same source
// runs under a plain Engine), and nested API method calls are treated as
// internal (only the outermost call is recorded), per Section 4.3.
#ifndef CDS_SPEC_ANNOTATIONS_H
#define CDS_SPEC_ANNOTATIONS_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <source_location>
#include <span>
#include <utility>
#include <vector>

#include "spec/call.h"
#include "spec/specification.h"

namespace cds::harness {
class Backend;
}  // namespace cds::harness

namespace cds::spec {

// Collects CallRecords for one execution / iteration. Thread-safe: under
// the stress backend commits arrive from concurrent real threads; under
// the model checker all fibers share one OS thread and the lock is
// uncontended. `calls()` is only valid between iterations (after joins).
//
// The recorder owns all per-call storage and reuses it across executions:
// a per-thread slot holds the thread's in-flight outermost call, and
// committed records are copied into recycled entries. A Method guard on a
// fiber stack therefore owns no heap, which matters because a pruned or
// abandoned execution never unwinds its fibers: the guard's destructor
// never runs, and begin_execution simply resets the slots.
class Recorder {
 public:
  // The in-flight outermost call of one thread, plus its pending
  // potential ordering points (@PotentialOP, awaiting @OPCheck).
  struct CallSlot {
    int depth = 0;  // API-call nesting depth of the slot's thread
    CallRecord call;
    std::vector<std::pair<int, OPEvent>> potentials;
  };

  // The process-global recorder the model checker's SpecChecker arms
  // (annotations resolve their recorder through Backend::recorder(); the
  // engine forwards to this). Stress backends own private recorders.
  static Recorder* current();
  static void set_current(Recorder* r);

  // Arms the recorder for one execution driven by the given backend.
  void begin_execution(const void* backend_tag);
  [[nodiscard]] bool armed_for(const void* backend_tag) const {
    return backend_tag != nullptr && backend_tag == engine_tag_;
  }

  std::uint32_t new_object();

  // Per-thread API-call nesting (outermost-only recording). enter()
  // returns the thread's slot, cleared for a new call, when this is the
  // thread's outermost call, and nullptr for a nested one. The slot stays
  // put while other threads enter (slots are individually allocated), so
  // its owner may fill it without the lock. leave() commits the slot's
  // call when the outermost call ends.
  [[nodiscard]] CallSlot* enter(int tid);
  void leave(int tid);

  [[nodiscard]] std::span<const CallRecord> calls() const {
    return {calls_.data(), ncalls_};
  }

 private:
  const void* engine_tag_ = nullptr;
  // The first ncalls_ entries are this execution's records; the rest are
  // kept for reuse.
  std::vector<CallRecord> calls_;
  std::size_t ncalls_ = 0;
  std::uint32_t next_object_ = 0;
  std::vector<std::unique_ptr<CallSlot>> slots_;  // indexed by thread id
  std::mutex mu_;
};

// Binds one data-structure instance to its specification. Construct inside
// the test body (one per modeled object per execution).
class Object {
 public:
  explicit Object(const Specification& s);

  [[nodiscard]] const Specification& spec() const { return *spec_; }
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  const Specification* spec_;
  std::uint32_t id_ = 0;
};

// RAII method-boundary guard; also the handle for ordering-point
// annotations and return-value capture.
class Method {
 public:
  Method(const Object& obj, const char* name,
         std::initializer_list<std::int64_t> args = {});
  ~Method();
  Method(const Method&) = delete;
  Method& operator=(const Method&) = delete;

  // Captures the concurrent return value (C_RET); returns v so call sites
  // can write `return m.ret(v);`.
  std::int64_t ret(std::int64_t v);

  // @OPDefine: the atomic operation this thread just performed is an
  // ordering point.
  void op_define(std::source_location loc = std::source_location::current());
  // @PotentialOP(label)
  void potential_op(int label,
                    std::source_location loc = std::source_location::current());
  // @OPCheck(label): promote previously recorded potential ordering points
  // with this label to real ordering points.
  void op_check(int label,
                std::source_location loc = std::source_location::current());
  // @OPClear: discard all ordering points recorded so far in this call.
  void op_clear(std::source_location loc = std::source_location::current());
  // @OPClearDefine: OPClear followed by OPDefine.
  void op_clear_define(std::source_location loc = std::source_location::current());

  [[nodiscard]] bool active() const { return slot_ != nullptr; }

 private:
  [[nodiscard]] OPEvent snapshot() const;
  void note_site(const char* kind, const std::source_location& loc) const;

  // Pointers only: this guard lives on a fiber stack that may never unwind
  // (see Recorder).
  Recorder* rec_ = nullptr;
  harness::Backend* backend_ = nullptr;
  const Specification* spec_ = nullptr;
  int tid_ = -1;
  Recorder::CallSlot* slot_ = nullptr;  // non-null iff this call records
};

}  // namespace cds::spec

#endif  // CDS_SPEC_ANNOTATIONS_H
