// The exploration engine: an exhaustive, stateless model checker for the
// C/C++11 memory model (the CDSChecker-equivalent substrate of the paper).
//
// A test body is a function over an Exec facade; it constructs the data
// structure under test, spawns modeled threads, and joins them. The engine
// re-runs the body once per explored execution, enumerating by DFS:
//   - the schedule: which enabled thread performs each visible operation,
//   - reads-from: which coherence-eligible message each atomic load reads.
// Per-thread views make stale reads, release/acquire synchronization,
// release sequences, fences, RMW atomicity, and SC constraints behave as
// the C/C++11 model allows (see DESIGN.md for the exact operational rules
// and their deviations).
#ifndef CDS_MC_ENGINE_H
#define CDS_MC_ENGINE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fiber/fiber.h"
#include "harness/backend.h"
#include "mc/checkpoint.h"
#include "mc/config.h"
#include "mc/location.h"
#include "mc/memory_order.h"
#include "mc/rf_consistency.h"
#include "mc/rf_explore.h"
#include "mc/stats.h"
#include "mc/thread_state.h"
#include "mc/trail.h"
#include "mc/violation.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "support/arena.h"
#include "support/rng.h"
#include "support/vector_clock.h"

namespace cds::mc {

class Engine;
class Exec;

// Hook for the specification layer (and tests) into the exploration loop.
class ExecutionListener {
 public:
  virtual ~ExecutionListener() = default;
  virtual void on_execution_begin(Engine&) {}
  // Called for every feasible execution that completed without a built-in
  // violation. Return false to stop exploring.
  virtual bool on_execution_complete(Engine&) { return true; }
  // Called while the engine assembles a checkpoint: append (or overwrite)
  // any counters this layer needs to survive a kill+resume. The engine
  // round-trips them opaquely; restore them from the Checkpoint's `extra`
  // on resume.
  virtual void on_checkpoint(
      std::vector<std::pair<std::string, std::uint64_t>>&) {}
};

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kLoad, kStore, kRmw, kCasFail, kFence,
    kSpawn, kJoin, kYield, kLock, kUnlock, kThreadEnd,
  };
  static constexpr std::uint32_t kNoLoc = 0xffffffffu;

  Kind kind;
  std::int16_t thread;
  MemoryOrder order;
  std::uint32_t loc;
  std::uint64_t value;
};

[[nodiscard]] const char* to_string(TraceEvent::Kind k);

// Shadow state for a plain (non-atomic) shared variable; drives the
// FastTrack-style built-in race detector.
struct RaceShadow {
  std::int32_t w_thread = -1;
  std::uint32_t w_pos = 0;
  support::VectorClock reads;
  const char* name = "var";
};

// Scheduler-aware mutex state (see mc/sync.h for the user-facing wrapper).
struct MutexState {
  std::int32_t holder = -1;
  support::Timestamps release_ts;
  const char* name = "mutex";
};

using TestFn = std::function<void(Exec&)>;

class Engine : public harness::Backend {
 public:
  explicit Engine(Config cfg = {});
  ~Engine() override;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Exhaustively explores `test`. Reentrant per Engine object (stats are
  // per call); not safe to run two Engines on one OS thread concurrently.
  ExplorationStats explore(const TestFn& test);

  void set_listener(ExecutionListener* l) { listener_ = l; }

  // Resume a previous exploration from a loaded checkpoint (see
  // mc/checkpoint.h). Must be called before explore(); the caller is
  // responsible for checking Checkpoint::config.mismatch first. A
  // Phase::kStart checkpoint is treated as a fresh exploration.
  void set_resume(Checkpoint cp) { resume_ = std::move(cp); }

  // Template for checkpoints this engine writes: its `extra` entries (e.g.
  // the harness's accumulated prior-test totals) are carried into every
  // checkpoint file, ahead of whatever the listener's on_checkpoint adds.
  void set_checkpoint_base(Checkpoint cp) { cp_base_ = std::move(cp); }

  // Subtree-restriction mode (parallel sharding): explore() pins `prefix`
  // at the bottom of the trail and enumerates only the executions that
  // extend it. Because executions are deterministic functions of their
  // choice sequence, the subtrees of a set of disjoint prefixes partition
  // the full DFS tree; stats.exhausted then means "this subtree is
  // exhausted". Must be set before explore(); incompatible with
  // set_resume(). Pass an empty prefix to clear.
  void set_subtree(std::vector<Choice> prefix) { subtree_ = std::move(prefix); }

  // --- introspection (valid while an execution is live or being checked) --
  [[nodiscard]] int current_thread() const override { return current_; }
  [[nodiscard]] int thread_count() const { return spawned_; }
  [[nodiscard]] const ThreadMMState& mm(int tid) const;
  [[nodiscard]] std::uint64_t execution_index() const { return exec_index_; }
  [[nodiscard]] const std::vector<TraceEvent>& trace() const { return trace_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const char* location_name(std::uint32_t loc) const;

  // Observability registry for this engine instance. Layers above (the
  // spec checker, the harness) register their own metrics here so one
  // snapshot covers the whole pipeline; shard probe engines own separate
  // registries, keeping worker snapshots uncontaminated. Counter and
  // histogram entries are schedule-independent by contract (see
  // obs/metrics.h), so a sharded exhaustive run merges bit-identical to a
  // serial one.
  [[nodiscard]] obs::Registry& metrics() { return obs_; }
  [[nodiscard]] const obs::Registry& metrics() const { return obs_; }

  // Behavior-set extraction (used by the fuzzer's differential oracles):
  // the locations of the execution being checked and the final (latest in
  // modification order) value of each. Valid from an execution listener.
  [[nodiscard]] std::uint32_t location_count() const override {
    return nlocs_;
  }
  [[nodiscard]] std::uint64_t location_final_value(
      std::uint32_t loc) const override {
    return locs_[loc].latest().value;
  }

  // Reporting channel shared by built-in checks and the spec layer.
  void report_violation(ViolationKind k, std::string detail) override;

  // Recoverable internal error: records a kEngineFatal diagnostic, fails
  // the *current execution* only, and lets the exploration continue. Must
  // be called from a modeled-thread fiber during an execution (falls back
  // to a process abort when there is no execution to fail). Never returns.
  [[noreturn]] void engine_fatal(std::string detail);
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t violations_total() const { return violations_total_; }
  [[nodiscard]] bool execution_has_builtin_violation() const { return had_builtin_; }

  // Renders the current execution's event trace (diagnostics).
  [[nodiscard]] std::string format_trace() const;

  // Snapshot of the current execution's choice sequence; feed it back to
  // replay() to re-run exactly this execution (e.g. to re-examine a
  // violation with richer tracing).
  [[nodiscard]] std::vector<Choice> current_trail() const { return trail_.raw(); }

  // After explore() returned with stats.preempted (Config::stop_request
  // tripped): the trail of the last execution the DFS explored, including
  // any pinned subtree prefix. Empty otherwise. The unexplored remainder
  // of the (sub)tree is the union of this trail's right-sibling subtrees
  // below the pinned prefix — see mc::split_remaining_frontier.
  [[nodiscard]] const std::vector<Choice>& preempt_frontier() const {
    return preempt_frontier_;
  }
  // Re-runs exactly one execution from a saved choice sequence. With
  // `strict` set (the --replay-trail path), the debug-build determinism
  // assertion is promoted to a runtime check: any divergence between the
  // trail and the execution it drives — a mismatched choice kind or
  // alternative count, running past the end of the trail, or finishing
  // without consuming it — is reported through `divergence` and the call
  // returns false instead of asserting.
  bool replay(const std::vector<Choice>& saved, const TestFn& test,
              bool strict = false, std::string* divergence = nullptr);

  // --- modeled-code API (called from inside test fibers) ---------------
  // Engine driving the calling fiber; null outside explore(). The generic
  // entry point is harness::Backend::current(); this accessor exists for
  // engine-internal callers and tests that need model-only introspection.
  static Engine* current();

  std::uint32_t new_location(const char* name, bool initialized,
                             std::uint64_t init_value) override;
  std::uint64_t atomic_load(std::uint32_t loc, MemoryOrder o) override;
  void atomic_store(std::uint32_t loc, std::uint64_t v, MemoryOrder o) override;
  // Generic RMW: new_value = op(old_value, operand); returns old value.
  std::uint64_t atomic_rmw(std::uint32_t loc, MemoryOrder o,
                           std::uint64_t (*op)(std::uint64_t, std::uint64_t),
                           std::uint64_t operand) override;
  bool atomic_cas(std::uint32_t loc, std::uint64_t& expected,
                  std::uint64_t desired, MemoryOrder success,
                  MemoryOrder failure) override;
  std::uint64_t atomic_exchange(std::uint32_t loc, std::uint64_t v,
                                MemoryOrder o) override;
  void atomic_thread_fence(MemoryOrder o) override;

  void plain_read(RaceShadow& s) override;
  void plain_write(RaceShadow& s) override;

  void mutex_lock(MutexState& m) override;
  void mutex_unlock(MutexState& m) override;

  int spawn_thread(std::function<void()> body) override;
  void join_thread(int tid) override;
  void yield_thread() override;

  support::Arena& arena() { return arena_; }

  // --- harness::Backend surface ----------------------------------------
  [[nodiscard]] const char* backend_name() const override { return "model"; }
  void* allocate(std::size_t bytes, std::size_t align) override {
    return arena_.allocate(bytes, align);
  }
  [[nodiscard]] spec::Recorder* recorder() override;
  [[nodiscard]] spec::OPEvent snapshot_op(int tid) const override;

 private:
  // What a parked thread is about to do; drives the independence-based
  // schedule reduction (two pending operations that commute need no
  // schedule branch — see run_one()).
  struct PendingOp {
    enum class Class : std::uint8_t {
      kInternal,  // spawn/join/yield/acq-rel fence: thread-local effect
      kRead,      // atomic load (incl. failed-CAS read)
      kWrite,     // store / rmw / cas
      kScFence,   // conflicts with every memory op (global SC view)
      kMutex,     // lock/unlock on a specific mutex
    };
    Class cls = Class::kInternal;
    std::uint32_t loc = 0;
    const MutexState* mutex = nullptr;
    // Declared memory order (after any strengthen_to_sc coercion); rf mode
    // uses it to tell deferred (non-seq_cst) loads from branching ones.
    MemoryOrder order = MemoryOrder::relaxed;
  };

  // `status` and `pending` come first: they are all the per-step scheduler
  // scan reads, so they share the slot's first cache line.
  struct Thread {
    ThreadStatus status = ThreadStatus::kAbsent;
    PendingOp pending;
    std::unique_ptr<fiber::Fiber> fib;
    ThreadMMState mm;
    int waiting_join = -1;
    const MutexState* waiting_mutex = nullptr;
    std::function<void()> body;
  };

  // Sleep-set reduction (Godefroid): after a schedule alternative's subtree
  // is explored, that thread sleeps for the sibling subtrees until some
  // dependent (conflicting) operation executes. Prunes redundant
  // interleavings without losing behaviors.
  struct SleepEntry {
    int tid;
    PendingOp op;
  };

  // True iff the two pending operations do not commute (executing them in
  // either order can differ): same-location with a write, same mutex, or
  // an SC fence against any memory operation.
  static bool conflicts(const PendingOp& a, const PendingOp& b);

  void run_one(const TestFn& test);
  void reset_execution_state();
  // Parks the calling fiber at a visible-operation boundary, declaring the
  // operation it is about to perform; returns when the scheduler picks
  // this thread again. An invisible step the scheduler would hand straight
  // back to the caller returns without switching (see park()).
  void park(PendingOp op);
  void block(ThreadStatus why);
  void switch_to_scheduler();
  [[noreturn]] void abandon_execution();
  void thread_exit();
  Thread& cur() { return threads_[static_cast<std::size_t>(current_)]; }
  ThreadMMState& cur_mm() { return cur().mm; }
  void bump_event(int tid);
  void wake_yielded(int except);
  void apply_read_sync(ThreadMMState& t, const Message& m, MemoryOrder o);
  // Appends a store message; shared by store/rmw/cas-success paths.
  // `read_from` is the message an RMW read (nullptr for plain stores).
  void append_store(std::uint32_t loc, std::uint64_t v, MemoryOrder o,
                    bool is_rmw);
  // Resolves which message a load observes (choice point); returns its
  // timestamp index. `exclude_value`/`use_exclude` implement failed-CAS
  // reads, which may only observe messages with value != expected.
  // `min_ts` floors the candidates (rf mode: a woken waiter may only pick
  // among the messages newer than the ones it declined); with `offer_wait`
  // the choice gains one trailing "wait for the next same-location write"
  // alternative, reported through `chose_wait`.
  std::uint32_t pick_read(std::uint32_t loc, MemoryOrder o,
                          std::uint64_t exclude_value, bool use_exclude,
                          bool* has_option, std::uint32_t min_ts,
                          bool offer_wait, bool* chose_wait);
  std::uint32_t next_sc_index() { return ++sc_counter_; }
  void record(TraceEvent::Kind k, MemoryOrder o, std::uint32_t loc,
              std::uint64_t value);

  enum class Outcome : std::uint8_t {
    kRunning, kComplete, kPrunedBound, kPrunedLivelock, kPrunedRedundant,
    kBuiltinViolation, kEngineFatal,
    kCrash,  // test body took a fatal signal; contained, never checkable
    // rf mode: some thread still waits for a same-location write that no
    // remaining thread will perform — the chosen rf assignment names a
    // message that never exists. An infeasible class, not a deadlock:
    // every wait alternative has a non-wait sibling branch covering the
    // real continuations (including real deadlocks).
    kPrunedInfeasibleRf,
  };

  // Fiber fall-through recovery (installed as fiber::Fiber's handler).
  static void on_fiber_fallthrough(fiber::Fiber& f);

  // Budget plumbing. `deadline` is seconds since exploration start
  // (0 = none); returns true when a budget tripped and sets the
  // corresponding hit_*_budget_ flag.
  [[nodiscard]] double seconds_since_start() const;
  [[nodiscard]] std::size_t memory_usage_estimate() const;
  bool check_budgets();
  // Shared tally of one finished execution; updates stats and returns the
  // listener's keep-going decision.
  bool tally_execution(ExplorationStats& stats);

  // Progress heartbeat (see --progress): emits a throttled status line
  // between executions. Only reached when cfg_.progress_interval_seconds
  // armed a meter, so the disabled hot path is one null check.
  void beat_progress(const ExplorationStats& stats, const char* phase);
  // Estimated fraction of the DFS tree strictly before the current trail:
  // the mixed-radix fraction of the trail's chosen/num digits (see
  // frontier_fraction_of in mc/trail.h), made monotone non-decreasing
  // across one explore() via frontier_frac_floor_.
  [[nodiscard]] double frontier_fraction() const;
  // Trail overflow trampoline: routes an unrecordable choice fan-out into
  // engine_fatal, failing only the offending execution.
  static void on_trail_overflow(void* self, std::uint32_t num);

  // Signal-to-verdict containment (see Config::contain_crashes): handlers
  // live for the duration of explore()/replay(); run_one arms a sigsetjmp
  // window (no saved mask) around each switch into a test fiber.
  void install_crash_handlers();
  void restore_crash_handlers();
  // Restores the signal mask the handler's entry changed, then builds the
  // kCrash violation for a fault caught in the armed window and marks the
  // execution's outcome. `sig`/`addr` come from the handler.
  void contain_crash(int sig, const void* addr);

  // Assembles and atomically writes a checkpoint (no-op when
  // cfg_.checkpoint_path is empty); failures warn on stderr and the
  // exploration continues.
  void write_checkpoint(Checkpoint::Phase phase, const ExplorationStats& stats,
                        std::uint64_t last_progress_exec);

  Config cfg_;
  ExecutionListener* listener_ = nullptr;

  fiber::Fiber sched_fiber_;
  std::vector<Thread> threads_;
  int spawned_ = 0;
  int current_ = -1;

  // Locations are recycled across executions: the first nlocs_ are live,
  // the rest keep their history/rs_heads capacity for the next execution.
  std::vector<Location> locs_;
  std::uint32_t nlocs_ = 0;
  support::View sc_view_;      // coherence propagated through seq_cst fences
  std::uint32_t sc_counter_ = 0;

  Trail trail_;
  std::vector<SleepEntry> sleep_;
  // Per-step scheduler scratch (runnable threads; awake schedule
  // candidates), reused so a step never allocates.
  std::vector<int> enabled_;
  std::vector<int> cands_;
  // Reads-from equivalence mode (cfg_.explore == ExploreMode::kRf): wait
  // bookkeeping for deferred loads, the per-class constraint cross-check,
  // and a wake scratch list. Under strengthen_to_sc every load is seq_cst,
  // so rf mode degenerates to schedule-equivalent exploration naturally.
  const bool rf_mode_;
  RfExplorer rf_;
  RfConsistencyChecker rf_check_;
  std::vector<int> rf_woken_scratch_;
  // Reads-from candidate scratch, reused across choice points so the hot
  // path never allocates; sized by the visible history span, replacing a
  // fixed cap that silently dropped eligible writes past entry 128.
  std::vector<std::uint32_t> rf_scratch_;
  support::Arena arena_;
  std::vector<TraceEvent> trace_;

  std::uint64_t exec_index_ = 0;
  std::uint64_t steps_ = 0;
  Outcome outcome_ = Outcome::kRunning;
  bool had_builtin_ = false;
  bool abandoned_ = false;
  bool fatal_abandon_ = false;  // abandoned by engine_fatal, not a violation

  std::vector<Violation> violations_;
  std::uint64_t violations_total_ = 0;

  // Budget state (valid during explore()).
  support::Xorshift64 rng_;
  std::chrono::steady_clock::time_point t0_{};
  double active_deadline_ = 0.0;  // seconds since t0_; 0 = no deadline
  bool hit_time_budget_ = false;
  bool hit_memory_budget_ = false;

  // Subtree-restriction prefix; empty = explore the whole tree.
  std::vector<Choice> subtree_;

  // Frontier captured when cfg_.stop_request preempted the DFS.
  std::vector<Choice> preempt_frontier_;

  // Highest frontier_fraction reported so far this explore(): floating-
  // point rounding on deep trails must never make the progress estimate
  // step backwards.
  mutable double frontier_frac_floor_ = 0.0;

  // Checkpoint/resume state.
  std::optional<Checkpoint> resume_;
  Checkpoint cp_base_;
  double resume_elapsed_ = 0.0;  // folded into seconds_since_start()

  // Crash containment state (valid while handlers are installed).
  bool crash_handlers_active_ = false;

  // Observability: the registry plus cached metric pointers (stable for
  // the engine's lifetime) so hot-path bumps are single adds.
  obs::Registry obs_;
  obs::Counter* m_executions_ = nullptr;
  obs::Counter* m_sleep_prunes_ = nullptr;
  obs::Counter* m_rf_choice_points_ = nullptr;
  obs::Counter* m_rf_candidates_ = nullptr;
  obs::Counter* m_sched_choice_points_ = nullptr;
  obs::Counter* m_rf_infeasible_ = nullptr;
  obs::Counter* m_rf_deferred_reads_ = nullptr;
  obs::Counter* m_rf_wait_choices_ = nullptr;
  obs::Histogram* m_trail_depth_ = nullptr;
  obs::Histogram* m_rf_fanout_ = nullptr;
  obs::Gauge* m_mem_peak_ = nullptr;
  obs::Gauge* m_arena_peak_ = nullptr;
  // Heartbeat meter; null unless cfg_.progress_interval_seconds > 0.
  std::unique_ptr<obs::ProgressMeter> progress_;
};

// Facade handed to test bodies. Backend-neutral: the same body runs under
// the model checker and the stress backend unchanged.
class Exec {
 public:
  explicit Exec(harness::Backend& b) : b_(b) {}

  // Spawns a modeled thread; returns its id.
  int spawn(std::function<void()> body) { return b_.spawn_thread(std::move(body)); }
  void join(int tid) { b_.join_thread(tid); }
  // Spin-loop annotation (CDSChecker's thrd_yield): deprioritizes the
  // calling thread until another thread performs a store.
  void yield() { b_.yield_thread(); }

  // Per-execution allocation; memory is recycled between executions, no
  // destructors run. Use for nodes the structure never frees.
  template <typename T, typename... A>
  T* make(A&&... a) {
    return ::new (b_.allocate(sizeof(T), alignof(T))) T(static_cast<A&&>(a)...);
  }

  harness::Backend& backend() { return b_; }

 private:
  harness::Backend& b_;
};

// Convenience wrappers for data-structure internals that do not hold an
// Exec handle (the modeling analogue of thrd_yield / malloc in CDSChecker
// benchmarks).
inline void yield() { harness::Backend::current()->yield_thread(); }

// CDSChecker-style user assertion (the paper's footnote 6: assertions can
// check properties — e.g. of aggregate methods — that the specification
// machinery does not cover). A failure is reported as a violation for the
// current execution; exploration continues (subject to
// stop_on_first_violation).
inline void model_assert(bool cond, const char* what = "model_assert") {
  if (!cond) {
    harness::Backend::current()->report_violation(ViolationKind::kUserAssertion,
                                                  what);
  }
}

template <typename T, typename... A>
T* alloc(A&&... a) {
  return ::new (harness::Backend::current()->allocate(sizeof(T), alignof(T)))
      T(static_cast<A&&>(a)...);
}

}  // namespace cds::mc

#endif  // CDS_MC_ENGINE_H
