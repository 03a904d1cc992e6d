// Cooperative fibers with a register-only context switch.
//
// The model checker needs full control over thread interleaving: every
// modeled thread runs as a fiber that yields to the scheduler at each
// visible operation. This mirrors CDSChecker's user-level thread library.
// Everything runs on a single OS thread, so no locking is needed anywhere
// in the checker.
//
// Protocol: the engine owns a "native" fiber wrapping the OS thread's own
// context plus one fiber per modeled thread. All switches are
// scheduler <-> thread; a modeled thread's entry wrapper must switch back
// to the scheduler (after calling mark_finished()) instead of returning.
//
// Stacks are mmap'd with a PROT_NONE guard region below them, so a test
// body that overflows its fiber stack faults deterministically in the
// guard instead of silently corrupting a neighboring allocation; the
// engine's crash containment turns that fault into a diagnosed violation
// (see guard_contains()). When mmap is unavailable the stack falls back to
// a plain heap allocation without a guard.
//
// On x86-64 a switch saves and restores only what the psABI makes
// callee-saved (rbx, rbp, r12-r15, rsp, the MXCSR and the x87 control
// word), so it never enters the kernel; reset() writes the fiber's first
// frame straight onto its stack. Other architectures fall back to
// getcontext/makecontext/swapcontext, which also swap the signal mask.
// Under AddressSanitizer every switch is announced through
// __sanitizer_start_switch_fiber/__sanitizer_finish_switch_fiber.
#ifndef CDS_FIBER_FIBER_H
#define CDS_FIBER_FIBER_H

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CDS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CDS_FIBER_ASAN 1
#endif
#endif

#include <cstddef>
#include <functional>
#include <memory>

namespace cds::fiber {

class Fiber {
 public:
  static constexpr std::size_t kStackSize = 256 * 1024;
  // Rounded up to the page size at allocation time.
  static constexpr std::size_t kGuardSize = 16 * 1024;

  Fiber() = default;
  ~Fiber();
  // Not movable: a started fiber's own frames refer to it by address (the
  // trampoline's `self`), so a Fiber must stay at a stable address once
  // reset() has run. Hold fibers by unique_ptr.
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) = delete;
  Fiber& operator=(Fiber&&) = delete;

  // (Re)arms the fiber with an entry function. The stack is allocated once
  // and reused across executions.
  void reset(std::function<void()> entry);

  // Switches from `from` (which must be the currently running fiber) into
  // this fiber. Returns when some fiber later switches back into `from`.
  void switch_to(Fiber& from);

  // The entry wrapper calls this right before its final switch out.
  void mark_finished() { finished_ = true; }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool armed() const { return armed_; }

  // True iff `p` falls inside this fiber's PROT_NONE stack guard — i.e. a
  // fault at `p` is this fiber's stack overflowing. Always false for
  // guard-less (heap-fallback) stacks.
  [[nodiscard]] bool guard_contains(const void* p) const;
  // True iff `p` is inside the usable stack itself.
  [[nodiscard]] bool stack_contains(const void* p) const;

  // Wraps the calling OS thread's own context (no stack/entry of its own).
  void init_native() {
    native_ = true;
    armed_ = true;
  }

  // Invoked on the offending fiber when an entry wrapper returns instead
  // of switching out. The handler must not return: it should mark the
  // fiber finished and switch away (the engine installs one that records
  // the error and abandons the execution). Without a handler the process
  // aborts, as a returned fiber has no context to resume.
  static void set_fallthrough_handler(void (*handler)(Fiber&));

  // Call on a fiber right after a siglongjmp carried control back onto its
  // stack from another fiber's (the engine's crash path), since no
  // switch_to announced that move. Tells ASan which stack is live again
  // and drops the abandoned fiber's fake stack; a no-op in other builds.
  void resumed_by_longjmp();

 private:
  static void trampoline();
  void allocate_stack();
  // Bookkeeping shared by every entry into a fiber, first or resumed.
  void on_switched_in();

#if defined(__x86_64__)
  void* sp_ = nullptr;  // saved stack pointer while switched out
#else
  ucontext_t ctx_{};
#endif
#if defined(CDS_FIBER_ASAN)
  // The stack ASan is told about on a switch into this fiber (learned on
  // the first switch out for the native fiber) and the fake stack it
  // parks while this fiber is switched out.
  const void* asan_bottom_ = nullptr;
  std::size_t asan_size_ = 0;
  void* asan_fake_ = nullptr;
#endif
  // mmap'd region: [map_, map_ + guard_bytes_) is the PROT_NONE guard,
  // [map_ + guard_bytes_, map_ + map_bytes_) the usable stack (grows down
  // toward the guard). Null when the heap fallback is in use.
  char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t guard_bytes_ = 0;
  std::unique_ptr<char[]> heap_stack_;  // fallback when mmap fails
  std::function<void()> entry_;
  bool started_ = false;
  bool finished_ = false;
  bool armed_ = false;
  bool native_ = false;
};

}  // namespace cds::fiber

#endif  // CDS_FIBER_FIBER_H
