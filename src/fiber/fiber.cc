#include "fiber/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(CDS_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
// cds_fiber_switch(save_sp, load_sp): pushes the psABI callee-saved state
// of the running fiber (rbp, rbx, r12-r15, then an 8-byte slot holding the
// MXCSR in its low half and the x87 control word above it), stores rsp to
// *save_sp, loads load_sp and pops the same layout back off the other
// stack. The final ret resumes the other fiber inside its own call to
// cds_fiber_switch, or, for a fresh fiber, enters the address reset()
// placed in the return slot.
extern "C" void cds_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .pushsection .text
  .p2align 4
  .globl cds_fiber_switch
  .hidden cds_fiber_switch
  .type cds_fiber_switch, @function
cds_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size cds_fiber_switch, .-cds_fiber_switch
  .popsection
)");
#endif

namespace cds::fiber {

namespace {
// The fiber being started is handed to the trampoline through a
// file-local slot (makecontext cannot portably pass pointer arguments, and
// the x86-64 first frame has no argument registers to fill). The whole
// checker runs on one OS thread, so this cannot race.
Fiber* g_starting = nullptr;
void (*g_fallthrough)(Fiber&) = nullptr;
#if defined(CDS_FIBER_ASAN)
// The fiber the latest switch left, so the fiber it entered can record
// that stack's bounds for ASan (the only way to learn the native stack's).
Fiber* g_switched_from = nullptr;
#endif

std::size_t round_up_to_page(std::size_t n) {
  long page = ::sysconf(_SC_PAGESIZE);
  auto p = page > 0 ? static_cast<std::size_t>(page) : std::size_t{4096};
  return (n + p - 1) / p * p;
}
}  // namespace

void Fiber::set_fallthrough_handler(void (*handler)(Fiber&)) {
  g_fallthrough = handler;
}

Fiber::~Fiber() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void Fiber::allocate_stack() {
  guard_bytes_ = round_up_to_page(kGuardSize);
  map_bytes_ = guard_bytes_ + round_up_to_page(kStackSize);
  void* m = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m != MAP_FAILED && ::mprotect(m, guard_bytes_, PROT_NONE) == 0) {
    map_ = static_cast<char*>(m);
    return;
  }
  if (m != MAP_FAILED) ::munmap(m, map_bytes_);
  map_ = nullptr;
  map_bytes_ = 0;
  guard_bytes_ = 0;
  heap_stack_ = std::make_unique<char[]>(kStackSize);
}

void Fiber::reset(std::function<void()> entry) {
  assert(!native_);
  if (map_ == nullptr && !heap_stack_) allocate_stack();
  entry_ = std::move(entry);
  started_ = false;
  finished_ = false;
  armed_ = true;
  char* const stack = map_ != nullptr ? map_ + guard_bytes_ : heap_stack_.get();
  const std::size_t size =
      map_ != nullptr ? map_bytes_ - guard_bytes_ : kStackSize;
#if defined(CDS_FIBER_ASAN)
  // The last run's frames never returned, so their redzones are still
  // poisoned on the reused stack.
  __asan_unpoison_memory_region(stack, size);
  asan_bottom_ = stack;
  asan_size_ = size;
  asan_fake_ = nullptr;
#endif
#if defined(__x86_64__)
  // The first frame, in the order cds_fiber_switch pops it: the MXCSR and
  // x87 control word (inherited from the caller, as getcontext would),
  // six zeroed callee-saved registers (rbp = 0 ends frame-pointer walks),
  // the trampoline as the return address, and a null return address for
  // the trampoline itself. That last slot sits 8 bytes below a 16-byte
  // boundary, so the trampoline starts with the alignment a call gives.
  const auto top = reinterpret_cast<std::uintptr_t>(stack + size);
  void** sp = reinterpret_cast<void**>(top & ~std::uintptr_t{15});
  *--sp = nullptr;
  *--sp = reinterpret_cast<void*>(&Fiber::trampoline);
  for (int i = 0; i < 6; ++i) *--sp = nullptr;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  --sp;
  std::memcpy(sp, &mxcsr, sizeof mxcsr);
  std::memcpy(reinterpret_cast<char*>(sp) + 4, &fpu_cw, sizeof fpu_cw);
  sp_ = sp;
#else
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack;
  ctx_.uc_stack.ss_size = size;
  ctx_.uc_link = nullptr;  // fibers always switch out explicitly
  makecontext(&ctx_, &Fiber::trampoline, 0);
#endif
}

bool Fiber::guard_contains(const void* p) const {
  if (map_ == nullptr) return false;
  const char* c = static_cast<const char*>(p);
  return c >= map_ && c < map_ + guard_bytes_;
}

bool Fiber::stack_contains(const void* p) const {
  const char* c = static_cast<const char*>(p);
  if (map_ != nullptr) {
    return c >= map_ + guard_bytes_ && c < map_ + map_bytes_;
  }
  return heap_stack_ && c >= heap_stack_.get() &&
         c < heap_stack_.get() + kStackSize;
}

void Fiber::trampoline() {
  Fiber* self = g_starting;
  g_starting = nullptr;
  self->on_switched_in();
  self->entry_();
  // Entry wrappers must mark_finished() and switch back to the scheduler;
  // falling off the end of a fiber would resume an undefined context. The
  // installed handler can recover by switching away itself (it must not
  // return here).
  if (g_fallthrough != nullptr) g_fallthrough(*self);
  std::fprintf(stderr, "cds::fiber: entry wrapper returned without switching out\n");
  std::abort();
}

void Fiber::switch_to(Fiber& from) {
  assert(armed_ && !finished_ && this != &from);
  if (!native_ && !started_) {
    started_ = true;
    g_starting = this;
  }
#if defined(CDS_FIBER_ASAN)
  g_switched_from = &from;
  // A finished fiber is never resumed: let ASan free its fake stack.
  __sanitizer_start_switch_fiber(from.finished_ ? nullptr : &from.asan_fake_,
                                 asan_bottom_, asan_size_);
#endif
#if defined(__x86_64__)
  cds_fiber_switch(&from.sp_, sp_);
#else
  swapcontext(&from.ctx_, &ctx_);
#endif
  from.on_switched_in();
}

void Fiber::on_switched_in() {
#if defined(CDS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_fake_, &g_switched_from->asan_bottom_,
                                  &g_switched_from->asan_size_);
#endif
}

void Fiber::resumed_by_longjmp() {
#if defined(CDS_FIBER_ASAN)
  __sanitizer_start_switch_fiber(nullptr, asan_bottom_, asan_size_);
  __sanitizer_finish_switch_fiber(asan_fake_, nullptr, nullptr);
#endif
}

}  // namespace cds::fiber
