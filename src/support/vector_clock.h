// Vector clocks and per-location views.
//
// Both happens-before clocks (indexed by thread id) and coherence views
// (indexed by atomic location id) are sparse monotone maps from a dense
// small-integer key space to 32-bit counters. `BasicClock` implements the
// lattice operations once; `VectorClock` and `View` are strong typedefs so
// thread ids and location ids cannot be mixed up.
//
// Storage is inline up to kInline entries and spills to the heap only
// beyond it. Clocks are copied on every synchronization edge (message
// sync clocks, release-sequence heads, mutex release clocks, ordering-point
// snapshots), so a heap-backed clock made each of those copies a malloc.
// The bundled suite runs at most 5 threads and 12 locations per execution,
// and 95% of its executions touch 8 or fewer locations; 8 entries keep
// every thread clock and nearly every view inline.
#ifndef CDS_SUPPORT_VECTOR_CLOCK_H
#define CDS_SUPPORT_VECTOR_CLOCK_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cds::support {

template <typename Tag>
class BasicClock {
 public:
  static constexpr std::uint32_t kInline = 8;

  BasicClock() = default;
  ~BasicClock() {
    if (spilled()) delete[] data_;
  }

  BasicClock(const BasicClock& o) { copy_from(o); }
  BasicClock(BasicClock&& o) noexcept { steal(o); }

  // Assignment reuses this clock's storage whenever it is large enough, so
  // assigning into a recycled clock never allocates.
  BasicClock& operator=(const BasicClock& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  // A moved-from clock is empty (and keeps only its own storage).
  BasicClock& operator=(BasicClock&& o) noexcept {
    if (this == &o) return *this;
    if (o.spilled()) {
      if (spilled()) delete[] data_;
      steal(o);
    } else {
      copy_from(o);
      o.size_ = 0;
    }
    return *this;
  }

  // Value at index `i`; indices beyond the stored prefix are implicitly 0.
  [[nodiscard]] std::uint32_t get(std::size_t i) const {
    return i < size_ ? data_[i] : 0u;
  }

  void set(std::size_t i, std::uint32_t v) {
    grow(i);
    data_[i] = v;
  }

  // set(i, max(get(i), v))
  void raise(std::size_t i, std::uint32_t v) {
    grow(i);
    std::uint32_t& c = data_[i];
    c = std::max(c, v);
  }

  void bump(std::size_t i) {
    grow(i);
    ++data_[i];
  }

  // Pointwise maximum (lattice join).
  void join(const BasicClock& o) {
    if (o.size_ > size_) resize(o.size_);
    for (std::uint32_t i = 0; i < o.size_; ++i) {
      data_[i] = std::max(data_[i], o.data_[i]);
    }
  }

  // Pointwise <= (lattice order). `a.leq(b)` means every component of `a`
  // is covered by `b`.
  [[nodiscard]] bool leq(const BasicClock& o) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (data_[i] > o.get(i)) return false;
    }
    return true;
  }

  [[nodiscard]] bool includes(std::size_t i, std::uint32_t v) const {
    return get(i) >= v;
  }

  // Keeps the storage (inline or spilled) for reuse.
  void clear() { size_ = 0; }

  [[nodiscard]] bool empty() const {
    return std::all_of(data_, data_ + size_,
                       [](std::uint32_t v) { return v == 0; });
  }

  [[nodiscard]] std::size_t stored_size() const { return size_; }

  // Heap bytes this clock owns beyond its own object (0 while inline).
  [[nodiscard]] std::size_t heap_bytes() const {
    return spilled() ? cap_ * sizeof(std::uint32_t) : 0;
  }

  friend bool operator==(const BasicClock& a, const BasicClock& b) {
    return a.leq(b) && b.leq(a);
  }

 private:
  [[nodiscard]] bool spilled() const { return data_ != inline_; }

  void grow(std::size_t i) {
    if (i >= size_) resize(static_cast<std::uint32_t>(i + 1));
  }

  // Grows the stored prefix to `n` entries, zero-filling the new ones.
  void resize(std::uint32_t n) {
    if (n > cap_) reserve(std::max(n, 2 * cap_));
    std::fill(data_ + size_, data_ + n, 0u);
    size_ = n;
  }

  void reserve(std::uint32_t cap) {
    auto* p = new std::uint32_t[cap];
    std::memcpy(p, data_, size_ * sizeof(std::uint32_t));
    if (spilled()) delete[] data_;
    data_ = p;
    cap_ = cap;
  }

  void copy_from(const BasicClock& o) {
    if (o.size_ > cap_) {
      if (spilled()) delete[] data_;
      data_ = new std::uint32_t[o.size_];
      cap_ = o.size_;
    }
    std::memcpy(data_, o.data_, o.size_ * sizeof(std::uint32_t));
    size_ = o.size_;
  }

  // Takes `o`'s contents; requires this clock to be inline (fresh, or its
  // heap block just released).
  void steal(BasicClock& o) {
    size_ = o.size_;
    if (o.spilled()) {
      data_ = o.data_;
      cap_ = o.cap_;
      o.data_ = o.inline_;
      o.cap_ = kInline;
    } else {
      std::memcpy(inline_, o.inline_, o.size_ * sizeof(std::uint32_t));
    }
    o.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  // inline_ until the clock outgrows it, then a heap block of cap_ entries.
  std::uint32_t* data_ = inline_;
  std::uint32_t inline_[kInline] = {};
};

struct ThreadTag {};
struct LocationTag {};

// Happens-before clock: index = thread id, value = per-thread event count.
using VectorClock = BasicClock<ThreadTag>;
// Coherence view: index = atomic location id, value = message timestamp.
using View = BasicClock<LocationTag>;

// The pair of lattices every synchronization edge transports: the
// happens-before component (for race detection and the spec checker's
// ordering relation) and the coherence component (which messages a thread
// is still allowed to read).
struct Timestamps {
  VectorClock vc;
  View view;

  void join(const Timestamps& o) {
    vc.join(o.vc);
    view.join(o.view);
  }

  void clear() {
    vc.clear();
    view.clear();
  }

  [[nodiscard]] bool empty() const { return vc.empty() && view.empty(); }

  [[nodiscard]] std::size_t heap_bytes() const {
    return vc.heap_bytes() + view.heap_bytes();
  }
};

}  // namespace cds::support

#endif  // CDS_SUPPORT_VECTOR_CLOCK_H
