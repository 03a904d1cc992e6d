#include "spec/annotations.h"

#include <cassert>
#include <utility>
#include <vector>

#include "harness/backend.h"

namespace cds::spec {

namespace {
Recorder* g_recorder = nullptr;
}

Recorder* Recorder::current() { return g_recorder; }
void Recorder::set_current(Recorder* r) { g_recorder = r; }

void Recorder::begin_execution(const void* backend_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_tag_ = backend_tag;
  ncalls_ = 0;
  next_object_ = 0;
  for (auto& slot : slots_) slot->depth = 0;
}

std::uint32_t Recorder::new_object() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_object_++;
}

Recorder::CallSlot* Recorder::enter(int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto t = static_cast<std::size_t>(tid);
  while (slots_.size() <= t) slots_.push_back(std::make_unique<CallSlot>());
  CallSlot& s = *slots_[t];
  if (s.depth++ > 0) return nullptr;
  // A fresh record that keeps the previous call's `ops` storage.
  std::vector<OPEvent> ops = std::move(s.call.ops);
  ops.clear();
  s.call = CallRecord{};
  s.call.thread = tid;
  s.call.ops = std::move(ops);
  s.potentials.clear();
  return &s;
}

void Recorder::leave(int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(static_cast<std::size_t>(tid) < slots_.size());
  CallSlot& s = *slots_[static_cast<std::size_t>(tid)];
  assert(s.depth > 0);
  if (--s.depth > 0) return;
  // Copy-assigning into a recycled record reuses its `ops` storage.
  if (ncalls_ == calls_.size()) {
    calls_.push_back(s.call);
  } else {
    calls_[ncalls_] = s.call;
  }
  calls_[ncalls_].id = static_cast<std::uint32_t>(ncalls_);
  ++ncalls_;
}

Object::Object(const Specification& s) : spec_(&s) {
  harness::Backend* b = harness::Backend::current();
  if (b == nullptr) return;
  Recorder* r = b->recorder();
  if (r != nullptr && r->armed_for(b)) id_ = r->new_object();
}

Method::Method(const Object& obj, const char* name,
               std::initializer_list<std::int64_t> args)
    : spec_(&obj.spec()) {
  harness::Backend* b = harness::Backend::current();
  if (b == nullptr) return;
  Recorder* r = b->recorder();
  if (r == nullptr || !r->armed_for(b)) return;
  rec_ = r;
  backend_ = b;
  tid_ = b->current_thread();
  // Only the outermost API method call is recorded (Section 4.3: nested
  // API calls are internal calls).
  slot_ = rec_->enter(tid_);
  if (slot_ == nullptr) return;
  CallRecord& c = slot_->call;
  c.spec = spec_;
  c.object = obj.id();
  c.method = spec_->method_index(name);
  assert(c.method >= 0 && "method not declared in the specification");
  int i = 0;
  for (std::int64_t a : args) {
    if (i < CallRecord::kMaxArgs) c.args[i++] = a;
  }
  c.nargs = i;
}

Method::~Method() {
  if (rec_ != nullptr) rec_->leave(tid_);
}

std::int64_t Method::ret(std::int64_t v) {
  if (slot_ != nullptr) {
    slot_->call.c_ret = v;
    slot_->call.has_ret = true;
  }
  return v;
}

OPEvent Method::snapshot() const { return backend_->snapshot_op(tid_); }

void Method::note_site(const char* kind, const std::source_location& loc) const {
  // One spec "line" per distinct textual annotation site.
  if (spec_ != nullptr) spec_->note_op_site(kind, loc.file_name(), loc.line());
}

void Method::op_define(std::source_location loc) {
  note_site("op_define", loc);
  if (slot_ == nullptr) return;
  slot_->call.ops.push_back(snapshot());
}

void Method::potential_op(int label, std::source_location loc) {
  note_site("potential_op", loc);
  if (slot_ == nullptr) return;
  slot_->potentials.emplace_back(label, snapshot());
}

void Method::op_check(int label, std::source_location loc) {
  note_site("op_check", loc);
  if (slot_ == nullptr) return;
  auto& pots = slot_->potentials;
  for (auto it = pots.begin(); it != pots.end();) {
    if (it->first == label) {
      slot_->call.ops.push_back(it->second);
      it = pots.erase(it);
    } else {
      ++it;
    }
  }
}

void Method::op_clear(std::source_location loc) {
  note_site("op_clear", loc);
  if (slot_ == nullptr) return;
  slot_->call.ops.clear();
  slot_->potentials.clear();
}

void Method::op_clear_define(std::source_location loc) {
  note_site("op_clear_define", loc);
  if (slot_ == nullptr) return;
  slot_->call.ops.clear();
  slot_->potentials.clear();
  slot_->call.ops.push_back(snapshot());
}

}  // namespace cds::spec
