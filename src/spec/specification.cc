#include "spec/specification.h"

#include <algorithm>
#include <mutex>

namespace cds::spec {

namespace {
// Serializes first sightings of op sites across real threads (stress
// backend); repeat sightings never take it.
std::mutex& op_site_mutex() {
  static std::mutex m;
  return m;
}
}  // namespace

Specification::Specification(std::string name) : name_(std::move(name)) {}
Specification::~Specification() = default;

MethodSpec& Specification::method(const std::string& name) {
  int idx = method_index(name);
  if (idx >= 0) return *methods_[static_cast<std::size_t>(idx)];
  methods_.push_back(
      std::make_unique<MethodSpec>(name, static_cast<int>(methods_.size())));
  return *methods_.back();
}

Specification& Specification::admit(const std::string& m1, const std::string& m2,
                                    AdmitFn guard) {
  // Referencing a method in a rule declares it.
  int i1 = method(m1).index();
  int i2 = method(m2).index();
  admits_.push_back(AdmitRule{i1, i2, std::move(guard)});
  return *this;
}

int Specification::method_index(const std::string& name) const {
  for (const auto& m : methods_) {
    if (m->name() == name) return m->index();
  }
  return -1;
}

int Specification::spec_lines() const {
  int lines = has_state() ? 1 : 0;
  for (const auto& m : methods_) lines += m->annotation_count();
  lines += static_cast<int>(admits_.size());
  lines += static_cast<int>(op_sites_.size());
  return lines;
}

void Specification::note_op_site(const char* kind, const char* file,
                                 std::uint32_t line) const {
  auto seen = [&](const SeenSite* n) {
    for (; n != nullptr; n = n->next) {
      if (n->kind == kind && n->file == file && n->line == line) return true;
    }
    return false;
  };
  if (seen(seen_.load(std::memory_order_acquire))) return;
  std::lock_guard<std::mutex> lock(op_site_mutex());
  const SeenSite* head = seen_.load(std::memory_order_relaxed);
  if (seen(head)) return;  // another thread noted it first
  std::string key =
      std::string(kind) + "@" + file + ":" + std::to_string(line);
  if (std::find(op_sites_.begin(), op_sites_.end(), key) == op_sites_.end()) {
    op_sites_.push_back(std::move(key));
  }
  seen_nodes_.push_back(
      std::make_unique<SeenSite>(SeenSite{kind, file, line, head}));
  seen_.store(seen_nodes_.back().get(), std::memory_order_release);
}

int Specification::ordering_point_sites() const {
  std::lock_guard<std::mutex> lock(op_site_mutex());
  return static_cast<int>(op_sites_.size());
}

}  // namespace cds::spec
