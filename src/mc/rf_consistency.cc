#include "mc/rf_consistency.h"

#include <cassert>

namespace cds::mc {

void RfConsistencyChecker::reset() {
  tid_of_.clear();
  tid_of_.push_back(-1);  // event 0: the shared init pseudo-store
  edges_.clear();
  last_of_thread_.clear();
  // Rows are cleared, not dropped, so they keep their storage; an empty
  // row reads as a location with no recorded writes yet.
  for (std::vector<std::uint32_t>& w : writes_at_) w.clear();
  last_sc_ = 0;
}

std::uint32_t RfConsistencyChecker::new_event(int tid, bool seq_cst) {
  auto id = static_cast<std::uint32_t>(tid_of_.size());
  tid_of_.push_back(tid);
  auto u = static_cast<std::size_t>(tid);
  if (u >= last_of_thread_.size()) last_of_thread_.resize(u + 1, 0);
  if (last_of_thread_[u] != 0) add_edge(last_of_thread_[u] - 1, id);  // po
  last_of_thread_[u] = id + 1;
  if (seq_cst) {
    if (last_sc_ != 0) add_edge(last_sc_ - 1, id);  // sc total order
    last_sc_ = id + 1;
  }
  return id;
}

void RfConsistencyChecker::add_edge(std::uint32_t from, std::uint32_t to) {
  edges_.push_back(Edge{from, to});
}

void RfConsistencyChecker::on_write(int tid, std::uint32_t loc,
                                    std::uint32_t ts, bool seq_cst) {
  std::uint32_t id = new_event(tid, seq_cst);
  if (loc >= writes_at_.size()) writes_at_.resize(loc + 1);
  std::vector<std::uint32_t>& w = writes_at_[loc];
  if (w.empty()) w.push_back(0);  // message 0: init pseudo-store, event 0
  assert(ts == w.size() && "stores must arrive in modification order");
  (void)ts;
  add_edge(w.back(), id);  // mo: previous message -> this one
  w.push_back(id);
}

void RfConsistencyChecker::on_read(int tid, std::uint32_t loc,
                                   std::uint32_t ts, bool seq_cst) {
  std::uint32_t id = new_event(tid, seq_cst);
  if (loc >= writes_at_.size()) writes_at_.resize(loc + 1);
  std::vector<std::uint32_t>& w = writes_at_[loc];
  if (w.empty()) w.push_back(0);
  assert(ts < w.size() && "read observes a message that was never recorded");
  add_edge(w[ts], id);  // rf: the observed write -> this read
}

void RfConsistencyChecker::on_fence(int tid) { (void)new_event(tid, true); }

bool RfConsistencyChecker::validate(std::string* why) {
  const auto n = static_cast<std::uint32_t>(tid_of_.size());
  std::vector<std::uint32_t>& indegree = indegree_;
  std::vector<std::uint32_t>& head = head_;
  std::vector<std::uint32_t>& next = next_;
  std::vector<std::uint32_t>& ready = ready_;
  indegree.assign(n, 0);
  head.assign(n, 0xffffffffu);
  next.assign(edges_.size(), 0xffffffffu);
  ready.clear();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    ++indegree[edges_[i].to];
    next[i] = head[edges_[i].from];
    head[edges_[i].from] = static_cast<std::uint32_t>(i);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  std::uint32_t ordered = 0;
  while (!ready.empty()) {
    std::uint32_t v = ready.back();
    ready.pop_back();
    ++ordered;
    for (std::uint32_t e = head[v]; e != 0xffffffffu; e = next[e]) {
      if (--indegree[edges_[e].to] == 0) ready.push_back(edges_[e].to);
    }
  }
  if (ordered == n) return true;
  if (why != nullptr) {
    *why = "po/rf/mo/sc constraint cycle through " +
           std::to_string(n - ordered) + " of " + std::to_string(n) +
           " events";
  }
  return false;
}

}  // namespace cds::mc
