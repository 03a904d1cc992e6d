#include "spec/observed.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "spec/history.h"
#include "spec/specification.h"

namespace cds::spec {

namespace {

std::string format_call(const CallRecord& c) {
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

std::string format_order(const std::vector<const CallRecord*>& order) {
  std::string s;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0) s += " -> ";
    s += format_call(*order[i]);
  }
  return s;
}

struct ObjectCalls {
  const Specification* spec = nullptr;
  std::vector<const CallRecord*> calls;
};

// One call at its position in a candidate order. A call normally passes via
// pre -> side_effect -> post; when the normal precondition does not hold at
// this position and the method declares justifying conditions, the
// justifying pair stands in (the observed-history analogue of the model
// checker's justifying-subhistory escape — under the weaker real-time r,
// a call that looks out of place may simply have overlapped its justifier).
bool call_passes(const MethodSpec& ms, Ctx& ctx, std::string* why,
                 const CallRecord& c) {
  if (ms.check_pre(ctx)) {
    ms.apply_side_effect(ctx);
    if (ms.check_post(ctx)) return true;
    *why = "postcondition of " + format_call(c) + " failed (S_RET=" +
           std::to_string(ctx.s_ret) + ")";
    return false;
  }
  if (ms.has_justifying()) {
    if (ms.check_justifying_pre(ctx)) {
      ms.apply_side_effect(ctx);
      if (ms.check_justifying_post(ctx)) return true;
      *why = "justifying postcondition of " + format_call(c) + " failed";
      return false;
    }
    *why = "neither precondition nor justifying precondition of " +
           format_call(c) + " holds";
    return false;
  }
  *why = "precondition of " + format_call(c) + " failed";
  return false;
}

// True iff `order` is a legal sequential history of the object.
bool replay_order(const ObjectCalls& oc,
                  const std::vector<const CallRecord*>& order,
                  const std::vector<std::vector<const CallRecord*>>& concurrent,
                  std::string* why) {
  const Specification& spec = *oc.spec;
  Specification::State st(spec);
  for (const CallRecord* cp : order) {
    const CallRecord& c = *cp;
    const MethodSpec& ms = spec.method_at(c.method);
    const std::vector<const CallRecord*>* conc = nullptr;
    for (std::size_t i = 0; i < oc.calls.size(); ++i) {
      if (oc.calls[i] == cp) {
        conc = &concurrent[i];
        break;
      }
    }
    Ctx ctx(st.get(), c, conc);
    if (!call_passes(ms, ctx, why, c)) return false;
  }
  return true;
}

void check_object(const ObjectCalls& oc, std::uint64_t max_histories,
                  ObservedCheckResult* out) {
  const auto n = oc.calls.size();
  if (n == 0 || oc.spec == nullptr) return;
  std::vector<std::vector<int>> succ;
  build_r_edges(oc.calls, succ);

  // concurrent(m): r-unordered peers (consumed by CONCURRENT() in specs).
  std::vector<std::vector<const CallRecord*>> concurrent(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      bool ij = std::find(succ[i].begin(), succ[i].end(),
                          static_cast<int>(j)) != succ[i].end();
      bool ji = std::find(succ[j].begin(), succ[j].end(),
                          static_cast<int>(i)) != succ[j].end();
      if (!ij && !ji) concurrent[i].push_back(oc.calls[j]);
    }
  }

  bool passed = false;
  std::string first_why;
  auto cb = [&](const std::vector<const CallRecord*>& order) {
    ++out->histories_checked;
    std::string why;
    if (replay_order(oc, order, concurrent, &why)) {
      passed = true;
      return false;  // one passing linearization suffices
    }
    if (first_why.empty()) first_why = why;
    return true;
  };

  TopoResult res = for_each_topo_order(oc.calls, succ, max_histories, cb);
  if (passed) return;
  if (res.cycle) {
    // The real-time interval order cannot be cyclic; a cycle means the
    // backend recorded inconsistent ordering points.
    out->violation = true;
    out->detail = "spec '" + oc.spec->name() +
                  "': observed ordering points induce a cyclic r relation";
    return;
  }
  if (res.capped) {
    // Ran out of enumeration budget before finding a passing order; the
    // iteration stays unresolved.
    out->capped = true;
    return;
  }
  out->violation = true;
  std::ostringstream os;
  os << "spec '" << oc.spec->name() << "': no sequential history of the "
     << n << " observed calls passes (" << res.count << " orders tried); "
     << first_why << "\n  observed calls: ";
  os << format_order(oc.calls);
  out->detail = os.str();
}

}  // namespace

ObservedCheckResult check_observed_calls(std::span<const CallRecord> calls,
                                         std::uint64_t max_histories) {
  ObservedCheckResult out;
  std::map<std::pair<const Specification*, std::uint32_t>, ObjectCalls> objs;
  for (const CallRecord& c : calls) {
    if (c.spec == nullptr || c.method < 0) continue;
    ObjectCalls& oc = objs[{c.spec, c.object}];
    oc.spec = c.spec;
    oc.calls.push_back(&c);
  }
  for (auto& [key, oc] : objs) {
    check_object(oc, max_histories, &out);
    if (out.violation) break;
  }
  return out;
}

}  // namespace cds::spec
