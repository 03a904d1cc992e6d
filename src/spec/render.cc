#include "spec/render.h"

#include <map>
#include <sstream>

#include "spec/specification.h"

namespace cds::spec {

std::string render_dot(std::span<const CallRecord> calls) {
  std::ostringstream os;
  os << "digraph r_relation {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";

  // Cluster per object.
  std::map<std::uint32_t, std::vector<const CallRecord*>> by_object;
  for (const CallRecord& c : calls) by_object[c.object].push_back(&c);

  for (const auto& [obj, group] : by_object) {
    os << "  subgraph cluster_" << obj << " {\n";
    os << "    label=\"" << (group.empty() ? "?" : group[0]->spec->name())
       << " #" << obj << "\";\n";
    for (const CallRecord* c : group) {
      os << "    n" << c->id << " [label=\""
         << c->spec->method_at(c->method).name() << "(";
      for (int i = 0; i < c->nargs; ++i) {
        if (i > 0) os << ",";
        os << c->args[i];
      }
      os << ")";
      if (c->has_ret) os << "=" << c->c_ret;
      os << "\\nT" << c->thread << "\"];\n";
    }
    os << "  }\n";
  }

  // Direct r edges (within objects; r is only used per object).
  for (const auto& [obj, group] : by_object) {
    (void)obj;
    for (const CallRecord* a : group) {
      for (const CallRecord* b : group) {
        if (a == b) continue;
        if (call_r_before(*a, *b)) {
          os << "  n" << a->id << " -> n" << b->id << ";\n";
        }
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace cds::spec
