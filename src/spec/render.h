// Diagnostics rendering: the method-call graph of an execution (nodes =
// calls with args/returns, edges = the r relation) as Graphviz DOT, for
// eyeballing why a history ordered calls the way it did.
#ifndef CDS_SPEC_RENDER_H
#define CDS_SPEC_RENDER_H

#include <span>
#include <string>

#include "spec/call.h"

namespace cds::spec {

// Renders the calls (typically Recorder::calls() of one execution) and
// their direct r edges. Calls on different objects get distinct clusters.
[[nodiscard]] std::string render_dot(std::span<const CallRecord> calls);

}  // namespace cds::spec

#endif  // CDS_SPEC_RENDER_H
