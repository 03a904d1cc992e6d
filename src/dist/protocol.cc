#include "dist/protocol.h"

#include <string_view>
#include <utility>
#include <vector>

#include "mc/trace.h"
#include "support/kv.h"

namespace cds::dist {

using support::escape_line;
using support::parse_kv_line;
using support::parse_u64;
using support::take_word;
using support::unescape_line;

// ---------------------------------------------------------------------------
// Control lines
// ---------------------------------------------------------------------------

std::string render_hello(std::uint64_t pid) {
  return std::string("hello ") + kProtocolVersion +
         " pid=" + std::to_string(pid) + "\n";
}

std::string render_welcome(std::uint64_t heartbeat_us, std::uint64_t epoch) {
  return std::string("welcome ") + kProtocolVersion +
         " hb_us=" + std::to_string(heartbeat_us) +
         " epoch=" + std::to_string(epoch) + "\n";
}

std::string render_heartbeat(std::uint64_t shard_id) {
  return "hb " + std::to_string(shard_id) + "\n";
}

std::string render_result_header(std::uint64_t shard_id, std::uint64_t len) {
  return "result " + std::to_string(shard_id) + " " + std::to_string(len) +
         "\n";
}

std::string render_failed(std::uint64_t shard_id, const std::string& reason) {
  return "failed " + std::to_string(shard_id) + " " + escape_line(reason) +
         "\n";
}

std::string render_assign_header(std::uint64_t shard_id, std::uint64_t len) {
  return "assign " + std::to_string(shard_id) + " " + std::to_string(len) +
         "\n";
}

std::string render_steal(std::uint64_t shard_id) {
  return "steal " + std::to_string(shard_id) + "\n";
}

std::string render_quit() { return "quit\n"; }

bool parse_control_line(const std::string& line, ControlLine* out,
                        std::string* err) {
  ControlLine c;
  std::string why;
  auto fail = [&](const std::string& w) {
    if (err) *err = w + ": '" + line.substr(0, 200) + "'";
    return false;
  };
  // "<verb> cdsspec-dist v1 k=v ...": the version pair, then strict fields.
  auto versioned = [&](std::string_view rest,
                       const std::vector<support::KvSlot>& slots) {
    const std::string_view name = take_word(&rest);
    const std::string_view ver = take_word(&rest);
    if (std::string(name) + " " + std::string(ver) != kProtocolVersion) {
      return fail("protocol version mismatch (want '" +
                  std::string(kProtocolVersion) + "') at token 1");
    }
    return parse_kv_line(rest, slots, &why) || fail(why + " at token 3");
  };
  if (line.empty()) return fail("empty control line at token 0");
  std::string_view rest = line;
  const std::string_view verb = take_word(&rest);

  if (verb == "quit") {
    if (line != "quit") return fail("trailing bytes after 'quit' at token 1");
    c.kind = ControlLine::Kind::kQuit;
  } else if (verb == "hb" || verb == "steal") {
    if (!parse_u64(rest, &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    c.kind = verb == "hb" ? ControlLine::Kind::kHeartbeat
                          : ControlLine::Kind::kSteal;
  } else if (verb == "result" || verb == "assign") {
    if (!parse_u64(take_word(&rest), &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    if (!parse_u64(rest, &c.payload_len)) {
      return fail("malformed payload length at token 2");
    }
    c.kind = verb == "result" ? ControlLine::Kind::kResult
                              : ControlLine::Kind::kAssign;
  } else if (verb == "failed") {
    if (!parse_u64(take_word(&rest), &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    c.reason = unescape_line(rest);
    c.kind = ControlLine::Kind::kFailed;
  } else if (verb == "hello") {
    if (!versioned(rest, {{"pid", &c.pid}})) return false;
    c.kind = ControlLine::Kind::kHello;
  } else if (verb == "welcome") {
    if (!versioned(rest, {{"hb_us", &c.heartbeat_us}, {"epoch", &c.epoch}})) {
      return false;
    }
    c.kind = ControlLine::Kind::kWelcome;
  } else {
    return fail("unknown verb '" + std::string(verb.substr(0, 32)) +
                "' at token 0");
  }
  *out = c;
  return true;
}

// ---------------------------------------------------------------------------
// Assignment payload
// ---------------------------------------------------------------------------

std::string render_assignment(const Assignment& a) {
  std::string s = "shard-assign v" + std::to_string(kAssignVersion) + "\n";
  s += "id " + std::to_string(a.shard_id) + "\n";
  s += "bench " + escape_line(a.bench) + "\n";
  s += "unit test=" + std::to_string(a.unit.test_index) +
       " ordinal=" + std::to_string(a.unit.ordinal) +
       " total=" + std::to_string(a.unit.total) +
       " seed=" + std::to_string(a.unit.engine_seed) +
       " samples=" + std::to_string(a.unit.sample_executions) + "\n";
  s += "engine " + support::render_fields(a.engine) + "\n";
  s += "checker " + support::render_fields(a.checker) + "\n";
  s += "prefix " + std::to_string(a.unit.prefix.size()) + "\n";
  s += mc::render_choices(a.unit.prefix);
  s += "end\n";
  return s;
}

bool parse_assignment(const std::string& text, Assignment* out,
                      std::string* err) {
  // Scratch object committed only on full success, so a rejected payload
  // never leaves *out partially populated.
  Assignment a;
  support::LineReader r(text, support::LineReader::Kind::kWire, err);
  std::string_view rest;
  std::string why;
  if (!r.header("shard-assign", kAssignVersion)) return false;
  if (!r.expect("id", &rest)) return false;
  if (!parse_u64(rest, &a.shard_id)) return r.fail("malformed shard id");
  if (!r.expect("bench", &rest)) return false;
  a.bench = unescape_line(rest);
  if (a.bench.empty()) return r.fail("empty benchmark name");

  if (!r.expect("unit", &rest)) return false;
  std::uint64_t test = 0, ordinal = 0, total = 0;
  if (!parse_kv_line(rest,
                     {{"test", &test},
                      {"ordinal", &ordinal},
                      {"total", &total},
                      {"seed", &a.unit.engine_seed},
                      {"samples", &a.unit.sample_executions}},
                     &why)) {
    return r.fail(why);
  }
  a.unit.test_index = static_cast<std::size_t>(test);
  a.unit.ordinal = static_cast<std::size_t>(ordinal);
  a.unit.total = static_cast<std::size_t>(total == 0 ? 1 : total);

  if (!r.expect("engine", &rest)) return false;
  if (!support::parse_fields(rest, &a.engine, &why)) {
    return r.fail("engine: " + why);
  }
  if (a.engine.max_threads < 1 || a.engine.max_threads > 4096) {
    return r.fail("bad engine thread cap");
  }
  if (!r.expect("checker", &rest)) return false;
  if (!support::parse_fields(rest, &a.checker, &why)) {
    return r.fail("checker: " + why);
  }
  std::uint64_t npfx = 0;
  if (!r.count("prefix", &npfx) ||
      !mc::parse_choices(r, npfx, &a.unit.prefix) || !r.end()) {
    return false;
  }
  *out = std::move(a);
  return true;
}

}  // namespace cds::dist
