#include "mc/trace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace cds::mc {

using support::LineReader;

namespace {

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

bool parse_one_choice(LineReader& r, std::string_view text, Choice* c) {
  // "S <chosen>/<num>" or "R <chosen>/<num>"
  const std::string shown(text.substr(0, 60));
  if (text.size() < 3 || (text[0] != 'S' && text[0] != 'R') || text[1] != ' ') {
    return r.fail("malformed choice '" + shown +
                  "' (expected 'S <chosen>/<num>' or 'R <chosen>/<num>')");
  }
  std::size_t slash = text.find('/', 2);
  if (slash == std::string_view::npos) {
    return r.fail("malformed choice '" + shown + "' (missing '/')");
  }
  std::uint64_t chosen = 0, num = 0;
  if (!support::parse_u64(text.substr(2, slash - 2), &chosen) ||
      !support::parse_u64(text.substr(slash + 1), &num)) {
    return r.fail("malformed choice '" + shown + "' (bad number)");
  }
  if (num < 2 || num >= 0x10000) {
    return r.fail("choice '" + shown +
                  "': alternative count must be in [2, 65535] "
                  "(single-alternative choice points are never recorded)");
  }
  if (chosen >= num) {
    return r.fail("choice '" + shown + "': chosen index " +
                  std::to_string(chosen) + " out of range [0, " +
                  std::to_string(num) + ")");
  }
  c->kind = text[0] == 'S' ? ChoiceKind::kSchedule : ChoiceKind::kReadsFrom;
  c->chosen = static_cast<std::uint16_t>(chosen);
  c->num = static_cast<std::uint16_t>(num);
  return true;
}

}  // namespace

std::string render_choices(const std::vector<Choice>& v) {
  std::ostringstream os;
  for (const Choice& c : v) {
    os << (c.kind == ChoiceKind::kSchedule ? 'S' : 'R') << ' ' << c.chosen
       << '/' << c.num << '\n';
  }
  return os.str();
}

bool parse_choices(LineReader& r, std::uint64_t n, std::vector<Choice>* out) {
  out->clear();
  out->reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string_view line;
    Choice c{};
    if (!r.next(&line) || !parse_one_choice(r, line, &c)) return false;
    out->push_back(c);
  }
  return true;
}

std::string render_violation(const Violation& v) {
  return std::string("v ") + wire_name(v.kind) + " " +
         std::to_string(v.execution_index) + " " +
         std::to_string(v.test_index) + " " + std::to_string(v.trail.size()) +
         " " + support::escape_line(v.detail) + "\n" +
         render_choices(v.trail);
}

bool parse_violation(LineReader& r, Violation* out) {
  std::string_view rest;
  if (!r.expect("v", &rest)) return false;
  const std::string_view kind = support::take_word(&rest);
  const std::string_view exec = support::take_word(&rest);
  const std::string_view test = support::take_word(&rest);
  const std::string_view nch = support::take_word(&rest);
  Violation v;
  std::uint64_t ti = 0, n = 0;
  if (!parse_violation_kind(std::string(kind), &v.kind) ||
      !support::parse_u64(exec, &v.execution_index) ||
      !support::parse_u64(test, &ti) || ti > UINT32_MAX ||
      !support::parse_u64(nch, &n)) {
    return r.fail("malformed violation line");
  }
  v.test_index = static_cast<std::uint32_t>(ti);
  v.detail = support::unescape_line(rest);
  if (!parse_choices(r, n, &v.trail)) return false;
  *out = std::move(v);
  return true;
}

std::string render_trail(const TrailFile& t) {
  std::ostringstream os;
  os << "cdsspec-trail v" << TrailFile::kVersion << '\n';
  os << "test " << t.test_name << '\n';
  if (!t.backend.empty() && t.backend != "model") {
    os << "backend " << t.backend << '\n';
  }
  if (!t.kind.empty()) os << "kind " << t.kind << '\n';
  if (!t.detail.empty()) {
    os << "detail " << support::escape_line(t.detail) << '\n';
  }
  if (!t.inject_site.empty()) os << "inject " << t.inject_site << '\n';
  os << "config " << support::render_fields(t.config) << '\n';
  os << "choices " << t.choices.size() << '\n';
  os << render_choices(t.choices);
  os << "end\n";
  return os.str();
}

bool parse_trail(const std::string& text, TrailFile* out, std::string* err) {
  *out = TrailFile{};
  LineReader r(text, LineReader::Kind::kFile, err);
  std::string_view rest;
  if (!r.header("cdsspec-trail", TrailFile::kVersion)) return false;
  if (!r.expect("test", &rest)) return false;
  if (rest.empty()) return r.fail("'test' requires a name");
  out->test_name = rest;

  if (r.take("backend", &rest)) {
    // Strict token set: a trail recorded by a future backend this build
    // does not know must fail loudly, never replay under the wrong engine.
    if (rest != "model" && rest != "stress") {
      return r.fail("unknown backend '" + std::string(rest) +
                    "' (this build replays 'model' and 'stress' trails)");
    }
    // Normalize the default so parse(render(t)) round-trips exactly.
    out->backend = rest == "model" ? "" : rest;
  }
  if (r.take("kind", &rest)) out->kind = rest;
  if (r.take("detail", &rest)) out->detail = support::unescape_line(rest);
  if (r.take("inject", &rest)) out->inject_site = rest;

  std::string why;
  if (!r.expect("config", &rest)) return false;
  if (!support::parse_fields(rest, &out->config, &why)) {
    return r.fail("config: " + why);
  }
  std::uint64_t n = 0;
  return r.count("choices", &n) && parse_choices(r, n, &out->choices) &&
         r.end();
}

bool write_text_file_atomic(const std::string& path, const std::string& text,
                            std::string* err) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) return fail(err, "cannot open '" + tmp + "' for writing");
    f << text;
    f.flush();
    if (!f) return fail(err, "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    return fail(err, "cannot rename '" + tmp + "' to '" + path + "': " + why);
  }
  return true;
}

bool read_text_file(const std::string& path, std::string* out,
                    std::string* err) {
  std::ifstream f(path);
  if (!f) return fail(err, "cannot open '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  *out = buf.str();
  return true;
}

bool write_trail_file(const std::string& path, const TrailFile& t,
                      std::string* err) {
  return write_text_file_atomic(path, render_trail(t), err);
}

bool load_trail_file(const std::string& path, TrailFile* out,
                     std::string* err) {
  std::string text;
  if (!read_text_file(path, &text, err)) return false;
  if (!parse_trail(text, out, err)) {
    if (err != nullptr) *err = path + ": " + *err;
    return false;
  }
  return true;
}

}  // namespace cds::mc
