// The shared text-format primitives: the strict number parsers, the
// single-line escaping, and the line reader every format parses through
// (source line numbers, comment skipping for files only, section counts
// and the `end` terminator).
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "support/kv.h"

namespace cds::support {
namespace {

TEST(ParseSeconds, AcceptsFiniteNonNegativeDecimalsOnly) {
  double v = -1;
  EXPECT_TRUE(parse_seconds("0", &v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(parse_seconds("2", &v));
  EXPECT_EQ(v, 2.0);
  EXPECT_TRUE(parse_seconds("0.25", &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(parse_seconds("1.250000", &v));
  EXPECT_EQ(v, 1.25);
  for (const char* bad :
       {"", "nan", "NAN", "inf", "-inf", "infinity", "0x10", " 1", "1 ", "+1",
        "-1", "-0", "1e3", "1.", ".5", "1..2", "1.2.3", "1,5", "abc"}) {
    v = 42;
    EXPECT_FALSE(parse_seconds(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42) << "'" << bad << "' wrote the output";
  }
  // Beyond double's range: not finite, so rejected.
  EXPECT_FALSE(parse_seconds(std::string(400, '9'), &v));
}

TEST(ParseHex32, ExactlyEightLowercaseDigits) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_hex32("deadbeef", &v));
  EXPECT_EQ(v, 0xdeadbeefu);
  EXPECT_TRUE(parse_hex32("00000001", &v));
  EXPECT_EQ(v, 1u);
  for (const char* bad : {"", "1", "0000001", "000000001", "DEADBEEF",
                          "0x000001", "-0000001", " 0000001", "0000000g"}) {
    EXPECT_FALSE(parse_hex32(bad, &v)) << "'" << bad << "'";
  }
}

TEST(EscapeLine, RoundTripsNewlinesAndBackslashes) {
  for (const std::string s :
       {"", "plain", "a\nb", "trailing\\", "\\n literal", "\n\n\\\\\n"}) {
    const std::string e = escape_line(s);
    EXPECT_EQ(e.find('\n'), std::string::npos) << e;
    EXPECT_EQ(unescape_line(e), s) << e;
  }
}

TEST(TakeWord, SplitsOffTheFirstWord) {
  std::string_view s = "v data-race 17 detail with spaces";
  EXPECT_EQ(take_word(&s), "v");
  EXPECT_EQ(take_word(&s), "data-race");
  EXPECT_EQ(take_word(&s), "17");
  EXPECT_EQ(s, "detail with spaces");
  std::string_view last = "end";
  EXPECT_EQ(take_word(&last), "end");
  EXPECT_TRUE(last.empty());
  EXPECT_EQ(take_word(&last), "");
}

TEST(LineReader, FileFormatsSkipCommentsAndKeepSourceLines) {
  const std::string text =
      "# header comment\n"
      "magic v3\r\n"
      "\n"
      "  # indented comment\n"
      "name x y\n"
      "items 2\n"
      "a\n"
      "b\n"
      "end\n";
  std::string err;
  LineReader r(text, LineReader::Kind::kFile, &err);
  std::string_view rest;
  ASSERT_TRUE(r.header("magic", 3)) << err;
  EXPECT_FALSE(r.take("nope", &rest));
  ASSERT_TRUE(r.expect("name", &rest)) << err;
  EXPECT_EQ(rest, "x y");
  std::uint64_t n = 0;
  ASSERT_TRUE(r.count("items", &n)) << err;
  EXPECT_EQ(n, 2u);
  std::string_view line;
  ASSERT_TRUE(r.next(&line));
  EXPECT_EQ(line, "a");
  EXPECT_FALSE(r.fail("bad item"));
  EXPECT_EQ(err, "line 7: bad item");
  ASSERT_TRUE(r.next(&line));
  EXPECT_TRUE(r.end()) << err;
}

TEST(LineReader, WireFormatsTakeEveryLine) {
  // A '#' line or a blank line is content on the wire, not a comment.
  std::string err;
  LineReader r("w v1\n# x\n\nend\n", LineReader::Kind::kWire, &err);
  std::string_view line;
  ASSERT_TRUE(r.header("w", 1));
  ASSERT_TRUE(r.next(&line));
  EXPECT_EQ(line, "# x");
  ASSERT_TRUE(r.next(&line));
  EXPECT_EQ(line, "");
  EXPECT_TRUE(r.end()) << err;
}

TEST(LineReader, DiagnosticsNameTheLine) {
  std::string err;
  auto reader = [&](const char* text) {
    return LineReader(text, LineReader::Kind::kWire, &err);
  };
  EXPECT_FALSE(reader("").header("m", 2));
  EXPECT_NE(err.find("empty input"), std::string::npos) << err;
  EXPECT_FALSE(reader("other v2\n").header("m", 2));
  EXPECT_EQ(err.rfind("line 1: expected 'm'", 0), 0u) << err;
  EXPECT_FALSE(reader("m v1\n").header("m", 2));
  EXPECT_NE(err.find("unsupported version: 'm v1' (this build reads 'm v2')"),
            std::string::npos)
      << err;
  EXPECT_FALSE(reader("m vx\n").header("m", 2));
  EXPECT_NE(err.find("malformed version"), std::string::npos) << err;

  std::string_view rest;
  std::uint64_t n = 0;
  {
    LineReader r = reader("k 3\na\nend\n");
    EXPECT_FALSE(r.count("k", &n));
    EXPECT_EQ(err.rfind("line 1: 'k 3' exceeds the 2 lines left", 0), 0u)
        << err;
  }
  {
    LineReader r = reader("k -1\n");
    EXPECT_FALSE(r.count("k", &n));
    EXPECT_NE(err.find("malformed count"), std::string::npos) << err;
  }
  {
    LineReader r = reader("a\n");
    ASSERT_TRUE(r.expect("a", &rest));
    EXPECT_FALSE(r.expect("b", &rest));
    EXPECT_EQ(err, "line 2: truncated: expected 'b'");
  }
  {
    LineReader r = reader("abc\n");  // a keyword is a whole word
    EXPECT_FALSE(r.expect("ab", &rest));
    EXPECT_EQ(err.rfind("line 1: expected 'ab', found 'abc'", 0), 0u) << err;
  }
  {
    LineReader r = reader("x\n");
    EXPECT_FALSE(r.end());
    EXPECT_NE(err.find("missing 'end' terminator"), std::string::npos) << err;
  }
  {
    LineReader r = reader("end\nmore\n");
    EXPECT_FALSE(r.end());
    EXPECT_EQ(err, "line 2: trailing garbage after 'end'");
  }
}

TEST(ParseKvLine, CustomSlotParsersAreStrictToo) {
  std::uint64_t a = 0, h = 0;
  std::string err;
  EXPECT_TRUE(parse_kv_line("a=5 h=0000beef",
                            {{"a", &a}, {"h", &h, parse_hex32}}, &err))
      << err;
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(h, 0xbeefu);
  EXPECT_FALSE(parse_kv_line("a=5 h=beef", {{"a", &a}, {"h", &h, parse_hex32}},
                             &err));
  EXPECT_NE(err.find("malformed value in 'h=beef'"), std::string::npos) << err;
}

}  // namespace
}  // namespace cds::support
