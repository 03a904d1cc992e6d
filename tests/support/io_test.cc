// IO hardening: CRC-32 vectors, EINTR-safe full read/write over pipes,
// SIGPIPE containment, and the directory fsyncs behind the journal's
// durable creation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "support/io.h"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cds {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(Crc32, KnownVectors) {
  // Standard IEEE 802.3 check values.
  EXPECT_EQ(support::crc32(std::string("")), 0x00000000u);
  EXPECT_EQ(support::crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(support::crc32(std::string("The quick brown fox jumps over "
                                       "the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, SensitiveToEveryByte) {
  std::string s(256, '\0');
  for (int i = 0; i < 256; ++i) s[i] = static_cast<char>(i);
  const std::uint32_t base = support::crc32(s);
  for (int i = 0; i < 256; i += 37) {
    std::string m = s;
    m[i] = static_cast<char>(m[i] ^ 1);
    EXPECT_NE(support::crc32(m), base) << "flip at " << i;
  }
}

#if defined(__unix__) || defined(__APPLE__)

TEST(FullIo, RoundTripsAcrossAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string msg(70000, 'q');  // larger than the default pipe buffer
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    msg[i] = static_cast<char>('a' + (i % 26));
  }
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(fds[0]);
    bool ok = support::write_full(fds[1], msg);
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string back(msg.size(), '\0');
  EXPECT_TRUE(support::read_full(fds[0], back.data(), back.size()));
  EXPECT_EQ(back, msg);
  char extra = 0;
  EXPECT_EQ(support::read_some(fds[0], &extra, 1), 0) << "expected EOF";
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(FullIo, ReadFullReportsTruncationAtEof) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(support::write_full(fds[1], "abc", 3));
  close(fds[1]);
  char buf[8] = {0};
  EXPECT_FALSE(support::read_full(fds[0], buf, 8));
  close(fds[0]);
}

TEST(FullIo, WriteToDeadPeerFailsWithEpipeNotASignal) {
  support::SigpipeIgnoreScope guard;
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);  // peer is gone
  errno = 0;
  EXPECT_FALSE(support::write_full(fds[1], "doomed", 6));
  EXPECT_EQ(errno, EPIPE);
  close(fds[1]);
}

// Directory-fsync helpers behind the journal's durability: a created file's *name* is only durable once its directory
// has been synced. The positive paths must succeed on a real directory;
// the negative paths must report failure, not crash, so callers can
// degrade to non-durable operation with a warning.
TEST(DirFsync, SyncsARealDirectoryAndAParentOfAFile) {
  const std::string dir = testing::TempDir();
  EXPECT_TRUE(support::fsync_dir(dir));
  const std::string file = tmp_path("fsync-probe.txt");
  {
    std::ofstream f(file, std::ios::trunc);
    f << "x";
  }
  EXPECT_TRUE(support::fsync_parent_dir(file));
  // A bare filename has no directory component: "." is synced.
  EXPECT_TRUE(support::fsync_parent_dir("bare-name-no-dir"));
  std::remove(file.c_str());
}

TEST(DirFsync, MissingDirectoryFailsCleanly) {
  EXPECT_FALSE(support::fsync_dir(tmp_path("no/such/dir/anywhere")));
  EXPECT_FALSE(
      support::fsync_parent_dir(tmp_path("no/such/dir/anywhere/file")));
}

#endif  // fork-capable platforms

}  // namespace
}  // namespace cds
