#ifndef SAGDFN_TESTS_TEST_SUPPORT_H_
#define SAGDFN_TESTS_TEST_SUPPORT_H_

// Helpers shared by the test binaries. Header-only, because each test
// binary is built from its one .cc file.

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "utils/check.h"

namespace sagdfn::test_support {

namespace internal {

/// A directory private to this process: made with mkdtemp under gtest's
/// TempDir() on first use, removed with everything in it at exit.
class PrivateTempDir {
 public:
  PrivateTempDir() : owner_pid_(getpid()) {
    std::string base = ::testing::TempDir();
    if (base.empty() || base.back() != '/') base += '/';
    std::string pattern = base + "sagdfn_test_XXXXXX";
    SAGDFN_CHECK(mkdtemp(pattern.data()) != nullptr)
        << "mkdtemp failed for " << pattern;
    path_ = pattern;
  }

  ~PrivateTempDir() {
    // A forked death-test child that exits normally must leave its
    // parent's files alone.
    if (getpid() != owner_pid_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  PrivateTempDir(const PrivateTempDir&) = delete;
  PrivateTempDir& operator=(const PrivateTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  pid_t owner_pid_;
  std::string path_;
};

}  // namespace internal

/// `name` inside this process's private temp directory. Two test
/// processes never share a path, so concurrent runs of one suite (two
/// ctest invocations, a sanitizer script beside ctest) cannot collide on
/// a file that one rewrites while the other maps it.
inline std::string TempPath(const std::string& name) {
  static internal::PrivateTempDir dir;
  return dir.path() + "/" + name;
}

}  // namespace sagdfn::test_support

#endif  // SAGDFN_TESTS_TEST_SUPPORT_H_
