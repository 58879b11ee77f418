// On-disk scratch directories for tests that touch the filesystem.
//
// gtest_discover_tests registers every TEST as its own ctest entry, run in
// its own process, and `ctest -j` runs those processes concurrently. A fixed
// scratch name is therefore shared by tests that remove_all and recreate it
// under each other. Every directory here carries the running test's full
// name and the process id, so no two concurrently running tests (or two
// runs of the same test) ever share a path.

#ifndef TESTS_SCRATCH_DIR_H_
#define TESTS_SCRATCH_DIR_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <gtest/gtest.h>

namespace ampere {

// An empty directory "<TempDir>ampere_<stem>_<Suite>.<Test>_<pid>",
// removed again on destruction. Parameterized test names have their '/'
// separators flattened so the name stays one path component.
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view stem) {
    std::string name = "ampere_";
    name += stem;
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += '_';
      name += info->test_suite_name();
      name += '.';
      name += info->name();
    }
    name += '_';
    name += std::to_string(static_cast<long>(::getpid()));
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = ::testing::TempDir() + name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ampere

#endif  // TESTS_SCRATCH_DIR_H_
