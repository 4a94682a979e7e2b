// write_file_atomic: the one writer behind every result file.
#include "common/file_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace hmcc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(FileIo, ReplacesARegularFileAndLeavesNoTemp) {
  const fs::path dir = fresh_dir("hmcc_file_io_replace");
  const std::string path = (dir / "out.csv").string();
  EXPECT_EQ(write_file_atomic(path, "one\n"), "");
  EXPECT_EQ(write_file_atomic(path, "two\n"), "");
  EXPECT_EQ(slurp(path), "two\n");
  EXPECT_EQ(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator()), 1);
  fs::remove_all(dir);
}

TEST(FileIo, WritesThroughASymlinkInPlace) {
  // A path that is not a regular file is written in place: the rename
  // would replace the link (or a device node) instead of writing to it.
  const fs::path dir = fresh_dir("hmcc_file_io_link");
  const fs::path target = dir / "target.txt";
  const fs::path link = dir / "link.txt";
  ASSERT_EQ(write_file_atomic(target.string(), "old"), "");
  fs::create_symlink(target, link);
  EXPECT_EQ(write_file_atomic(link.string(), "new"), "");
  EXPECT_TRUE(fs::is_symlink(link));
  EXPECT_EQ(slurp(target), "new");
  fs::remove_all(dir);
}

TEST(FileIo, FailureNamesThePathAndTheReason) {
  const fs::path dir = fresh_dir("hmcc_file_io_fail");
  const std::string missing = (dir / "missing" / "x.csv").string();
  EXPECT_EQ(write_file_atomic(missing, "x"),
            missing + ": No such file or directory");
  EXPECT_EQ(write_file_atomic(dir.string(), "x"),
            dir.string() + ": Is a directory");
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hmcc
