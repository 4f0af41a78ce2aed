// A private scratch directory per test. gtest_discover_tests runs every
// TEST as its own process, and `ctest -j` runs those processes
// concurrently, so fixed names under a shared temp directory collide. A
// ScratchDir is a fresh mkdtemp(3) directory, removed with everything in
// it when the ScratchDir is destroyed.
#pragma once

#include <string>
#include <string_view>

namespace malnet::testkit {

class ScratchDir {
 public:
  /// Creates <temp>/malnet-<tag>-XXXXXX, where <temp> is
  /// std::filesystem::temp_directory_path() ($TMPDIR, else /tmp). Throws
  /// std::runtime_error if the directory cannot be made.
  explicit ScratchDir(std::string_view tag = "scratch");
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// path() + "/" + name.
  [[nodiscard]] std::string file(std::string_view name) const;

 private:
  std::string path_;
};

}  // namespace malnet::testkit
