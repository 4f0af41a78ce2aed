#include "testkit/scratch.hpp"

#include <stdlib.h>  // mkdtemp

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace malnet::testkit {

ScratchDir::ScratchDir(std::string_view tag) {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      ("malnet-" + std::string(tag) + "-XXXXXX"))
                         .string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("ScratchDir: mkdtemp " + tmpl + ": " +
                             std::strerror(errno));
  }
  path_ = std::move(tmpl);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;  // best effort: a destructor must not throw
  std::filesystem::remove_all(path_, ec);
}

std::string ScratchDir::file(std::string_view name) const {
  return path_ + "/" + std::string(name);
}

}  // namespace malnet::testkit
