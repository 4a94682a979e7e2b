#include "common/file_io.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace hmcc {
namespace {

/// errno after a failed call, never 0: a short fwrite need not set it.
int last_error() { return errno != 0 ? errno : EIO; }

/// Write @p body to @p path in place; the errno of the first failed step,
/// or 0.
int write_in_place(const std::string& path, std::string_view body) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return last_error();
  int err = 0;
  if (std::fwrite(body.data(), 1, body.size(), f) != body.size()) {
    err = last_error();
  }
  if (std::fclose(f) != 0 && err == 0) err = last_error();
  return err;
}

}  // namespace

std::string write_file_atomic(const std::string& path, std::string_view body) {
  std::error_code ec;
  const std::filesystem::file_status st =
      std::filesystem::symlink_status(path, ec);
  int err = 0;
  if (std::filesystem::exists(st) && !std::filesystem::is_regular_file(st)) {
    err = write_in_place(path, body);
  } else {
    static std::atomic<std::uint64_t> next_tmp{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(next_tmp++);
    err = write_in_place(tmp, body);
    if (err == 0 && std::rename(tmp.c_str(), path.c_str()) != 0) {
      err = last_error();
    }
    if (err != 0) std::remove(tmp.c_str());
  }
  return err == 0 ? std::string()
                  : path + ": " + std::generic_category().message(err);
}

}  // namespace hmcc
