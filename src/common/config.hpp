// Minimal key=value configuration store.
//
// Every binary reads its command line through desc::Args
// (common/descriptor.hpp), which runs parse_args() once and applies the knob
// tables to the stored values. The fallback getters below return a default
// for a missing or malformed value instead of reporting it: bench/ and
// examples/ read no key through them, only perfbench/ still does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hmcc {

class Config {
 public:
  Config() = default;

  /// Parse "key=value"; returns false on malformed input.
  bool set_from_string(const std::string& assignment);

  void set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Typed getters return @p fallback for missing keys, trailing junk
  /// ("12abc"), and values outside the representable range (ERANGE);
  /// get_uint additionally rejects negative input instead of letting
  /// strtoull wrap it ("threads=-1" must not become 2^64-1 threads).
  [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  /// Parse argv-style overrides; returns the number of accepted
  /// assignments. Entries not of the form "key=value" are skipped and, when
  /// @p rejected is non-null, appended to it so callers can report them
  /// (desc::Args makes each one an error) instead of silently dropping a
  /// typo'd knob.
  std::size_t parse_args(int argc, const char* const* argv,
                         std::vector<std::string>* rejected = nullptr);

  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace hmcc
