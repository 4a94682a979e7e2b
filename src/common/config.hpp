// Minimal key=value configuration store with typed getters.
//
// Experiment binaries accept "key=value" command-line overrides; modules read
// their parameters through this class so every knob is scriptable.
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
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Parse argv-style overrides; returns the number of accepted
  /// assignments. Entries not of the form "key=value" are skipped and, when
  /// @p rejected is non-null, appended to it so callers can warn instead of
  /// silently dropping a typo'd knob.
  std::size_t parse_args(int argc, const char* const* argv,
                         std::vector<std::string>* rejected = nullptr);

  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace hmcc
