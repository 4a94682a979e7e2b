#include "common/config.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace hmcc {
namespace {

/// strtoull happily parses "-1" by wrapping it to 2^64-1 — a user typing
/// threads=-1 must get the fallback, not 18 quintillion threads.
bool has_leading_minus(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i < s.size() && s[i] == '-';
}

}  // namespace

bool Config::set_from_string(const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  set(assignment.substr(0, eq), assignment.substr(eq + 1));
  return true;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t Config::get_uint(const std::string& key,
                               std::uint64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (has_leading_minus(it->second)) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 0);
  if (errno == ERANGE) return fallback;
  return (end && *end == '\0' && end != it->second.c_str()) ? v : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // std::from_chars, unlike strtod, ignores LC_NUMERIC: under a
  // comma-decimal locale strtod("1.5") stops at the '.' and the trailing
  // junk check silently turned every fractional knob into its fallback.
  const std::string& s = it->second;
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return fallback;
  return v;
}

std::size_t Config::parse_args(int argc, const char* const* argv,
                               std::vector<std::string>* rejected) {
  std::size_t accepted = 0;
  for (int i = 1; i < argc; ++i) {
    if (set_from_string(argv[i])) {
      ++accepted;
    } else if (rejected) {
      rejected->emplace_back(argv[i]);
    }
  }
  return accepted;
}

}  // namespace hmcc
