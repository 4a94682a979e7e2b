// ASCII table / CSV rendering for benchmark harnesses.
//
// Every bench binary prints the paper's figure as a text table and can also
// dump the same rows as CSV for external plotting.
#pragma once

#include <string>
#include <vector>

namespace hmcc {

class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with @p precision decimals.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt(std::uint64_t v);
  static std::string pct(double fraction, int precision = 2);

  [[nodiscard]] std::string to_ascii() const;
  /// The same rows as CSV; write it with write_file_atomic
  /// (common/file_io.hpp).
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hmcc
