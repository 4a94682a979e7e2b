#include "common/table.hpp"

#include <cstdio>
#include <sstream>

namespace hmcc {

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::fmt(std::uint64_t v) { return std::to_string(v); }

std::string Table::pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& cells,
                        std::ostringstream& os) {
    os << '|';
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  std::ostringstream os;
  render_row(header_, os);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) render_row(row, os);
  return os.str();
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c ? "," : "") << escape(header_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      os << (c ? "," : "") << (c < row.size() ? escape(row[c]) : std::string{});
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace hmcc
