#include "utils/table_printer.h"

#include <algorithm>
#include <sstream>

#include "utils/check.h"

namespace sagdfn::utils {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SAGDFN_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  SAGDFN_CHECK_EQ(row.size(), headers_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::AddRow(std::initializer_list<std::string> row) {
  AddRow(std::vector<std::string>(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row,
                        std::ostringstream& out) {
    out << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      out << " " << row[c]
          << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    out << "\n";
  };

  std::ostringstream out;
  render_row(headers_, out);
  out << "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) render_row(row, out);
  return out.str();
}

}  // namespace sagdfn::utils
