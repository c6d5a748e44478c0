#ifndef SAGDFN_UTILS_TABLE_PRINTER_H_
#define SAGDFN_UTILS_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace sagdfn::utils {

/// Renders aligned ASCII tables. Used by every bench binary so the
/// regenerated paper tables share one visual format.
class TablePrinter {
 public:
  /// Constructs a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends one row; must match the header count.
  void AddRow(std::vector<std::string> row);

  /// Convenience: appends a row of already-stringified cells.
  void AddRow(std::initializer_list<std::string> row);

  /// Returns the rendered table as a string.
  std::string ToString() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sagdfn::utils

#endif  // SAGDFN_UTILS_TABLE_PRINTER_H_
