#ifndef SAGDFN_UTILS_CLI_H_
#define SAGDFN_UTILS_CLI_H_

#include <map>
#include <string>
#include <vector>

namespace sagdfn::utils {

/// Minimal command-line flag parser for bench binaries and examples.
///
/// Supports `--name=value`, `--name value`, and bare boolean `--name`.
/// Unknown flags are kept and can be listed for error reporting.
class CommandLine {
 public:
  /// Parses argv (skipping argv[0]).
  CommandLine(int argc, char** argv);

  /// Returns the string value or `fallback` if absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Returns the integer value or `fallback` if absent/malformed.
  int64_t GetInt(const std::string& name, int64_t fallback) const;

  /// Returns the double value or `fallback` if absent/malformed.
  double GetDouble(const std::string& name, double fallback) const;

  /// Returns the boolean value; bare `--name` counts as true.
  bool GetBool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace sagdfn::utils

#endif  // SAGDFN_UTILS_CLI_H_
