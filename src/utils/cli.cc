#include "utils/cli.h"

#include "utils/string_util.h"

namespace sagdfn::utils {

CommandLine::CommandLine(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not a flag; else bare boolean.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags_[body] = argv[i + 1];
      ++i;
    } else {
      flags_[body] = "";
    }
  }
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

int64_t CommandLine::GetInt(const std::string& name, int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  int64_t value = 0;
  return ParseInt64(it->second, &value) ? value : fallback;
}

double CommandLine::GetDouble(const std::string& name,
                              double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  double value = 0;
  return ParseDouble(it->second, &value) ? value : fallback;
}

bool CommandLine::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  return false;
}

}  // namespace sagdfn::utils
