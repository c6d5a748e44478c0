#include "utils/memory_info.h"

#include <fstream>
#include <sstream>
#include <string>

namespace sagdfn::utils {
namespace {

int64_t ReadStatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream iss(line.substr(std::string(key).size()));
      int64_t kb = 0;
      iss >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace

int64_t PeakRssBytes() { return ReadStatusKb("VmHWM:") * 1024; }

}  // namespace sagdfn::utils
