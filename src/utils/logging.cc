#include "utils/logging.h"

#include <chrono>
#include <cstdio>
#include <iostream>

namespace sagdfn::utils {
namespace {

constexpr LogLevel kMinLevel = LogLevel::kInfo;

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* basename = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') basename = p + 1;
  }
  stream_ << "[" << LogLevelName(level) << " " << basename << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < static_cast<int>(kMinLevel)) return;
  std::cerr << stream_.str() << std::endl;
}

}  // namespace internal
}  // namespace sagdfn::utils
