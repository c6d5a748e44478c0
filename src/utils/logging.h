#ifndef SAGDFN_UTILS_LOGGING_H_
#define SAGDFN_UTILS_LOGGING_H_

#include <sstream>
#include <string>

namespace sagdfn::utils {

/// Severity levels for the lightweight logger.
enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

/// The logger emits kInfo and above; kDebug messages are formatted but
/// discarded.

/// Returns a short human-readable tag ("DEBUG", "INFO", ...).
const char* LogLevelName(LogLevel level);

namespace internal {

/// Accumulates one log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace sagdfn::utils

#define SAGDFN_LOG(level)                                        \
  ::sagdfn::utils::internal::LogMessage(                         \
      ::sagdfn::utils::LogLevel::k##level, __FILE__, __LINE__)   \
      .stream()

#endif  // SAGDFN_UTILS_LOGGING_H_
