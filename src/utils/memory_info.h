#ifndef SAGDFN_UTILS_MEMORY_INFO_H_
#define SAGDFN_UTILS_MEMORY_INFO_H_

#include <cstdint>

namespace sagdfn::utils {

/// Returns the process peak resident set size in bytes (from
/// /proc/self/status VmHWM), or 0 if unavailable.
int64_t PeakRssBytes();

}  // namespace sagdfn::utils

#endif  // SAGDFN_UTILS_MEMORY_INFO_H_
