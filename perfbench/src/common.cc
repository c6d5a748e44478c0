#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "tensor/simd.h"
#include "utils/memory_info.h"
#include "utils/parallel.h"

namespace perfbench {

namespace {
const Clock::time_point kEpoch = Clock::now();

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool TailHasTenBeyond(int64_t count, double p) {
  return static_cast<double>(count) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

double MedianMs(int reps, const std::function<void()>& fn, int warmup) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> ms;
  ms.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    ms.push_back(NsToMs(static_cast<double>(NowNs() - t0)));
  }
  return Median(std::move(ms));
}

double SteadyUs(const std::function<void()>& fn, double min_seconds,
                int min_iters, int rounds) {
  fn();  // warm caches and lazily built state
  std::vector<double> per_call_us;
  for (int r = 0; r < rounds; ++r) {
    int iters = 0;
    const int64_t t0 = NowNs();
    int64_t elapsed = 0;
    do {
      fn();
      ++iters;
      elapsed = NowNs() - t0;
    } while (elapsed < static_cast<int64_t>(min_seconds / rounds * 1e9) ||
             iters < min_iters);
    per_call_us.push_back(static_cast<double>(elapsed) / 1e3 / iters);
  }
  return Median(std::move(per_call_us));
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

bool Metrics::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

double Metrics::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::nan("") : it->second.first;
}

void Metrics::PrintInfo(const std::string& name, double value,
                        const std::string& unit) const {
  std::printf("metric %-40s %.6g %s\n", name.c_str(), value, unit.c_str());
}

std::string Metrics::ResultJson(bool correct, int64_t attempted,
                                int64_t failed,
                                const std::vector<std::string>& keys) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<int64_t>(attempted, 1)
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const std::string& key : keys) {
    auto it = values_.find(key);
    if (!first) out << ", ";
    first = false;
    const double v = it == values_.end() ? std::nan("") : it->second.first;
    const std::string unit = it == values_.end() ? "" : it->second.second;
    out << JsonString(key) << ": {\"value\": " << JsonNumber(v)
        << ", \"unit\": " << JsonString(unit) << "}";
  }
  out << "}}";
  return out.str();
}

void Tally::Fail(const std::string& why, int64_t n) {
  attempted += n;
  failed += n;
  std::fprintf(stderr, "[perfbench] FAILED (%lld): %s\n",
               static_cast<long long>(n), why.c_str());
}

void Tally::Mismatch(const std::string& why) {
  ++mismatches;
  Fail("output mismatch: " + why);
}

int64_t Tracer::Add(const std::string& name, int64_t start_ns,
                    int64_t end_ns, int64_t parent, int64_t request_id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request_id = request_id;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const Span& s : spans_) {
    out << "{\"name\": " << JsonString(s.name) << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request_id\": "
        << s.request_id << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  return WriteFile(path, out.str());
}

int64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

double PeakRssMb() {
  return static_cast<double>(sagdfn::utils::PeakRssBytes()) /
         (1024.0 * 1024.0);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

void PrintEnvironment(const RunArgs& args) {
  namespace simd = sagdfn::tensor::simd;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf("env workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("env nproc=%u pool_threads=%lld simd=%s git_sha=%s\n",
              std::thread::hardware_concurrency(),
              static_cast<long long>(sagdfn::utils::GetNumThreads()),
              simd::LevelName(simd::ActiveLevel()),
              sha != nullptr ? sha : "unknown");
}

}  // namespace perfbench
