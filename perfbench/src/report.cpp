#include "report.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {
namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
    failed_checks_.push_back(what);
  }
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"checks_failed\":[";
  for (std::size_t i = 0; i < failed_checks_.size(); ++i) {
    out << (i ? "," : "") << '"' << escape(failed_checks_[i]) << '"';
  }
  out << "],\"info\":{";
  bool first = true;
  for (const auto& [key, value] : info_) {
    out << (first ? "" : ",") << '"' << escape(key) << "\":\"" << escape(value)
        << '"';
    first = false;
  }
  out << "},\"values\":{";
  first = true;
  for (const auto& [name, entry] : values_) {
    const double value = std::isfinite(entry.first) ? entry.first : 0.0;
    out << (first ? "" : ",") << '"' << escape(name) << "\":{\"value\":" << value
        << ",\"unit\":\"" << escape(entry.second) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
