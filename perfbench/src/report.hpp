// Result record shared by every leg of the benchmark: named values with
// units, correctness checks, request counts, and the run-information
// record. main.cpp prints it as one JSON line; run.py turns that line into
// the benchmark's result object.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC), the benchmark's one clock.
[[nodiscard]] std::int64_t now_ns();
/// CPU nanoseconds of the whole process / of the calling thread.
[[nodiscard]] std::int64_t process_cpu_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();
/// Peak resident set (VmHWM) in MB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
[[nodiscard]] double percentile(std::vector<double>& values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// Record a correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }
  void add_requests(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const { return failed_checks_.empty(); }

  /// One JSON object: {"correct","attempted","failed","checks_failed",
  /// "info","values":{name:{"value","unit"}}}.
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failed_checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
