#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Shared plumbing of the load generator: the seeded input generator,
// latency samples, public-call accounting and the run report.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64: the benchmark's own input generator, so the inputs depend
/// only on the seed and never on the engine's code.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Unit(); }
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);
double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);

/// Counts every public engine call against its Status. Thread-safe.
class CallLog {
 public:
  /// Records one call; returns `st` so call sites stay one-liners.
  const dvms::Status& Note(const char* call, const dvms::Status& st);
  /// Records calls counted elsewhere (a reader thread's own tally).
  void AddBatch(const char* call, uint64_t attempted, uint64_t failed,
                const std::string& first_error);
  uint64_t attempted() const;
  uint64_t failed() const;
  /// The first failures, for the report.
  std::vector<std::string> errors() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Everything one run reports. Metrics keep insertion order in `order`.
struct Report {
  bool correct = true;
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<std::string> notes;     // human-readable context lines
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> order;
  /// Raw untraced op latencies in ms, printed as the "samples:" line so a
  /// caller can pool several processes' samples.
  std::vector<double> samples;

  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit);
  /// Prints the notes, metrics and problems, then the final JSON line.
  void Print(const CallLog& calls) const;
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// `hardware_concurrency`, at least 1.
size_t Nproc();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
