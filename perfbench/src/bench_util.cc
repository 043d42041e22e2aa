#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int64_t InputRng::Int(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + (pos - static_cast<double>(lo)) * ((*v)[hi] - (*v)[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

const dvms::Status& CallLog::Note(const char* call, const dvms::Status& st) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!st.ok()) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(std::string(call) + ": " + st.ToString());
  }
  return st;
}

void CallLog::AddBatch(const char* call, uint64_t attempted, uint64_t failed,
                       const std::string& first_error) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && errors_.size() < 8) errors_.push_back(std::string(call) + ": " + first_error);
}

uint64_t CallLog::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t CallLog::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> CallLog::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

void Report::Fail(const std::string& why) {
  if (problems.size() < 16) problems.push_back(why);
  correct = false;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (metrics.find(name) == metrics.end()) order.push_back(name);
  metrics[name] = {value, unit};
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(const CallLog& calls) const {
  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  const uint64_t attempted = calls.attempted();
  const uint64_t failed = calls.failed();
  std::printf("public calls: %llu attempted, %llu failed, failed_ops_pct %.4f %%\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted == 0 ? 0.0 : 100.0 * static_cast<double>(failed) /
                                         static_cast<double>(attempted));
  for (const std::string& e : calls.errors()) std::printf("failed call: %s\n", e.c_str());
  for (const std::string& name : order) {
    const auto& [value, unit] = metrics.at(name);
    std::printf("%-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::string line = "samples:";
  for (double ms : samples) line += " " + JsonNumber(ms);
  std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < order.size(); ++i) {
    const auto& [value, unit] = metrics.at(order[i]);
    if (i > 0) json += ", ";
    json += "\"" + order[i] + "\": {\"value\": " + JsonNumber(value) +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace perfbench
