#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"

namespace perfbench {

void Params::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

const std::string& Params::Raw(const std::string& key) const {
  auto it = values_.find(key);
  GOALEX_CHECK_MSG(it != values_.end(), "missing pinned parameter " << key);
  return it->second;
}

int Params::Int(const std::string& key) const {
  const std::string& raw = Raw(key);
  char* end = nullptr;
  long value = std::strtol(raw.c_str(), &end, 10);
  GOALEX_CHECK_MSG(end != raw.c_str() && *end == '\0',
                   "parameter " << key << " is not an integer: " << raw);
  return static_cast<int>(value);
}

double Params::Double(const std::string& key) const {
  const std::string& raw = Raw(key);
  char* end = nullptr;
  double value = std::strtod(raw.c_str(), &end);
  GOALEX_CHECK_MSG(end != raw.c_str() && *end == '\0',
                   "parameter " << key << " is not a number: " << raw);
  return value;
}

std::vector<double> Params::DoubleList(const std::string& key) const {
  std::vector<double> out;
  std::stringstream stream(Raw(key));
  std::string item;
  while (std::getline(stream, item, ',')) {
    char* end = nullptr;
    double value = std::strtod(item.c_str(), &end);
    GOALEX_CHECK_MSG(end != item.c_str() && *end == '\0',
                     "parameter " << key << " has a bad entry: " << item);
    out.push_back(value);
  }
  GOALEX_CHECK_MSG(!out.empty(), "parameter " << key << " is empty");
  return out;
}

namespace {

std::vector<double> Sorted(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples;
}

}  // namespace

double Percentile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = Sorted(samples);
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

double Median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = Sorted(samples);
  size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double Sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double Mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Sum(samples) / samples.size();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetDir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct_ = false;
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

int Report::Finish() const {
  for (const Entry& entry : metrics_) {
    std::printf("metric %-36s %.6g %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : -1.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

RegistryReading RegistryReading::Take() {
  RegistryReading reading;
  goalex::obs::RegistrySnapshot snapshot =
      goalex::obs::MetricsRegistry::Default().Snapshot();
  for (const auto& counter : snapshot.counters) {
    reading.counters[counter.name] = static_cast<double>(counter.value);
  }
  for (const auto& hist : snapshot.histograms) {
    reading.hist_sum[hist.name] = hist.snapshot.sum;
    reading.hist_count[hist.name] = static_cast<double>(hist.snapshot.count);
  }
  return reading;
}

namespace {
double Lookup(const std::map<std::string, double>& values,
              const std::string& name) {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}
}  // namespace

double RegistryReading::CounterDelta(const RegistryReading& before,
                                     const std::string& name) const {
  return Lookup(counters, name) - Lookup(before.counters, name);
}

double RegistryReading::HistSumDelta(const RegistryReading& before,
                                     const std::string& name) const {
  return Lookup(hist_sum, name) - Lookup(before.hist_sum, name);
}

uint64_t NextSinkId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace perfbench
