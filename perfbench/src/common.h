// Shared plumbing of the benchmark runner: pinned parameters, raw-sample
// statistics, the result report, and metrics-registry deltas.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Wall-clock seconds since an arbitrary epoch (steady clock).
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pinned workload parameters, passed as `--param key=value` by run.py
/// from config.json. Every lookup is mandatory: a missing or malformed key
/// aborts the run, so nothing silently falls back to a library default.
class Params {
 public:
  void Set(const std::string& key, const std::string& value);
  int Int(const std::string& key) const;
  double Double(const std::string& key) const;
  std::vector<double> DoubleList(const std::string& key) const;

 private:
  const std::string& Raw(const std::string& key) const;
  std::map<std::string, std::string> values_;
};

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory for stores, traces and models; inside the checkout.
  std::string work_dir;
  Params params;
};

/// Rank-based percentile of raw samples (q in [0, 1]); 0 when empty.
double Percentile(const std::vector<double>& samples, double q);

double Median(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

/// Process peak resident set size in MB (VmHWM).
double PeakRssMb();

/// Recursively removes `path` (if present) and creates it empty.
void ResetDir(const std::string& path);

/// Collects metrics, the operation counts and the output checks of one run
/// and prints them: a human-readable line per metric, then the final JSON
/// object the harness parses.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }
  /// Free-form context line printed before the result.
  void Note(const std::string& line);

  /// Prints every metric and the final JSON line; returns the exit code.
  int Finish() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Snapshot of the default metrics registry's counters and histogram
/// sums/counts. Only exact values are used: counters, and histogram sum
/// and count (never the bucket-interpolated quantiles).
struct RegistryReading {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_sum;
  std::map<std::string, double> hist_count;

  static RegistryReading Take();
  /// this - before, for counter `name` (0 when absent).
  double CounterDelta(const RegistryReading& before,
                      const std::string& name) const;
  double HistSumDelta(const RegistryReading& before,
                      const std::string& name) const;
};

/// Process-unique id for a Sink generation.
uint64_t NextSinkId();

/// Raw samples recorded from many threads (library worker threads
/// included). Each thread appends to a buffer of its own, found through a
/// thread-local cache, so recording takes a lock only on a thread's first
/// sample. Merged() and Clear() require every recording thread to be done.
template <typename T>
class Sink {
 public:
  Sink() : id_(NextSinkId()) {}
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  void Add(T value) { ThreadBuffer()->push_back(std::move(value)); }

  std::vector<T> Merged() const {
    std::vector<T> out;
    for (const auto& buffer : buffers_) {
      out.insert(out.end(), buffer->begin(), buffer->end());
    }
    return out;
  }

  /// Drops every sample. A fresh id orphans the threads' cached pointers.
  void Clear() {
    id_ = NextSinkId();
    buffers_.clear();
  }

 private:
  std::vector<T>* ThreadBuffer() {
    thread_local std::unordered_map<uint64_t, std::vector<T>*> cache;
    auto it = cache.find(id_);
    if (it != cache.end()) return it->second;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<T>>());
    std::vector<T>* buffer = buffers_.back().get();
    cache.emplace(id_, buffer);
    return buffer;
  }

  uint64_t id_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<T>>> buffers_;
};

using SampleSink = Sink<double>;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
