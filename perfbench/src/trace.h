// Benchmark-side span tracing. Spans wrap calls into the library's public
// functions from the benchmark's own code; nothing inside the library is
// instrumented. Spans are buffered in memory per thread and written out as
// Chrome trace-event JSON when the run ends. When tracing is off a Span
// costs one relaxed atomic load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Turns span recording on or off process-wide.
void SetTracing(bool on);

/// Scoped span: records [construction, destruction) under `name` (a string
/// literal) with the innermost open span of the same thread as its parent.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;  ///< Slot in the thread's buffer; -1 when off.
};

/// Per-name aggregate of every recorded span.
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  /// Span time not covered by its direct children.
  double self_s = 0.0;
};

/// Aggregates all recorded spans. Call after the traced threads joined.
std::map<std::string, SpanTotals> SummarizeSpans();

/// Writes every recorded span to `path` as Chrome trace-event JSON
/// ("X" complete events, microseconds). Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
