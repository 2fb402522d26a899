#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< Index in the same thread's buffer.
};

/// One thread's spans plus its stack of open span indices. Owned by the
/// global registry so the records outlive short-lived pool threads.
struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;
};

std::atomic<bool> tracing{false};
std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu);
    Buffers().push_back(std::make_unique<ThreadBuffer>());
    buffer = Buffers().back().get();
    buffer->thread = static_cast<uint32_t>(Buffers().size());
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetTracing(bool on) { tracing.store(on, std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!tracing.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = LocalBuffer();
  SpanRecord record;
  record.name = name;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  index_ = static_cast<int64_t>(buffer.spans.size());
  buffer.spans.push_back(record);
  buffer.open.push_back(index_);
  buffer.spans.back().start_ns = NowNs();
}

Span::~Span() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans[static_cast<size_t>(index_)].end_ns = end;
  buffer.open.pop_back();
}

std::map<std::string, SpanTotals> SummarizeSpans() {
  std::map<std::string, SpanTotals> totals;
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const auto& buffer : Buffers()) {
    std::vector<int64_t> child_ns(buffer->spans.size(), 0);
    for (const SpanRecord& span : buffer->spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& span = buffer->spans[i];
      SpanTotals& entry = totals[span.name];
      const int64_t duration = span.end_ns - span.start_ns;
      ++entry.count;
      entry.total_s += duration * 1e-9;
      entry.self_s += (duration - child_ns[i]) * 1e-9;
    }
  }
  return totals;
}

bool WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(registry_mu);
  int64_t origin = INT64_MAX;
  for (const auto& buffer : Buffers()) {
    for (const SpanRecord& span : buffer->spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : Buffers()) {
    for (const SpanRecord& span : buffer->spans) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << buffer->thread
          << ",\"ts\":" << (span.start_ns - origin) / 1000.0
          << ",\"dur\":" << (span.end_ns - span.start_ns) / 1000.0 << "}";
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
