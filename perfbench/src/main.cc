// Benchmark runner: runs one workload and prints its metrics. Normally
// started by perfbench/run.py, which builds this binary and passes the
// pinned parameters of perfbench/config.json:
//
//   perfbench_runner --workload <finetune|ingest|serve|dashboard>
//       --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//       [--param key=value ...]
//
// The last line of standard output is the JSON result object.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench_runner: %s\n", message);
  return 2;
}

/// The per-layer metric names of BENCHMARK.json, in a fixed order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* const kMetrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"trace.overhead_pct", "%"},
          {"exec.steals", "count"},
          // finetune
          {"weaksup.label_s", "s"},
          {"finetune.prep_s", "s"},
          {"finetune.epoch_s", "s"},
          {"finetune.f1", "ratio"},
          {"infer.packed_chunks", "count"},
          {"infer.packed_tokens", "count"},
          {"infer.batch_fill", "ratio"},
          // ingest
          {"goalspotter.detect_calls", "count"},
          {"goalspotter.detect_busy_s", "s"},
          {"goalspotter.detect_p50_us", "us"},
          {"goalspotter.detect_p99_us", "us"},
          {"core.extract_calls", "count"},
          {"core.extract_busy_s", "s"},
          {"core.extract_p50_us", "us"},
          {"core.extract_p99_us", "us"},
          {"pipeline.process_s", "s"},
          {"pipeline.other_busy_s", "s"},
          {"exec.utilization", "ratio"},
          {"storage.flush_s", "s"},
          {"storage.wal_appends", "count"},
          {"storage.upserts_inserted", "count"},
          {"storage.upserts_updated", "count"},
          {"storage.upserts_unchanged", "count"},
          {"storage.upserts_stale", "count"},
          {"ingest.detect_f1", "ratio"},
          // serve
          {"serve.generator_lag_p99_ms", "ms"},
          {"serve.enqueue_to_done_p50_ms", "ms"},
          {"serve.enqueue_to_done_p99_ms", "ms"},
          {"serve.batch_extract_p50_ms", "ms"},
          {"serve.batch_extract_p99_ms", "ms"},
          {"serve.batch_size_mean", "count"},
          {"serve.closed_max_size", "count"},
          {"serve.closed_deadline", "count"},
          {"serve.overhead_ratio", "ratio"},
          {"serve.shed", "count"},
          {"serve.failed", "count"},
          // dashboard
          {"storage.upsert_p50_us", "us"},
          {"storage.upsert_p99_us", "us"},
          {"storage.flush_p50_ms", "ms"},
          {"storage.flush_max_ms", "ms"},
          {"storage.seals", "count"},
          {"storage.query_text_p50_us", "us"},
          {"storage.query_text_p99_us", "us"},
          {"storage.query_deadline_range_p50_us", "us"},
          {"storage.query_deadline_range_p99_us", "us"},
          {"storage.query_company_count_p50_us", "us"},
          {"storage.query_company_count_p99_us", "us"},
          {"storage.query_coverage_p50_us", "us"},
          {"storage.query_coverage_p99_us", "us"},
          {"storage.segments", "count"},
          {"storage.reopen_s", "s"},
      };
  return *kMetrics;
}

}  // namespace

void EmitPerLayer(const std::map<std::string, double>& values,
                  Report& report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    report.Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : PerLayerMetrics()) known |= entry.first == name;
    if (!known) std::fprintf(stderr, "unlisted per-layer metric %s\n",
                             name.c_str());
  }
}

void EmitEndToEnd(const EndToEnd& values, Report& report) {
  report.Metric("setup_s", values.setup_s, "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("throughput_per_s", values.throughput_per_s, "1/s");
  report.Metric("secondary_per_s", values.secondary_per_s, "1/s");
  report.Metric("p50_ms", values.p50_ms, "ms");
  report.Metric("p99_ms", values.p99_ms, "ms");
  const double slots[] = {values.throughput_per_s, values.secondary_per_s,
                          values.p50_ms, values.p99_ms};
  const char* const units[] = {"1/s", "1/s", "ms", "ms"};
  for (size_t i = 0; i < values.names.size() && i < 4; ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %.6g %s", values.names[i].c_str(),
                  slots[i], units[i]);
    report.Note(line);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return perfbench::Usage("flag without a value");
    const std::string value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = value == "1";
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args.work_dir = value;
    } else if (std::strcmp(flag, "--param") == 0) {
      size_t eq = value.find('=');
      if (eq == std::string::npos) return perfbench::Usage("bad --param");
      args.params.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return perfbench::Usage("unknown flag");
    }
  }
  if (!have_seed || args.seconds <= 0.0 || args.work_dir.empty()) {
    return perfbench::Usage("--seed, --seconds and --work-dir are required");
  }
  perfbench::ResetDir(args.work_dir);

  perfbench::Report report;
  if (args.workload == "finetune") {
    perfbench::RunFinetune(args, report);
  } else if (args.workload == "ingest") {
    perfbench::RunIngest(args, report);
  } else if (args.workload == "serve") {
    perfbench::RunServe(args, report);
  } else if (args.workload == "dashboard") {
    perfbench::RunDashboard(args, report);
  } else {
    return perfbench::Usage("unknown workload");
  }
  if (args.trace) {
    // Where the time went, per span name: total, and self time (span time
    // not covered by its child spans on the same thread).
    for (const auto& [name, totals] : perfbench::SummarizeSpans()) {
      std::printf("span %-32s count %9lld total %10.4f s self %10.4f s\n",
                  name.c_str(), static_cast<long long>(totals.count),
                  totals.total_s, totals.self_s);
    }
    const std::string path =
        (std::filesystem::path(args.work_dir).parent_path() /
         ("trace-" + args.workload + "-" + std::to_string(args.seed) +
          ".json"))
            .string();
    if (perfbench::WriteChromeTrace(path)) {
      std::printf("trace written to %s\n", path.c_str());
    }
  }
  return report.Finish();
}
