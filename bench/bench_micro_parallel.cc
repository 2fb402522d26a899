// Microbenchmark of the parallel batched inference runtime: serial vs
// parallel throughput of DetailExtractor::ExtractAll and
// WeakLabeler::LabelAll, verifying on the way that the parallel outputs
// are identical to the serial ones (the runtime is order-preserving).
#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"
#include "common/check.h"
#include "data/generator.h"
#include "eval/table.h"
#include "eval/timer.h"
#include "obs/metrics.h"
#include "runtime/batch_runner.h"
#include "runtime/stats.h"
#include "runtime/thread_pool.h"
#include "weaksup/weak_labeler.h"

namespace goalex::bench {
namespace {

// Thread count of the parallel runs: GOALEX_THREADS if set, else auto
// (hardware concurrency). The override lets a pinned CI runner benchmark a
// fixed fan-out.
int ParallelThreads() {
  const char* env = std::getenv("GOALEX_THREADS");
  if (env != nullptr) {
    int threads = std::atoi(env);
    if (threads > 0) return threads;
  }
  return runtime::ThreadPool::DefaultThreadCount();
}

void Run() {
  int parallel_threads = ParallelThreads();
  std::printf("Microbenchmark: parallel batched inference runtime\n");
  std::printf("hardware threads: %d, parallel runs use: %d\n\n",
              runtime::ThreadPool::DefaultThreadCount(), parallel_threads);

  // Train a small extractor once; the benchmark measures inference.
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 400;
  std::vector<data::Objective> train =
      data::GenerateSustainabilityGoals(corpus_config);
  core::ExtractorConfig config =
      DefaultExtractorConfig(Corpus::kSustainabilityGoals);
  config.epochs = 4;
  core::DetailExtractor extractor(config);
  eval::Timer train_timer;
  GOALEX_CHECK_OK(extractor.Train(train));
  std::printf("trained extractor in %.1f s\n\n", train_timer.Seconds());

  // A fresh evaluation corpus so the BPE encode cache sees unseen words
  // too, like production traffic does.
  data::SustainabilityGoalsConfig eval_config;
  eval_config.objective_count = 600;
  eval_config.seed += 9001;
  std::vector<data::Objective> objectives =
      data::GenerateSustainabilityGoals(eval_config);

  runtime::Stats serial;
  std::vector<data::DetailRecord> serial_records =
      extractor.ExtractAll(objectives, /*num_threads=*/1, &serial);
  runtime::Stats parallel;
  std::vector<data::DetailRecord> parallel_records =
      extractor.ExtractAll(objectives, parallel_threads, &parallel);

  GOALEX_CHECK_EQ(serial_records.size(), parallel_records.size());
  for (size_t i = 0; i < serial_records.size(); ++i) {
    GOALEX_CHECK(serial_records[i].objective_id ==
                 parallel_records[i].objective_id);
    GOALEX_CHECK(serial_records[i].fields == parallel_records[i].fields);
  }
  std::printf("parallel ExtractAll output is identical to serial (%zu "
              "records checked)\n\n",
              serial_records.size());

  // Packed ExtractAll vs batch-map mode. ExtractAll tokenizes everything,
  // then predicts length-packed chunks and decodes per objective on a task
  // graph; the batch path below is the pre-refactor shape — one opaque
  // Extract() task (one-member chunk) per objective on a BatchRunner map —
  // still expressible and used here as the throughput baseline.
  runtime::BatchRunner batch_runner(parallel_threads);
  std::vector<data::DetailRecord> batch_records =
      batch_runner.Map<data::DetailRecord>(
          objectives.size(),
          [&](size_t i) { return extractor.Extract(objectives[i]); });
  const runtime::Stats batch = batch_runner.last_stats();
  runtime::Stats packed;
  std::vector<data::DetailRecord> packed_records =
      extractor.ExtractAll(objectives, parallel_threads, &packed);
  GOALEX_CHECK_EQ(batch_records.size(), packed_records.size());
  for (size_t i = 0; i < batch_records.size(); ++i) {
    GOALEX_CHECK(batch_records[i].fields == packed_records[i].fields);
  }
  std::printf("packed ExtractAll output is identical to the batch map "
              "path (%zu records checked)\n\n",
              batch_records.size());

  eval::TextTable pipeline_table(
      {"Mode", "Threads", "Seconds", "Items/s", "Utilization"});
  auto fmt_early = [](double v, int precision) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
    return std::string(buffer);
  };
  pipeline_table.AddRow({"batch map", std::to_string(batch.threads),
                         fmt_early(batch.seconds, 2),
                         fmt_early(batch.ItemsPerSecond(), 1),
                         fmt_early(batch.Utilization(), 2)});
  pipeline_table.AddRow({"packed ExtractAll (task graph)",
                         std::to_string(packed.threads),
                         fmt_early(packed.seconds, 2),
                         fmt_early(packed.ItemsPerSecond(), 1),
                         fmt_early(packed.Utilization(), 2)});
  std::printf("%s\n", pipeline_table.Render().c_str());

  weaksup::WeakLabeler labeler(&extractor.catalog(),
                               config.weak_labeler);
  eval::Timer label_serial_timer;
  std::vector<weaksup::WeakLabeling> label_serial =
      labeler.LabelAll(objectives, 1);
  double label_serial_s = label_serial_timer.Seconds();
  eval::Timer label_parallel_timer;
  std::vector<weaksup::WeakLabeling> label_parallel =
      labeler.LabelAll(objectives, parallel_threads);
  double label_parallel_s = label_parallel_timer.Seconds();
  GOALEX_CHECK_EQ(label_serial.size(), label_parallel.size());
  for (size_t i = 0; i < label_serial.size(); ++i) {
    GOALEX_CHECK(label_serial[i].label_ids == label_parallel[i].label_ids);
  }

  eval::TextTable table({"Stage", "Threads", "Seconds", "Items/s",
                         "Speedup"});
  auto fmt = [](double v, int precision) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
    return std::string(buffer);
  };
  table.AddRow({"ExtractAll (serial)", "1", fmt(serial.seconds, 2),
                fmt(serial.ItemsPerSecond(), 1), "1.00"});
  table.AddRow({"ExtractAll (parallel)", std::to_string(parallel.threads),
                fmt(parallel.seconds, 2), fmt(parallel.ItemsPerSecond(), 1),
                fmt(serial.seconds / parallel.seconds, 2)});
  table.AddRow({"LabelAll (serial)", "1", fmt(label_serial_s, 3),
                fmt(objectives.size() / label_serial_s, 0), "1.00"});
  table.AddRow({"LabelAll (parallel)", std::to_string(parallel_threads),
                fmt(label_parallel_s, 3),
                fmt(objectives.size() / label_parallel_s, 0),
                fmt(label_serial_s / label_parallel_s, 2)});
  std::printf("%s\n", table.Render().c_str());

  // Observability overhead: the same serial ExtractAll with metrics
  // disabled (runtime toggle) vs enabled. The instrumentation adds a few
  // clock reads and relaxed atomic increments per objective, so the two
  // rows should be indistinguishable up to timer noise.
  obs::SetEnabled(false);
  runtime::Stats metrics_off;
  extractor.ExtractAll(objectives, /*num_threads=*/1, &metrics_off);
  obs::SetEnabled(true);
  obs::MetricsRegistry::Default().Reset();
  runtime::Stats metrics_on;
  extractor.ExtractAll(objectives, /*num_threads=*/1, &metrics_on);

  eval::TextTable overhead({"Serial ExtractAll", "Seconds", "Items/s",
                            "Overhead"});
  overhead.AddRow({"metrics disabled", fmt(metrics_off.seconds, 3),
                   fmt(metrics_off.ItemsPerSecond(), 1), "--"});
  overhead.AddRow(
      {"metrics enabled", fmt(metrics_on.seconds, 3),
       fmt(metrics_on.ItemsPerSecond(), 1),
       fmt((metrics_on.seconds / metrics_off.seconds - 1.0) * 100.0, 1) +
           "%"});
  std::printf("%s\n", overhead.Render().c_str());

  // The per-stage latency histograms and throughput counters the enabled
  // run just recorded (format: GOALEX_METRICS=summary|json|prom).
  EmitMetricsSnapshot("metrics-enabled serial ExtractAll");
}

}  // namespace
}  // namespace goalex::bench

int main() {
  goalex::bench::Run();
  return 0;
}
