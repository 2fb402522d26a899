// The four benchmark workloads. Each runs set-up (inputs from the seed,
// model training) several times and reports the median as setup_s, then
// measures for Args::seconds, checks its outputs, and fills the Report
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/extractor.h"
#include "data/schema.h"

namespace perfbench {

void RunFinetune(const Args& args, Report& report);
void RunIngest(const Args& args, Report& report);
void RunServe(const Args& args, Report& report);
void RunDashboard(const Args& args, Report& report);

/// Extractor config at the paper architecture (roberta preset, the
/// library's default dimensions) with an explicit thread count.
goalex::core::ExtractorConfig PaperExtractorConfig(int threads, int epochs,
                                                   uint64_t seed);

/// Trains the deployment extractor of `ingest` and `serve` set-up from the
/// pinned extractor_objectives, extractor_epochs, batch_size and threads.
std::unique_ptr<goalex::core::DetailExtractor> TrainDeploymentExtractor(
    const Params& params, uint64_t seed);

/// Byte-level equality of two records (id, text and every field).
bool SameRecord(const goalex::data::DetailRecord& a,
                const goalex::data::DetailRecord& b);

/// Field-level F1 of `predictions` against the gold annotations, with the
/// normalization the paper's evaluation uses.
double FieldF1(const std::vector<goalex::data::Objective>& gold,
               const std::vector<goalex::data::DetailRecord>& predictions);

/// Emits every per-layer metric of the benchmark from `values`, in a fixed
/// order; a layer the workload does not exercise reads 0.
void EmitPerLayer(const std::map<std::string, double>& values,
                  Report& report);

/// The end-to-end metrics every untraced run reports.
struct EndToEnd {
  /// What the throughput, secondary, p50 and p99 slots measure on this
  /// workload, printed beside the values.
  std::vector<std::string> names;
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double secondary_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
void EmitEndToEnd(const EndToEnd& values, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
