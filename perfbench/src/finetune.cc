// finetune — the paper's development phase: weak-label and fine-tune the
// extractor at the paper defaults, then extract a large held-out corpus
// with the trained model.
//
// End-to-end: throughput_per_s = training examples x epochs / Train() wall,
// each epoch counted at the median epoch time;
// secondary_per_s = held-out objectives / ExtractAll wall (median pass);
// p50_ms / p99_ms = single Extract() calls over a held-out sample.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/extractor.h"
#include "data/generator.h"
#include "labels/iob.h"
#include "trace.h"
#include "weaksup/weak_labeler.h"
#include "workloads.h"

namespace perfbench {
namespace {

using goalex::data::DetailRecord;
using goalex::data::Objective;

struct Inputs {
  std::vector<Objective> train;
  std::vector<Objective> heldout;
};

Inputs MakeInputs(const Params& params, uint64_t seed) {
  Inputs inputs;
  goalex::data::SustainabilityGoalsConfig train;
  train.objective_count = static_cast<size_t>(params.Int("corpus_objectives"));
  train.seed = 42 + seed;
  inputs.train = goalex::data::GenerateSustainabilityGoals(train);
  goalex::data::SustainabilityGoalsConfig heldout;
  heldout.objective_count =
      static_cast<size_t>(params.Int("heldout_objectives"));
  heldout.seed = 900001 + seed;
  inputs.heldout = goalex::data::GenerateSustainabilityGoals(heldout);
  return inputs;
}

/// One measured extraction pass: ExtractAll over the held-out corpus, then
/// single Extract() calls over the sample, checked against the batch path.
struct ExtractPass {
  double extract_all_s = 0.0;
  std::vector<DetailRecord> records;
  std::vector<double> single_ms;
  int64_t mismatches = 0;
};

ExtractPass RunExtractPass(const goalex::core::DetailExtractor& extractor,
                           const std::vector<Objective>& heldout, int threads,
                           size_t sample) {
  Span span("finetune.extract_pass");
  ExtractPass pass;
  double start = NowSeconds();
  {
    Span extract_all("core.extract_all");
    pass.records = extractor.ExtractAll(heldout, threads);
  }
  pass.extract_all_s = NowSeconds() - start;
  pass.single_ms.reserve(sample);
  for (size_t i = 0; i < sample; ++i) {
    double t0 = NowSeconds();
    DetailRecord record;
    {
      Span extract("core.extract");
      record = extractor.Extract(heldout[i]);
    }
    pass.single_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!SameRecord(record, pass.records[i])) ++pass.mismatches;
  }
  return pass;
}

}  // namespace

void RunFinetune(const Args& args, Report& report) {
  const Params& params = args.params;
  const int threads = params.Int("threads");
  const int epochs = params.Int("epochs");

  // Set-up: corpus generation, repeated; the last copy is used.
  Inputs inputs;
  std::vector<double> setup_s;
  for (int r = 0; r < params.Int("setup_repeats"); ++r) {
    double t0 = NowSeconds();
    inputs = MakeInputs(params, args.seed);
    setup_s.push_back(NowSeconds() - t0);
  }
  const size_t sample =
      std::min(inputs.heldout.size(),
               static_cast<size_t>(params.Int("single_extract_sample")));

  goalex::core::ExtractorConfig config =
      PaperExtractorConfig(threads, epochs, args.seed);
  config.batch_size = params.Int("batch_size");
  goalex::core::DetailExtractor extractor(config);

  std::map<std::string, double> layer;
  if (args.trace) {
    // Weak-labeling probe, outside Train(): Algorithm 1 over the corpus.
    goalex::labels::LabelCatalog catalog(config.kinds);
    goalex::weaksup::WeakLabeler labeler(&catalog, config.weak_labeler);
    double t0 = NowSeconds();
    std::vector<goalex::weaksup::WeakLabeling> labels =
        labeler.LabelAll(inputs.train, threads);
    layer["weaksup.label_s"] = NowSeconds() - t0;
    GOALEX_CHECK_EQ(labels.size(), inputs.train.size());
  }

  const double measure_start = NowSeconds();
  const RegistryReading before_train = RegistryReading::Take();
  SetTracing(args.trace);
  std::vector<double> epoch_s;
  double train_s = 0.0;
  {
    Span span("nn.train");
    double t0 = NowSeconds();
    GOALEX_CHECK_OK(extractor.Train(
        inputs.train, [&](const goalex::core::EpochStats& stats) {
          epoch_s.push_back(stats.seconds);
        }));
    train_s = NowSeconds() - t0;
  }
  SetTracing(false);
  const RegistryReading after_train = RegistryReading::Take();
  const double examples = static_cast<double>(inputs.train.size()) * epochs;

  // Extraction passes fill the rest of the measured time (at least
  // min_extract_passes). A traced run first makes one untraced pass, the
  // reference for the tracing overhead.
  const int min_passes = params.Int("min_extract_passes");
  std::vector<double> pass_rates;
  std::vector<double> single_ms;
  std::vector<DetailRecord> first_records;
  int64_t mismatches = 0;
  double untraced_pass_s = 0.0;
  std::vector<double> traced_pass_s;
  RegistryReading before_pass, after_pass;
  for (int pass_index = 0;; ++pass_index) {
    const bool reference = args.trace && pass_index == 0;
    const size_t counted = pass_rates.size();
    if (!reference && counted >= static_cast<size_t>(min_passes) &&
        NowSeconds() - measure_start >= args.seconds) {
      break;
    }
    const RegistryReading before = RegistryReading::Take();
    SetTracing(args.trace && !reference);
    double t0 = NowSeconds();
    ExtractPass pass =
        RunExtractPass(extractor, inputs.heldout, threads, sample);
    double pass_s = NowSeconds() - t0;
    SetTracing(false);
    if (!reference && counted == 0) {
      before_pass = before;
      after_pass = RegistryReading::Take();
    }
    mismatches += pass.mismatches;
    if (first_records.empty()) first_records = std::move(pass.records);
    if (reference) {
      untraced_pass_s = pass_s;
      continue;
    }
    if (args.trace) traced_pass_s.push_back(pass_s);
    pass_rates.push_back(static_cast<double>(inputs.heldout.size()) /
                         pass.extract_all_s);
    single_ms.insert(single_ms.end(), pass.single_ms.begin(),
                     pass.single_ms.end());
  }

  const double f1 = FieldF1(inputs.heldout, first_records);
  const double f1_floor = params.Double("f1_floor");
  report.Note("finetune: " + std::to_string(inputs.train.size()) +
              " objectives x " + std::to_string(epochs) + " epochs in " +
              std::to_string(train_s) + " s; held-out F1 " +
              std::to_string(f1) + " over " +
              std::to_string(inputs.heldout.size()) + " objectives, " +
              std::to_string(pass_rates.size()) + " extraction passes");
  report.Check(f1 >= f1_floor, "held-out field F1 " + std::to_string(f1) +
                                   " >= floor " + std::to_string(f1_floor));
  report.Check(mismatches == 0,
               "sampled ExtractAll records byte-identical to Extract() (" +
                   std::to_string(mismatches) + " mismatches)");
  report.AddAttempted(static_cast<int64_t>(examples) +
                      static_cast<int64_t>(inputs.heldout.size() +
                                           sample) *
                          static_cast<int64_t>(pass_rates.size()));

  if (!args.trace) {
    EndToEnd e2e;
    e2e.names = {"finetune.train_examples_per_s",
                 "finetune.extract_objectives_per_s",
                 "finetune.extract_p50_ms", "finetune.extract_p99_ms"};
    e2e.setup_s = Median(setup_s);
    // Train() wall with every epoch at the run's median epoch time: one
    // epoch stalled by the host does not decide the run.
    e2e.throughput_per_s =
        examples / (train_s - Sum(epoch_s) + epochs * Median(epoch_s));
    e2e.secondary_per_s = Median(pass_rates);
    e2e.p50_ms = Percentile(single_ms, 0.50);
    e2e.p99_ms = Percentile(single_ms, 0.99);
    report.Note("single Extract() latency over " +
                std::to_string(single_ms.size()) + " samples");
    EmitEndToEnd(e2e, report);
    return;
  }

  layer["finetune.prep_s"] = train_s - Sum(epoch_s);
  layer["finetune.epoch_s"] = Median(epoch_s);
  layer["finetune.f1"] = f1;
  const double chunks =
      after_pass.CounterDelta(before_pass, "infer.packed.chunks");
  const double tokens =
      after_pass.CounterDelta(before_pass, "infer.packed.tokens");
  layer["infer.packed_chunks"] = chunks;
  layer["infer.packed_tokens"] = tokens;
  layer["infer.batch_fill"] =
      chunks > 0 ? tokens / (chunks * config.packed_chunk_tokens) : 0.0;
  layer["exec.steals"] =
      after_train.CounterDelta(before_train, "exec.steals") +
      after_pass.CounterDelta(before_pass, "exec.steals");
  layer["trace.overhead_pct"] =
      100.0 * (Median(traced_pass_s) / untraced_pass_s - 1.0);
  EmitPerLayer(layer, report);
}

}  // namespace perfbench
