// Model set-up and output comparison shared by the workloads.
#include <memory>

#include "common/check.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "text/normalizer.h"
#include "workloads.h"

namespace perfbench {

using goalex::core::DetailExtractor;
using goalex::core::ExtractorConfig;

ExtractorConfig PaperExtractorConfig(int threads, int epochs, uint64_t seed) {
  ExtractorConfig config;
  config.kinds = goalex::data::SustainabilityGoalKinds();
  config.preset = goalex::core::ModelPreset::kRoberta;
  config.epochs = epochs;
  config.num_threads = threads;
  config.seed = 17 + seed;
  return config;
}

std::unique_ptr<DetailExtractor> TrainDeploymentExtractor(const Params& params,
                                                          uint64_t seed) {
  goalex::data::SustainabilityGoalsConfig corpus;
  corpus.objective_count =
      static_cast<size_t>(params.Int("extractor_objectives"));
  corpus.seed = 1000 + seed;
  std::vector<goalex::data::Objective> objectives =
      goalex::data::GenerateSustainabilityGoals(corpus);
  ExtractorConfig config = PaperExtractorConfig(
      params.Int("threads"), params.Int("extractor_epochs"), seed);
  config.batch_size = params.Int("batch_size");
  auto extractor = std::make_unique<DetailExtractor>(config);
  GOALEX_CHECK_OK(extractor->Train(objectives));
  return extractor;
}

bool SameRecord(const goalex::data::DetailRecord& a,
                const goalex::data::DetailRecord& b) {
  return a.objective_id == b.objective_id &&
         a.objective_text == b.objective_text && a.fields == b.fields;
}

double FieldF1(const std::vector<goalex::data::Objective>& gold,
               const std::vector<goalex::data::DetailRecord>& predictions) {
  goalex::eval::FieldEvaluator evaluator(
      goalex::data::SustainabilityGoalKinds());
  // The extractor reads values out of normalized text, so compare against
  // normalized gold (the evaluation protocol of the paper's Table 4).
  std::vector<goalex::data::Objective> normalized = gold;
  for (goalex::data::Objective& objective : normalized) {
    objective.text = goalex::text::Normalize(objective.text);
    for (goalex::data::Annotation& annotation : objective.annotations) {
      annotation.value = goalex::text::Normalize(annotation.value);
    }
  }
  evaluator.AddAll(normalized, predictions);
  return evaluator.Overall().f1;
}

}  // namespace perfbench
