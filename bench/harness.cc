#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "common/string_util.h"
#include "core/extractor.h"
#include "crf/crf.h"
#include "crf/features.h"
#include "data/generator.h"
#include "eval/timer.h"
#include "exec/executor.h"
#include "labels/iob.h"
#include "llm/llm_extractor.h"
#include "runtime/thread_pool.h"
#include "text/normalizer.h"
#include "text/word_tokenizer.h"
#include "weaksup/weak_labeler.h"

namespace goalex::bench {

const char* CorpusName(Corpus corpus) {
  return corpus == Corpus::kNetZeroFacts ? "NetZeroFacts"
                                         : "Sustainability Goals";
}

const std::vector<std::string>& CorpusKinds(Corpus corpus) {
  return corpus == Corpus::kNetZeroFacts ? data::NetZeroFactsKinds()
                                         : data::SustainabilityGoalKinds();
}

data::Split MakeSplit(Corpus corpus, uint64_t run) {
  if (corpus == Corpus::kNetZeroFacts) {
    data::NetZeroFactsConfig config;
    config.seed += run * 1000;
    return data::TrainTestSplit(data::GenerateNetZeroFacts(config), 0.2,
                                run + 51);
  }
  data::SustainabilityGoalsConfig config;
  config.seed += run * 1000;
  return data::TrainTestSplit(data::GenerateSustainabilityGoals(config), 0.2,
                              run + 51);
}

void MeanResult::Add(const ApproachResult& r) {
  precision += r.prf.precision;
  recall += r.prf.recall;
  f1 += r.prf.f1;
  minutes += r.minutes;
  ++runs;
}

std::vector<std::string> MeanResult::Cells() const {
  GOALEX_CHECK_GT(runs, 0);
  double n = static_cast<double>(runs);
  auto fmt = [&](double v) { return FormatDouble(v / n, 2); };
  std::string time = minutes / n < 1.0 ? "< 1" : FormatDouble(minutes / n, 1);
  return {fmt(precision), fmt(recall), fmt(f1), time};
}

eval::Prf Evaluate(const std::vector<data::Objective>& test,
                   const std::vector<data::DetailRecord>& predictions,
                   Corpus corpus) {
  eval::FieldEvaluator evaluator(CorpusKinds(corpus));
  // Gold annotations compare against extraction from normalized text; the
  // evaluator normalizes whitespace, and the extractor preserves surface
  // forms, so direct comparison is faithful.
  std::vector<data::Objective> normalized = test;
  for (data::Objective& o : normalized) {
    o.text = text::Normalize(o.text);
    for (data::Annotation& a : o.annotations) {
      a.value = text::Normalize(a.value);
    }
  }
  evaluator.AddAll(normalized, predictions);
  return evaluator.Overall();
}

core::ExtractorConfig DefaultExtractorConfig(Corpus corpus) {
  core::ExtractorConfig config;
  config.kinds = CorpusKinds(corpus);
  return config;
}

ApproachResult RunGoalSpotter(const data::Split& split, Corpus corpus,
                              core::ExtractorConfig config) {
  eval::Timer timer;
  core::DetailExtractor extractor(std::move(config));
  GOALEX_CHECK_OK(extractor.Train(split.train));
  std::vector<data::DetailRecord> predictions =
      extractor.ExtractAll(split.test);
  ApproachResult result;
  result.minutes = timer.Minutes();
  result.prf = Evaluate(split.test, predictions, corpus);
  return result;
}

namespace {

// Builds word-level CRF instances from weak-labeled objectives.
std::vector<crf::CrfInstance> BuildCrfInstances(
    const std::vector<data::Objective>& objectives,
    const weaksup::WeakLabeler& labeler) {
  std::vector<crf::CrfInstance> instances;
  instances.reserve(objectives.size());
  for (const data::Objective& objective : objectives) {
    data::Objective normalized = objective;
    normalized.text = text::Normalize(objective.text);
    for (data::Annotation& a : normalized.annotations) {
      a.value = text::Normalize(a.value);
    }
    weaksup::WeakLabeling labeling = labeler.Label(normalized);
    if (labeling.tokens.empty()) continue;
    crf::CrfInstance instance;
    std::vector<std::string> words;
    for (const text::Token& t : labeling.tokens) words.push_back(t.text);
    instance.features =
        crf::ExtractFeatures(words, crf::FeatureTemplate::kBasic);
    instance.labels = labeling.label_ids;
    instances.push_back(std::move(instance));
  }
  return instances;
}

}  // namespace

ApproachResult RunCrfBaseline(const data::Split& split, Corpus corpus) {
  labels::LabelCatalog catalog(CorpusKinds(corpus));
  weaksup::WeakLabeler labeler(&catalog);

  eval::Timer timer;
  std::vector<crf::CrfInstance> train_instances =
      BuildCrfInstances(split.train, labeler);
  crf::LinearChainCrf model(catalog.label_count());
  model.Train(train_instances, crf::CrfOptions());

  // Per-example evaluation fan-out: CRF Viterbi decoding is const and
  // self-contained, so each test objective is predicted on a worker;
  // prediction i always belongs to test objective i.
  text::WordTokenizer tokenizer;
  std::vector<data::DetailRecord> predictions(split.test.size());
  runtime::ThreadPool pool(/*num_threads=*/0);
  exec::ParallelMap(pool, split.test.size(), [&](size_t idx) {
    const data::Objective& objective = split.test[idx];
    std::string normalized = text::Normalize(objective.text);
    std::vector<text::Token> tokens = tokenizer.Tokenize(normalized);
    data::DetailRecord& record = predictions[idx];
    record.objective_id = objective.id;
    record.objective_text = objective.text;
    if (tokens.empty()) return;
    std::vector<std::string> words;
    for (const text::Token& t : tokens) words.push_back(t.text);
    std::vector<labels::LabelId> predicted = model.Predict(
        crf::ExtractFeatures(words, crf::FeatureTemplate::kBasic));
    for (const labels::Span& span : catalog.DecodeSpans(predicted)) {
      const std::string& kind =
          catalog.kinds()[static_cast<size_t>(span.kind)];
      if (record.fields.count(kind) > 0) continue;
      size_t begin = tokens[span.begin].begin;
      size_t end = tokens[span.end - 1].end;
      record.fields[kind] = normalized.substr(begin, end - begin);
    }
  });

  ApproachResult result;
  result.minutes = timer.Minutes();
  result.prf = Evaluate(split.test, predictions, corpus);
  return result;
}

ApproachResult RunPromptingBaseline(const data::Split& split, Corpus corpus,
                                    bool few_shot, uint64_t seed) {
  llm::PromptingBaseline baseline(CorpusKinds(corpus), few_shot, seed);
  if (few_shot) {
    // Three in-context examples, as in the paper [32]. Like a practitioner
    // would, pick stylistically diverse examples: one with a "will ..."
    // action, one with a gerund action, one plain — so the prompt teaches
    // the dataset's annotation conventions.
    const data::Objective* with_will = nullptr;
    const data::Objective* with_gerund = nullptr;
    const data::Objective* plain = nullptr;
    for (const data::Objective& o : split.train) {
      auto action = o.AnnotationValue("Action");
      if (o.annotations.size() < 2) continue;
      if (action && action->rfind("will ", 0) == 0) {
        if (with_will == nullptr) with_will = &o;
      } else if (action && action->size() > 3 &&
                 action->compare(action->size() - 3, 3, "ing") == 0) {
        if (with_gerund == nullptr) with_gerund = &o;
      } else if (plain == nullptr) {
        plain = &o;
      }
      if (with_will != nullptr && with_gerund != nullptr &&
          plain != nullptr) {
        break;
      }
    }
    std::vector<data::Objective> examples;
    for (const data::Objective* o : {plain, with_will, with_gerund}) {
      if (o != nullptr) examples.push_back(*o);
    }
    // Top up to three examples if a style was absent.
    for (const data::Objective& o : split.train) {
      if (examples.size() >= 3) break;
      bool used = false;
      for (const data::Objective& e : examples) used |= (e.id == o.id);
      if (!used && o.annotations.size() >= 2) examples.push_back(o);
    }
    baseline.SetExamples(examples);
  }
  std::vector<data::DetailRecord> predictions =
      baseline.ExtractAll(split.test);

  ApproachResult result;
  result.minutes = baseline.simulated_seconds() / 60.0;
  result.prf = Evaluate(split.test, predictions, corpus);
  return result;
}

DeployedSystem TrainDeployedSystem(uint64_t seed) {
  DeployedSystem system;

  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.seed += seed;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);

  core::ExtractorConfig extractor_config =
      DefaultExtractorConfig(Corpus::kSustainabilityGoals);
  extractor_config.seed += seed;
  system.extractor =
      std::make_unique<core::DetailExtractor>(extractor_config);
  GOALEX_CHECK_OK(system.extractor->Train(corpus));

  std::vector<goalspotter::LabeledBlock> blocks;
  blocks.reserve(corpus.size() * 2);
  for (const data::Objective& o : corpus) {
    blocks.push_back(goalspotter::LabeledBlock{o.text, true});
  }
  Rng noise_rng(seed + 77);
  for (size_t i = 0; i < corpus.size(); ++i) {
    blocks.push_back(goalspotter::LabeledBlock{
        data::GenerateNoiseSentence(noise_rng), false});
  }
  system.detector = std::make_unique<goalspotter::ObjectiveDetector>();
  system.detector->Train(blocks, goalspotter::DetectorOptions());
  return system;
}

int RunCount() {
  const char* env = std::getenv("GOALEX_RUNS");
  if (env != nullptr) {
    int runs = std::atoi(env);
    if (runs > 0) return runs;
  }
  return 3;
}

void EmitMetricsSnapshot(const std::string& label) {
  const char* format = std::getenv("GOALEX_METRICS");
  if (format != nullptr && std::strcmp(format, "off") == 0) return;
  obs::RegistrySnapshot snapshot = obs::MetricsRegistry::Default().Snapshot();
  if (snapshot.Empty()) return;
  std::printf("=== metrics (%s) ===\n", label.c_str());
  if (format != nullptr && std::strcmp(format, "json") == 0) {
    std::printf("%s\n", obs::ToJson(snapshot).c_str());
  } else if (format != nullptr && std::strcmp(format, "prom") == 0) {
    std::printf("%s", obs::ToPrometheus(snapshot).c_str());
  } else {
    std::printf("%s", obs::ToSummary(snapshot).c_str());
  }
}

}  // namespace goalex::bench
