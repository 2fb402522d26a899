// Google-benchmark microbenchmarks for the performance-critical components:
// tokenizers, weak labeling, tensor kernels, transformer forward/backward,
// CRF training/decoding, and the detection featurizer.
#include <benchmark/benchmark.h>

#include "bpe/bpe_tokenizer.h"
#include "common/check.h"
#include "common/rng.h"
#include "crf/crf.h"
#include "crf/features.h"
#include "data/generator.h"
#include "goalspotter/detector.h"
#include "labels/iob.h"
#include "nn/adam.h"
#include "nn/transformer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "text/normalizer.h"
#include "text/word_tokenizer.h"
#include "weaksup/weak_labeler.h"

namespace goalex {
namespace {

const char* kSentence =
    "As part of The Climate Pledge, we are committed to reducing absolute "
    "Scope 1 emissions by 62.1% by the end of 2035 against a 2017 baseline "
    "across all our operations.";

std::vector<std::string> Corpus() {
  data::SustainabilityGoalsConfig config;
  config.objective_count = 400;
  std::vector<std::string> out;
  for (const data::Objective& o :
       data::GenerateSustainabilityGoals(config)) {
    out.push_back(o.text);
  }
  return out;
}

void BM_Normalize(benchmark::State& state) {
  std::string noisy = "  Reduce\xE2\x80\x93 emissions\xE2\x80\xA6 by "
                      "20\xC2\xA0% \xE2\x80\x9Cnow\xE2\x80\x9D  ";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Normalize(noisy));
  }
}
BENCHMARK(BM_Normalize);

void BM_WordTokenize(benchmark::State& state) {
  text::WordTokenizer tokenizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(kSentence));
  }
}
BENCHMARK(BM_WordTokenize);

void BM_BpeTrain(benchmark::State& state) {
  std::vector<std::string> corpus = Corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bpe::BpeModel::Train(corpus, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_BpeTrain)->Arg(500)->Arg(2600);

// Cold: a frozen model with an empty encode cache (a loaded model), so
// every word runs the merge loop.
void BM_BpeEncodeCold(benchmark::State& state) {
  auto model = bpe::BpeModel::Deserialize(
      bpe::BpeModel::Train(Corpus(), 2600).Serialize());
  GOALEX_CHECK_OK(model.status());
  model->Freeze();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Encode(kSentence));
  }
}
BENCHMARK(BM_BpeEncodeCold);

// Warm: the sentence was encoded before Freeze(), so every word is a cache
// hit (a trained model encoding its training corpus).
void BM_BpeEncodeWarm(benchmark::State& state) {
  bpe::BpeModel model = bpe::BpeModel::Train(Corpus(), 2600);
  model.Encode(kSentence);
  model.Freeze();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Encode(kSentence));
  }
}
BENCHMARK(BM_BpeEncodeWarm);

void BM_WeakLabeling(benchmark::State& state) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  weaksup::WeakLabeler labeler(&catalog);
  data::Objective objective;
  objective.text = kSentence;
  objective.annotations = {{"Action", "reducing"},
                           {"Amount", "62.1%"},
                           {"Qualifier", "absolute Scope 1 emissions"},
                           {"Baseline", "2017"},
                           {"Deadline", "2035"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeler.Label(objective));
  }
}
BENCHMARK(BM_WeakLabeling);

void BM_Gemm(benchmark::State& state) {
  int64_t n = state.range(0);
  std::vector<float> a(n * n, 0.5f), b(n * n, 0.25f), c(n * n);
  for (auto _ : state) {
    tensor::Gemm(a.data(), b.data(), c.data(), n, n, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_TransformerForward(benchmark::State& state) {
  Rng rng(1);
  nn::TransformerConfig config;
  config.vocab_size = 3000;
  config.max_seq_len = 96;
  config.d_model = 64;
  config.heads = 4;
  config.layers = 2;
  config.ffn_dim = 128;
  config.dropout = 0.0f;
  nn::TokenClassifier model(config, 11, rng);
  std::vector<int32_t> ids(static_cast<size_t>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(ids));
  }
}
BENCHMARK(BM_TransformerForward)->Arg(16)->Arg(32)->Arg(64);

void BM_TransformerTrainStep(benchmark::State& state) {
  Rng rng(1);
  nn::TransformerConfig config;
  config.vocab_size = 3000;
  config.max_seq_len = 96;
  config.d_model = 64;
  config.heads = 4;
  config.layers = 2;
  config.ffn_dim = 128;
  nn::TokenClassifier model(config, 11, rng);
  nn::Adam optimizer(model.Parameters(), nn::AdamOptions());
  std::vector<int32_t> ids(32, 42);
  std::vector<int32_t> targets(32, 0);
  Rng train_rng(2);
  for (auto _ : state) {
    tensor::Var loss = model.ForwardLoss(ids, targets, train_rng);
    tensor::Backward(loss);
    optimizer.Step();
  }
}
BENCHMARK(BM_TransformerTrainStep);

void BM_CrfFeatureExtraction(benchmark::State& state) {
  text::WordTokenizer tokenizer;
  std::vector<std::string> words = tokenizer.TokenizeToStrings(kSentence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf::ExtractFeatures(words));
  }
}
BENCHMARK(BM_CrfFeatureExtraction);

void BM_CrfViterbi(benchmark::State& state) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  crf::LinearChainCrf model(catalog.label_count());
  text::WordTokenizer tokenizer;
  std::vector<std::string> words = tokenizer.TokenizeToStrings(kSentence);
  std::vector<std::vector<uint32_t>> features = crf::ExtractFeatures(words);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(features));
  }
}
BENCHMARK(BM_CrfViterbi);

void BM_DetectorScore(benchmark::State& state) {
  goalspotter::ObjectiveDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Score(kSentence));
  }
}
BENCHMARK(BM_DetectorScore);

}  // namespace
}  // namespace goalex

BENCHMARK_MAIN();
