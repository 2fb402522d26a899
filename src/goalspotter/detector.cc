#include "goalspotter/detector.h"

#include <cmath>

#include "bpe/bpe_tokenizer.h"
#include "common/check.h"
#include "common/string_util.h"
#include "crf/features.h"
#include "infer/packed.h"
#include "nn/adam.h"
#include "nn/trainer.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "text/word_tokenizer.h"

namespace goalex::goalspotter {
namespace {

constexpr uint32_t kBuckets = 1u << 18;

uint32_t HashFeature(std::string_view text) {
  uint32_t h = 2166136261u;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h % kBuckets;
}

}  // namespace

ObjectiveDetector::ObjectiveDetector()
    : weights_(kBuckets, 0.0f), g2_(kBuckets, 0.0f) {}

std::vector<uint32_t> ObjectiveDetector::Featurize(
    const std::string& text) const {
  text::WordTokenizer tokenizer;
  std::vector<std::string> tokens = tokenizer.TokenizeToStrings(text);
  std::vector<uint32_t> features;
  features.reserve(tokens.size() * 3 + 4);
  std::string prev = "<bos>";
  bool has_percent = false;
  bool has_year = false;
  for (const std::string& token : tokens) {
    std::string lower = AsciiToLower(token);
    features.push_back(HashFeature("u=" + lower));
    features.push_back(HashFeature("b=" + prev + "|" + lower));
    features.push_back(HashFeature("s=" + crf::ShortShape(token)));
    if (token == "%") has_percent = true;
    if (crf::IsYearToken(token)) has_year = true;
    prev = lower;
  }
  if (has_percent) features.push_back(HashFeature("f=percent"));
  if (has_year) features.push_back(HashFeature("f=year"));
  if (tokens.size() < 8) features.push_back(HashFeature("f=short"));
  if (tokens.size() > 30) features.push_back(HashFeature("f=long"));
  return features;
}

void ObjectiveDetector::Train(const std::vector<LabeledBlock>& blocks,
                              const DetectorOptions& options) {
  Rng rng(options.seed);
  std::vector<size_t> order(blocks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const LabeledBlock& block = blocks[idx];
      std::vector<uint32_t> features = Featurize(block.text);
      double z = bias_;
      for (uint32_t f : features) z += weights_[f];
      double p = 1.0 / (1.0 + std::exp(-z));
      double grad = (block.is_objective ? 1.0 : 0.0) - p;

      bias_g2_ += static_cast<float>(grad * grad);
      bias_ += options.learning_rate * static_cast<float>(grad) /
               std::sqrt(bias_g2_ + 1e-8f);
      for (uint32_t f : features) {
        double g = grad - options.l2 * weights_[f];
        g2_[f] += static_cast<float>(g * g);
        weights_[f] += options.learning_rate * static_cast<float>(g) /
                       std::sqrt(g2_[f] + 1e-8f);
      }
    }
  }
}

double ObjectiveDetector::Score(const std::string& text) const {
  double z = bias_;
  for (uint32_t f : Featurize(text)) z += weights_[f];
  return 1.0 / (1.0 + std::exp(-z));
}

bool ObjectiveDetector::IsObjective(const std::string& text,
                                    double threshold) const {
  return Score(text) >= threshold;
}

TransformerObjectiveDetector::TransformerObjectiveDetector(
    TransformerDetectorOptions options)
    : options_(options) {}

TransformerObjectiveDetector::~TransformerObjectiveDetector() = default;

std::vector<int32_t> TransformerObjectiveDetector::Encode(
    const std::string& text) const {
  GOALEX_CHECK(tokenizer_ != nullptr);
  std::vector<int32_t> ids;
  ids.push_back(bpe::Vocab::kBosId);
  for (const bpe::Subword& sw : tokenizer_->Encode(text)) {
    ids.push_back(sw.id);
  }
  ids.push_back(bpe::Vocab::kEosId);
  return ids;
}

void TransformerObjectiveDetector::Train(
    const std::vector<LabeledBlock>& blocks) {
  GOALEX_CHECK(!blocks.empty());
  std::vector<std::string> corpus;
  corpus.reserve(blocks.size());
  for (const LabeledBlock& block : blocks) corpus.push_back(block.text);
  tokenizer_ = std::make_unique<bpe::BpeModel>(bpe::BpeModel::Train(
      corpus, options_.bpe_merges, /*lowercase=*/true));

  // Encode every block once up front — the id sequences are reused each
  // epoch by all gradient slots. Freezing after this keeps the corpus words
  // in the tokenizer's cache for inference.
  std::vector<std::vector<int32_t>> encoded;
  std::vector<int32_t> targets;
  encoded.reserve(blocks.size());
  targets.reserve(blocks.size());
  for (const LabeledBlock& block : blocks) {
    encoded.push_back(Encode(block.text));
    targets.push_back(block.is_objective ? 1 : 0);
  }
  tokenizer_->Freeze();

  nn::TransformerConfig arch;
  arch.vocab_size = static_cast<int32_t>(tokenizer_->vocab().size());
  arch.max_seq_len = options_.max_seq_len;
  arch.d_model = options_.d_model;
  arch.heads = options_.heads;
  arch.layers = options_.layers;
  arch.ffn_dim = options_.ffn_dim;
  arch.dropout = options_.dropout;

  Rng init_rng(options_.seed);
  model_ = std::make_unique<nn::SequenceClassifier>(arch, /*num_classes=*/2,
                                                    init_rng);

  const int32_t slot_count =
      nn::DataParallelTrainer::SlotCount(options_.batch_size);
  std::vector<std::unique_ptr<nn::SequenceClassifier>> replicas;
  std::vector<std::vector<tensor::Var>> replica_params;
  replicas.reserve(static_cast<size_t>(slot_count));
  replica_params.reserve(static_cast<size_t>(slot_count));
  for (int32_t s = 0; s < slot_count; ++s) {
    Rng replica_rng(options_.seed);  // Values get rebound to the master's.
    replicas.push_back(std::make_unique<nn::SequenceClassifier>(
        arch, /*num_classes=*/2, replica_rng));
    replica_params.push_back(replicas.back()->Parameters());
  }

  nn::ParallelTrainerOptions trainer_options;
  trainer_options.batch_size = options_.batch_size;
  trainer_options.num_threads = options_.num_threads;
  trainer_options.seed = options_.seed;
  trainer_options.adam.learning_rate = options_.learning_rate;
  trainer_options.registry =
      obs::Active() ? &obs::MetricsRegistry::Default() : nullptr;
  nn::DataParallelTrainer trainer(model_->Parameters(),
                                  std::move(replica_params), trainer_options);

  const nn::SlotLossFn loss_fn = [&replicas, &encoded, &targets](
                                     size_t slot, size_t example_index,
                                     Rng& rng) {
    return replicas[slot]->ForwardLoss(encoded[example_index],
                                       targets[example_index], rng);
  };

  Rng train_rng(options_.seed + 1);
  std::vector<size_t> order(blocks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    train_rng.Shuffle(order);
    trainer.RunEpoch(order, epoch, loss_fn);
  }

  engine_ = std::make_unique<infer::PackedEngine>(*model_,
                                                  infer::PackedEngineOptions{});
}

int32_t TransformerObjectiveDetector::PredictClass(
    const std::string& text) const {
  GOALEX_CHECK_MSG(model_ != nullptr, "detector is not trained");
  // BOS/EOS make every encoding non-empty: exactly one class comes back.
  const std::vector<int32_t> ids = Encode(text);
  return engine_->Predict(ids)[0];
}

bool TransformerObjectiveDetector::IsObjective(const std::string& text) const {
  return PredictClass(text) == 1;
}

}  // namespace goalex::goalspotter
