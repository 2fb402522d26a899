// Bit-exactness tests for the inference engine (src/infer/packed.h) against
// its oracle, the autograd evaluation path: packed logits must be
// float-identical — not just close, not just same argmax — to
// ForwardLogits, for both heads (token and mean-pooled sequence), across
// model families, random seeds, every sequence length up to and past
// max_seq_len, one-member and multi-member chunks, and concurrent callers;
// and the whole extractor must emit the word labels the autograd model
// predicts. Parity holds by construction (the engine replays the forward
// kernels of tensor/forward.h with the same per-output float chains);
// these tests pin it down end to end so a future kernel "optimization"
// that reorders float math shows up as an exact diff.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include "bpe/bpe_tokenizer.h"
#include "common/rng.h"
#include "core/extractor.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "infer/packed.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "text/normalizer.h"
#include "text/word_tokenizer.h"

namespace goalex {
namespace {

using infer::PackByLength;
using infer::PackedChunk;
using infer::PackedEngine;
using infer::PackedEngineOptions;

std::string TestDataPath(const std::string& name) {
  return std::string(GOALEX_TESTDATA_DIR) + "/" + name;
}

/// A spread of architectures covering the preset axes: depth, width, head
/// count, FFN ratio, position-encoding flavor, and max_seq_len.
std::vector<nn::TransformerConfig> ParityConfigs() {
  std::vector<nn::TransformerConfig> configs;
  nn::TransformerConfig base;
  base.vocab_size = 120;
  base.max_seq_len = 16;
  base.d_model = 16;
  base.heads = 4;
  base.layers = 2;
  base.ffn_dim = 32;
  configs.push_back(base);

  nn::TransformerConfig bert_like = base;
  bert_like.sinusoidal_positions = true;
  bert_like.layers = 1;
  configs.push_back(bert_like);

  nn::TransformerConfig wide = base;
  wide.d_model = 32;
  wide.heads = 2;
  wide.ffn_dim = 96;
  wide.max_seq_len = 24;
  configs.push_back(wide);

  nn::TransformerConfig deep = base;
  deep.layers = 3;
  deep.max_seq_len = 8;
  configs.push_back(deep);
  return configs;
}

std::vector<int32_t> RandomIds(size_t len, int32_t vocab, Rng& rng) {
  std::vector<int32_t> ids(len);
  for (size_t i = 0; i < len; ++i) {
    ids[i] = rng.NextInt(0, vocab - 1);
  }
  return ids;
}

/// One sequence of every length 1..max_seq_len plus two past it
/// (truncation), shuffled so packing has to reorder them.
std::vector<std::vector<int32_t>> EveryLength(
    const nn::TransformerConfig& config, Rng& rng) {
  std::vector<std::vector<int32_t>> batch;
  for (int32_t len = 1; len <= config.max_seq_len + 2; ++len) {
    batch.push_back(
        RandomIds(static_cast<size_t>(len), config.vocab_size, rng));
  }
  rng.Shuffle(batch);
  return batch;
}

std::vector<const std::vector<int32_t>*> Ptrs(
    const std::vector<std::vector<int32_t>>& batch) {
  std::vector<const std::vector<int32_t>*> ptrs;
  ptrs.reserve(batch.size());
  for (const std::vector<int32_t>& seq : batch) ptrs.push_back(&seq);
  return ptrs;
}

/// The autograd oracle's labels: per token, or one class per sequence.
std::vector<int32_t> OracleLabels(const nn::TokenClassifier& model,
                                  const std::vector<int32_t>& ids) {
  return model.Predict(ids);
}
std::vector<int32_t> OracleLabels(const nn::SequenceClassifier& model,
                                  const std::vector<int32_t>& ids) {
  return {model.Predict(ids)};
}

/// The autograd eval logits of `ids`, row-major.
template <typename Model>
std::vector<float> OracleLogits(const Model& model,
                                const std::vector<int32_t>& ids) {
  const tensor::Var logits = model.ForwardLogits(ids);
  const float* data = logits->value().data();
  return std::vector<float>(data, data + logits->value().numel());
}

/// True when `ids` run as a one-member chunk reproduces `expected` (its
/// OracleLogits) float for float, ignoring the head's zero padding.
bool OneMemberChunkMatches(const PackedEngine& engine,
                           const std::vector<int32_t>& ids,
                           const std::vector<float>& expected) {
  const PackedChunk chunk =
      PackByLength({&ids}, engine.max_seq_len(), engine.chunk_tokens())[0];
  const PackedEngine::ChunkLogits logits = engine.ForwardChunk(chunk);
  const size_t cols = static_cast<size_t>(engine.num_labels());
  for (size_t k = 0; k < expected.size(); ++k) {
    const size_t row = k / cols;
    if (logits.data[row * static_cast<size_t>(logits.cols) + k % cols] !=
        expected[k]) {
      return false;
    }
  }
  return true;
}

/// ASSERTs float identity (==, not NEAR) between the engine's logits for
/// every member of every chunk of `batch` and the member's autograd eval
/// logits, and label identity through PredictBatch. A token head owns its
/// members' token rows; a sequence head one pooled row per member.
template <typename Model>
void ExpectPackedMatchesAutograd(
    const Model& model, const PackedEngine& engine,
    const std::vector<std::vector<int32_t>>& batch) {
  constexpr bool kPooled = std::is_same_v<Model, nn::SequenceClassifier>;
  for (const PackedChunk& chunk : PackByLength(
           Ptrs(batch), engine.max_seq_len(), engine.chunk_tokens())) {
    const PackedEngine::ChunkLogits logits = engine.ForwardChunk(chunk);
    ASSERT_EQ(logits.cols, engine.logit_cols());
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const std::vector<int32_t>& ids = batch[chunk.sequence[s]];
      const tensor::Var expected = model.ForwardLogits(ids);
      const int64_t rows = expected->value().dim(0);
      ASSERT_EQ(rows, kPooled ? 1 : chunk.offsets[s + 1] - chunk.offsets[s]);
      ASSERT_EQ(expected->value().dim(1), engine.num_labels());
      const int64_t first = kPooled ? s : chunk.offsets[s];
      for (int64_t r = 0; r < rows; ++r) {
        const float* got = logits.data + (first + r) * logits.cols;
        const float* want =
            expected->value().data() + r * engine.num_labels();
        for (int64_t j = 0; j < engine.num_labels(); ++j) {
          ASSERT_EQ(got[j], want[j]) << "T=" << ids.size() << " row " << r
                                     << " label " << j;
        }
        // Padded columns are exactly zero by construction.
        for (int64_t j = engine.num_labels(); j < logits.cols; ++j) {
          ASSERT_EQ(got[j], 0.0f);
        }
      }
    }
  }
  const std::vector<std::vector<int32_t>> labels =
      engine.PredictBatch(Ptrs(batch));
  ASSERT_EQ(labels.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(labels[i], OracleLabels(model, batch[i])) << "sequence " << i;
  }
}

/// Both chunk shapes the extractor runs: chunk_tokens = 1 makes every
/// sequence an oversize one-member chunk (what Extract() and the detector
/// run), the default packs many members per chunk (ExtractAll).
template <typename Model>
void ExpectBothChunkShapesMatch(
    const Model& model, const std::vector<std::vector<int32_t>>& batch) {
  PackedEngineOptions one_member;
  one_member.chunk_tokens = 1;
  ExpectPackedMatchesAutograd(model, PackedEngine(model, one_member), batch);
  ExpectPackedMatchesAutograd(model, PackedEngine(model, PackedEngineOptions{}),
                              batch);
}

TEST(InferParityTest, TokenClassifierBitIdenticalAcrossConfigsAndSeeds) {
  for (const nn::TransformerConfig& config : ParityConfigs()) {
    for (uint64_t seed : {1u, 17u, 4242u}) {
      Rng init(seed);
      nn::TokenClassifier model(config, /*num_labels=*/5, init);
      Rng data_rng(seed + 1);
      ExpectBothChunkShapesMatch(model, EveryLength(config, data_rng));
    }
  }
}

TEST(InferParityTest, SequenceClassifierBitIdenticalAcrossConfigsAndSeeds) {
  for (const nn::TransformerConfig& config : ParityConfigs()) {
    for (uint64_t seed : {3u, 99u}) {
      Rng init(seed);
      nn::SequenceClassifier model(config, /*num_classes=*/3, init);
      Rng data_rng(seed + 1);
      ExpectBothChunkShapesMatch(model, EveryLength(config, data_rng));
    }
  }
}

TEST(InferParityTest, TruncatesLongInputIdentically) {
  nn::TransformerConfig config = ParityConfigs()[0];
  Rng init(7);
  nn::TokenClassifier token_model(config, 4, init);
  nn::SequenceClassifier sequence_model(config, 2, init);
  Rng data_rng(8);
  // 3x over max_seq_len: both paths must truncate to the same prefix.
  std::vector<std::vector<int32_t>> batch = {
      RandomIds(static_cast<size_t>(config.max_seq_len) * 3,
                config.vocab_size, data_rng)};
  PackedEngine engine(token_model, PackedEngineOptions{});
  EXPECT_EQ(engine.PredictBatch(Ptrs(batch))[0].size(),
            static_cast<size_t>(config.max_seq_len));
  ExpectBothChunkShapesMatch(token_model, batch);
  ExpectBothChunkShapesMatch(sequence_model, batch);
}

TEST(InferParityTest, EmptyInputYieldsEmptyOutput) {
  // The autograd path CHECK-fails on empty input; the engine returns no
  // labels gracefully (production texts can tokenize to nothing).
  nn::TransformerConfig config = ParityConfigs()[0];
  Rng init(9);
  nn::TokenClassifier token_model(config, 4, init);
  nn::SequenceClassifier sequence_model(config, 2, init);
  const std::vector<int32_t> empty;
  for (const PackedEngine& engine :
       {PackedEngine(token_model, PackedEngineOptions{}),
        PackedEngine(sequence_model, PackedEngineOptions{})}) {
    std::vector<std::vector<int32_t>> labels = engine.PredictBatch({&empty});
    ASSERT_EQ(labels.size(), 1u);
    EXPECT_TRUE(labels[0].empty());
    EXPECT_TRUE(engine.ForwardChunk(PackedChunk{}).data == nullptr);
  }
}

TEST(InferParityTest, ConcurrentExecutionIsBitIdentical) {
  // One shared engine per head, 8 threads calling it at once with
  // one-member chunks: every thread must see exactly the autograd logits
  // for its own inputs.
  nn::TransformerConfig config = ParityConfigs()[2];
  Rng init(21);
  nn::TokenClassifier token_model(config, 6, init);
  nn::SequenceClassifier sequence_model(config, 2, init);
  const PackedEngine token_engine(token_model, PackedEngineOptions{});
  const PackedEngine sequence_engine(sequence_model, PackedEngineOptions{});

  // Inputs up to 30 tokens: some past max_seq_len (24), so truncation runs
  // concurrently too.
  std::vector<std::vector<int32_t>> inputs;
  std::vector<std::vector<float>> token_logits;
  std::vector<std::vector<float>> sequence_logits;
  Rng data_rng(22);
  for (int i = 0; i < 64; ++i) {
    inputs.push_back(RandomIds(1 + static_cast<size_t>(i) % 30,
                               config.vocab_size, data_rng));
    token_logits.push_back(OracleLogits(token_model, inputs.back()));
    sequence_logits.push_back(OracleLogits(sequence_model, inputs.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < inputs.size(); i += 8) {
        if (!OneMemberChunkMatches(token_engine, inputs[i], token_logits[i]) ||
            !OneMemberChunkMatches(sequence_engine, inputs[i],
                                   sequence_logits[i])) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(InferParityTest, EncoderWeightsStayBorrowedNotCopied) {
  // The engine borrows encoder parameter storage: an in-place update of an
  // encoder weight (what Adam and LoadParameters do) changes its output
  // without a rebuild. The padded head is derived, so a head update needs
  // a rebuilt engine — which is why the extractor rebuilds on every
  // weight change.
  nn::TransformerConfig config = ParityConfigs()[0];
  Rng init(31);
  nn::TokenClassifier model(config, 4, init);
  const PackedEngine engine(model, PackedEngineOptions{});
  const std::vector<std::vector<int32_t>> batch = {{5, 9, 13}};
  ExpectPackedMatchesAutograd(model, engine, batch);

  float* beta = model.encoder().final_beta()->mutable_value().data();
  beta[0] += 10.0f;  // Mutate in place, as the optimizer does.
  ExpectPackedMatchesAutograd(model, engine, batch);

  float* head_bias = model.head().bias()->mutable_value().data();
  head_bias[0] += 10.0f;
  ExpectPackedMatchesAutograd(model, PackedEngine(model, PackedEngineOptions{}),
                              batch);
}

TEST(InferParityTest, GoldenCorpusWordLabelsMatchAutograd) {
  // End to end: the trained extractor's word labels (engine path) must be
  // exactly what the autograd model predicts from the same saved weights
  // and the same tokenization.
  auto objectives =
      data::LoadObjectives(TestDataPath("golden_objectives.tsv"));
  ASSERT_TRUE(objectives.ok()) << objectives.status().ToString();

  core::ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  config.bpe_merges = 300;
  config.epochs = 2;
  core::DetailExtractor extractor(config);
  ASSERT_TRUE(extractor.Train(*objectives).ok());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "goalex_infer_parity_golden";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(extractor.Save(dir.string()).ok());
  std::ifstream in(dir / "tokenizer.txt");
  std::ostringstream serialized;
  serialized << in.rdbuf();
  auto tokenizer = bpe::BpeModel::Deserialize(serialized.str());
  ASSERT_TRUE(tokenizer.ok()) << tokenizer.status().ToString();
  Rng init(config.seed);
  nn::TokenClassifier oracle(
      config.BuildTransformerConfig(
          static_cast<int32_t>(tokenizer->vocab().size())),
      extractor.catalog().label_count(), init);
  ASSERT_TRUE(nn::LoadParameters(oracle, (dir / "model.bin").string()).ok());
  std::filesystem::remove_all(dir);

  text::WordTokenizer word_tokenizer;
  for (const data::Objective& o : *objectives) {
    // The extractor's tokenize stage: normalize, word-split, BPE, BOS/EOS.
    const std::vector<text::Token> tokens =
        word_tokenizer.Tokenize(text::Normalize(o.text));
    if (tokens.empty()) continue;
    std::vector<std::string> words;
    for (const text::Token& t : tokens) words.push_back(t.text);
    const std::vector<bpe::Subword> subwords = tokenizer->EncodeWords(words);
    std::vector<int32_t> ids = {bpe::Vocab::kBosId};
    for (const bpe::Subword& sw : subwords) ids.push_back(sw.id);
    ids.push_back(bpe::Vocab::kEosId);
    // Its decode stage: a word takes its first subword's label.
    const std::vector<int32_t> predictions = oracle.Predict(ids);
    std::vector<labels::LabelId> expected(tokens.size(),
                                          labels::LabelCatalog::kOutsideId);
    for (size_t p = 1; p < predictions.size() && p - 1 < subwords.size();
         ++p) {
      if (subwords[p - 1].is_word_start) {
        expected[subwords[p - 1].word_index] = predictions[p];
      }
    }
    EXPECT_EQ(extractor.PredictWordLabels(o.text), expected)
        << "objective " << o.id << " diverges from the autograd oracle";
  }
}

}  // namespace
}  // namespace goalex
