// Tests of the inference engine (src/infer/packed.h, DESIGN.md §14), which
// predicts one sequence per call on padding-free kernels. Two layers of
// engine guarantees are pinned here:
//  - The float path is *bit-identical* to the autograd evaluation path —
//    full logits, not just argmax — across sequence lengths, including the
//    degenerate shapes (empty and single-token sequences, max_seq_len,
//    truncation).
//  - The int8 path is tolerance-pinned: logits stay close to float and the
//    argmax labels agree on almost every token (the end-to-end F1 budget
//    is gated separately by bench_micro_infer --smoke).
// Plus extractor-level parity: ExtractAll and ExtractBatch must produce
// byte-identical records to serial per-objective Extract() calls, in float
// and in int8, with objective segmentation off and on.
#include "infer/packed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/rng.h"
#include "core/extractor.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "nn/transformer.h"
#include "runtime/thread_pool.h"
#include "segment/segmenter.h"

namespace goalex {
namespace {

using infer::PackedEngine;
using infer::PackedEngineOptions;

std::vector<int32_t> RandomIds(size_t len, int32_t vocab, Rng& rng) {
  std::vector<int32_t> ids(len);
  for (size_t i = 0; i < len; ++i) ids[i] = rng.NextInt(0, vocab - 1);
  return ids;
}

std::vector<std::vector<int32_t>> RandomBatch(
    const std::vector<size_t>& lengths, int32_t vocab, Rng& rng) {
  std::vector<std::vector<int32_t>> batch;
  batch.reserve(lengths.size());
  for (size_t len : lengths) batch.push_back(RandomIds(len, vocab, rng));
  return batch;
}

/// Small architecture exercising multi-head attention and stacked layers.
nn::TransformerConfig SmallArch() {
  nn::TransformerConfig config;
  config.vocab_size = 120;
  config.max_seq_len = 24;
  config.d_model = 16;
  config.heads = 4;
  config.layers = 2;
  config.ffn_dim = 32;
  return config;
}

// ---------------------------------------------------------------------------
// Packed float path: bit-identical to the autograd evaluation path.

/// Asserts Predict matches the autograd Predict and Forward's logits match
/// the autograd ForwardLogits float-for-float (==, not NEAR), for every
/// sequence of `batch`.
void ExpectBitIdentical(const nn::TokenClassifier& model,
                        const std::vector<std::vector<int32_t>>& batch) {
  const PackedEngine engine(model, PackedEngineOptions{});
  const int64_t max_seq_len = engine.max_seq_len();
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<int32_t>& ids = batch[i];
    const PackedEngine::Logits logits = engine.Forward(ids);
    if (ids.empty()) {
      EXPECT_TRUE(engine.Predict(ids).empty());
      EXPECT_EQ(logits.rows, 0);
      continue;
    }
    EXPECT_EQ(engine.Predict(ids), model.Predict(ids)) << "sequence " << i;
    // ForwardLogits truncates to max_seq_len itself, like the engine.
    const tensor::Var ref = model.ForwardLogits(ids);
    const int64_t t =
        std::min<int64_t>(static_cast<int64_t>(ids.size()), max_seq_len);
    ASSERT_EQ(logits.rows, t);
    ASSERT_EQ(ref->value().dim(0), t);
    ASSERT_EQ(logits.cols, engine.logit_cols());
    for (int64_t p = 0; p < t; ++p) {
      const float* got = logits.data + p * logits.cols;
      for (int64_t j = 0; j < engine.num_labels(); ++j) {
        ASSERT_EQ(got[j], ref->value().at(p, j))
            << "sequence " << i << " token " << p << " label " << j;
      }
      // Padded columns are exactly zero by construction.
      for (int64_t j = engine.num_labels(); j < logits.cols; ++j) {
        ASSERT_EQ(got[j], 0.0f);
      }
    }
  }
}

TEST(PackedEngineTest, FloatBitIdenticalAcrossSeedsAndLengths) {
  nn::TransformerConfig config = SmallArch();
  for (uint64_t seed : {1u, 17u}) {
    Rng init(seed);
    nn::TokenClassifier model(config, /*num_labels=*/11, init);
    Rng data_rng(seed + 1);
    // A spread of lengths including max_seq_len and one past it
    // (truncation parity with the encoder's own truncation).
    std::vector<size_t> lengths = {1, 2, 3, 5, 7, 24, 9, 1, 16, 24, 30, 12};
    ExpectBitIdentical(model,
                       RandomBatch(lengths, config.vocab_size, data_rng));
  }
}

TEST(PackedEngineTest, DegenerateSequenceShapes) {
  nn::TransformerConfig config = SmallArch();
  Rng init(3);
  nn::TokenClassifier model(config, /*num_labels=*/7, init);
  Rng data_rng(4);
  const size_t max_len = static_cast<size_t>(config.max_seq_len);
  // Empty, single-token, max_seq_len, and far past it.
  ExpectBitIdentical(
      model, RandomBatch({size_t{0}, size_t{1}, size_t{1}, max_len,
                          max_len * 3},
                         config.vocab_size, data_rng));
}

// ---------------------------------------------------------------------------
// int8 path: tolerance-pinned against float.

TEST(PackedEngineTest, Int8LogitsCloseAndLabelsMostlyAgree) {
  nn::TransformerConfig config = SmallArch();
  Rng init(42);
  nn::TokenClassifier model(config, /*num_labels=*/11, init);
  PackedEngine packed_float(model, PackedEngineOptions{});
  PackedEngineOptions int8_options;
  int8_options.quantize_int8 = true;
  PackedEngine packed_int8(model, int8_options);

  Rng data_rng(43);
  std::vector<size_t> lengths;
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(static_cast<size_t>(data_rng.NextInt(1, 24)));
  }
  std::vector<std::vector<int32_t>> batch =
      RandomBatch(lengths, config.vocab_size, data_rng);

  float max_diff = 0.0f;
  float max_abs_logit = 0.0f;
  int64_t tokens = 0;
  int64_t agree = 0;
  for (const std::vector<int32_t>& ids : batch) {
    const PackedEngine::Logits f = packed_float.Forward(ids);
    const PackedEngine::Logits q = packed_int8.Forward(ids);
    ASSERT_EQ(f.cols, q.cols);
    ASSERT_EQ(f.rows, q.rows);
    for (int64_t p = 0; p < f.rows; ++p) {
      const float* frow = f.data + p * f.cols;
      const float* qrow = q.data + p * q.cols;
      int64_t fbest = 0;
      int64_t qbest = 0;
      for (int64_t j = 0; j < packed_float.num_labels(); ++j) {
        max_diff = std::max(max_diff, std::fabs(frow[j] - qrow[j]));
        max_abs_logit = std::max(max_abs_logit, std::fabs(frow[j]));
        if (frow[j] > frow[fbest]) fbest = j;
        if (qrow[j] > qrow[qbest]) qbest = j;
      }
      ++tokens;
      if (fbest == qbest) ++agree;
    }
  }
  ASSERT_GT(tokens, 0);
  // Per-output-channel int8 with int32 accumulation keeps the logit error
  // a small fraction of the logit scale; the end-to-end F1 budget (0.5
  // points) is gated by bench_micro_infer --smoke on a trained model.
  EXPECT_LT(max_diff, 0.05f * (1.0f + max_abs_logit));
  EXPECT_GE(static_cast<double>(agree), 0.95 * static_cast<double>(tokens));
}

// ---------------------------------------------------------------------------
// Extractor-level parity: ExtractAll and ExtractBatch are a map of
// Extract(), so they emit byte-identical records to serial per-objective
// Extract() calls for every thread count, in both precisions, and with
// multi-target segmentation on.

/// Per-objective Extract() over `objectives`, in order.
std::vector<data::DetailRecord> ExtractEach(
    const core::DetailExtractor& extractor,
    const std::vector<data::Objective>& objectives) {
  std::vector<data::DetailRecord> records;
  records.reserve(objectives.size());
  for (const data::Objective& o : objectives) {
    records.push_back(extractor.Extract(o));
  }
  return records;
}

void ExpectSameRecords(const std::vector<data::DetailRecord>& got,
                       const std::vector<data::DetailRecord>& expected,
                       const std::string& what) {
  ASSERT_EQ(got.size(), expected.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].objective_id, expected[i].objective_id) << what;
    EXPECT_EQ(got[i].objective_text, expected[i].objective_text) << what;
    EXPECT_EQ(got[i].fields, expected[i].fields)
        << what << ", objective " << i;
  }
}

/// ExtractAll at 1 and 4 threads, and ExtractBatch on a private and on a
/// shared 4-thread pool, against per-objective Extract().
void ExpectBatchPathsMatchExtract(const core::DetailExtractor& extractor,
                                  const std::vector<data::Objective>& inputs,
                                  const std::string& variant) {
  const std::vector<data::DetailRecord> expected =
      ExtractEach(extractor, inputs);
  for (int32_t threads : {1, 4}) {
    runtime::Stats stats;
    ExpectSameRecords(extractor.ExtractAll(inputs, threads, &stats), expected,
                      variant + " ExtractAll at " + std::to_string(threads) +
                          " threads");
    EXPECT_EQ(stats.items, inputs.size());
    EXPECT_GT(stats.seconds, 0.0);
  }
  std::vector<const data::Objective*> ptrs;
  for (const data::Objective& o : inputs) ptrs.push_back(&o);
  ExpectSameRecords(extractor.ExtractBatch(ptrs, /*pool=*/nullptr), expected,
                    variant + " ExtractBatch, private pool");
  runtime::ThreadPool pool(4);
  ExpectSameRecords(extractor.ExtractBatch(ptrs, &pool), expected,
                    variant + " ExtractBatch, shared pool");
}

TEST(PackedExtractorTest, PackedExtractAllMatchesSerialExtract) {
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 240;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  data::Split split = data::TrainTestSplit(corpus, 0.25, 3);

  // Multi-target objectives, so segmentation splits clauses and merges
  // their records.
  data::SustainabilityGoalsConfig multi_config;
  multi_config.objective_count = 180;
  multi_config.multi_target_rate = 0.45;
  multi_config.seed += 77;
  const std::vector<data::Objective> multi =
      data::GenerateSustainabilityGoals(multi_config);
  segment::ObjectiveSegmenter segmenter;
  size_t split_objectives = 0;
  for (const data::Objective& o : multi) {
    if (segmenter.Split(o.text).size() > 1) ++split_objectives;
  }
  ASSERT_GT(split_objectives, 10u);

  core::ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  config.bpe_merges = 1200;
  config.epochs = 3;
  core::DetailExtractor extractor(config);
  ASSERT_TRUE(extractor.Train(split.train).ok());
  ExpectBatchPathsMatchExtract(extractor, split.test, "float");

  // The same weights in int8 and/or with segmentation on: every variant
  // runs Extract() under the batch paths, so they agree record for record.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "goalex_infer_packed_int8";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(extractor.Save(dir.string()).ok());
  for (bool int8 : {false, true}) {
    for (bool segment : {false, true}) {
      if (!int8 && !segment) continue;  // The trained extractor, above.
      core::ExtractorConfig variant_config = config;
      variant_config.quantize_int8 = int8;
      variant_config.segment_multi_target = segment;
      core::DetailExtractor variant(variant_config);
      ASSERT_TRUE(variant.Load(dir.string()).ok());
      const std::string name = std::string(int8 ? "int8" : "float") +
                               (segment ? " segmented" : "");
      ExpectBatchPathsMatchExtract(variant, split.test, name);
      ExpectBatchPathsMatchExtract(variant, multi, name + " multi-target");
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace goalex
