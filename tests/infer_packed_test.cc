// Tests of packed-batch inference (src/infer/packed.h, DESIGN.md §14).
// Three layers of guarantees are pinned here:
//  - PackByLength is a deterministic, lossless partition: every non-empty
//    sequence lands in exactly one chunk, capacity and truncation bounds
//    hold, and equal inputs always produce equal chunks.
//  - The packed float path is *bit-identical* per sequence to the autograd
//    evaluation path — full logits, not just argmax — across sequence
//    lengths, including the degenerate shapes (batch of one, single-token
//    sequences, all-equal lengths, max_seq_len, truncation).
//  - The int8 path is tolerance-pinned: logits stay close to float and the
//    argmax labels agree on almost every token (the end-to-end F1 budget
//    is gated separately by bench_micro_infer --smoke).
// Plus extractor-level parity: ExtractAll must produce byte-identical
// records to serial per-objective Extract() calls, in float and in int8.
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

namespace goalex {
namespace {

using infer::PackByLength;
using infer::PackedChunk;
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

std::vector<const std::vector<int32_t>*> Ptrs(
    const std::vector<std::vector<int32_t>>& batch) {
  std::vector<const std::vector<int32_t>*> ptrs;
  ptrs.reserve(batch.size());
  for (const std::vector<int32_t>& seq : batch) ptrs.push_back(&seq);
  return ptrs;
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
// PackByLength

TEST(PackByLengthTest, EmptyBatchYieldsNoChunks) {
  std::vector<const std::vector<int32_t>*> none;
  EXPECT_TRUE(PackByLength(none, 16, 64).empty());
}

TEST(PackByLengthTest, EmptySequencesAreSkipped) {
  std::vector<std::vector<int32_t>> batch = {{}, {1, 2, 3}, {}, {4}};
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 16, 64);
  ASSERT_EQ(chunks.size(), 1u);
  // Only the two non-empty sequences are packed; the empty ones simply get
  // no labels.
  EXPECT_EQ(chunks[0].size(), 2);
  EXPECT_EQ(chunks[0].tokens(), 4);
  std::vector<size_t> members = chunks[0].sequence;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<size_t>{1, 3}));

  std::vector<std::vector<int32_t>> all_empty = {{}, {}};
  EXPECT_TRUE(PackByLength(Ptrs(all_empty), 16, 64).empty());
}

TEST(PackByLengthTest, BatchOfOne) {
  std::vector<std::vector<int32_t>> batch = {{7, 8, 9}};
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 16, 64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 1);
  EXPECT_EQ(chunks[0].sequence[0], 0u);
  EXPECT_EQ(chunks[0].ids, batch[0]);
  EXPECT_EQ(chunks[0].offsets, (std::vector<int64_t>{0, 3}));
}

TEST(PackByLengthTest, EverySequenceOnceAndCapacityHolds) {
  Rng rng(11);
  std::vector<size_t> lengths;
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(static_cast<size_t>(rng.NextInt(1, 40)));
  }
  std::vector<std::vector<int32_t>> batch = RandomBatch(lengths, 100, rng);
  const int64_t max_seq_len = 32;
  const int64_t chunk_tokens = 96;
  std::vector<PackedChunk> chunks =
      PackByLength(Ptrs(batch), max_seq_len, chunk_tokens);

  std::vector<int> seen(batch.size(), 0);
  for (const PackedChunk& chunk : chunks) {
    ASSERT_EQ(chunk.offsets.size(), static_cast<size_t>(chunk.size()) + 1);
    EXPECT_EQ(chunk.offsets.front(), 0);
    EXPECT_EQ(chunk.offsets.back(), chunk.tokens());
    EXPECT_LE(chunk.tokens(), chunk_tokens);
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const size_t caller = chunk.sequence[static_cast<size_t>(s)];
      ASSERT_LT(caller, batch.size());
      ++seen[caller];
      const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
      const int64_t want = std::min<int64_t>(
          static_cast<int64_t>(batch[caller].size()), max_seq_len);
      EXPECT_EQ(t, want);
      for (int64_t p = 0; p < t; ++p) {
        EXPECT_EQ(chunk.ids[static_cast<size_t>(chunk.offsets[s] + p)],
                  batch[caller][static_cast<size_t>(p)]);
      }
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(PackByLengthTest, OversizeSequenceGetsItsOwnChunk) {
  Rng rng(5);
  std::vector<std::vector<int32_t>> batch =
      RandomBatch({size_t{20}, size_t{3}, size_t{3}}, 50, rng);
  // chunk_tokens is smaller than the first sequence: it must still be
  // admitted, alone, rather than rejected.
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 32, 8);
  bool found_oversize = false;
  for (const PackedChunk& chunk : chunks) {
    if (chunk.size() == 1 && chunk.sequence[0] == 0) {
      EXPECT_EQ(chunk.tokens(), 20);
      found_oversize = true;
    } else {
      EXPECT_LE(chunk.tokens(), 8);
    }
  }
  EXPECT_TRUE(found_oversize);
}

TEST(PackByLengthTest, EqualLengthsPreserveSubmissionOrder) {
  Rng rng(7);
  std::vector<std::vector<int32_t>> batch =
      RandomBatch(std::vector<size_t>(10, 4), 50, rng);
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 16, 1024);
  ASSERT_EQ(chunks.size(), 1u);
  // Stable sort on equal lengths: submission order survives.
  for (size_t s = 0; s < 10; ++s) EXPECT_EQ(chunks[0].sequence[s], s);
}

TEST(PackByLengthTest, DeterministicAcrossCalls) {
  Rng rng(23);
  std::vector<size_t> lengths;
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(static_cast<size_t>(rng.NextInt(1, 30)));
  }
  std::vector<std::vector<int32_t>> batch = RandomBatch(lengths, 80, rng);
  std::vector<PackedChunk> a = PackByLength(Ptrs(batch), 24, 100);
  std::vector<PackedChunk> b = PackByLength(Ptrs(batch), 24, 100);
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].ids, b[c].ids);
    EXPECT_EQ(a[c].offsets, b[c].offsets);
    EXPECT_EQ(a[c].sequence, b[c].sequence);
  }
}

// ---------------------------------------------------------------------------
// Packed float path: bit-identical to the autograd evaluation path.

/// Asserts PredictBatch matches the autograd Predict and the packed logits
/// match the autograd ForwardLogits float-for-float (==, not NEAR).
void ExpectPackedBitIdentical(const nn::TokenClassifier& model,
                              const std::vector<std::vector<int32_t>>& batch,
                              int64_t chunk_tokens) {
  PackedEngineOptions options;
  options.chunk_tokens = chunk_tokens;
  PackedEngine packed(model, options);
  const int64_t max_seq_len = packed.max_seq_len();

  // Labels.
  std::vector<std::vector<int32_t>> labels = packed.PredictBatch(Ptrs(batch));
  ASSERT_EQ(labels.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].empty()) {
      EXPECT_TRUE(labels[i].empty());
      continue;
    }
    EXPECT_EQ(labels[i], model.Predict(batch[i])) << "sequence " << i;
  }

  // Full logits, chunk by chunk. ForwardLogits truncates to max_seq_len
  // itself, like packing does.
  std::vector<PackedChunk> chunks =
      PackByLength(Ptrs(batch), max_seq_len, chunk_tokens);
  for (const PackedChunk& chunk : chunks) {
    PackedEngine::ChunkLogits logits = packed.ForwardChunk(chunk);
    ASSERT_EQ(logits.cols, packed.logit_cols());
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const size_t caller = chunk.sequence[static_cast<size_t>(s)];
      const tensor::Var ref = model.ForwardLogits(batch[caller]);
      const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
      ASSERT_EQ(ref->value().dim(0), t);
      for (int64_t p = 0; p < t; ++p) {
        const float* got =
            logits.data + (chunk.offsets[s] + p) * logits.cols;
        for (int64_t j = 0; j < packed.num_labels(); ++j) {
          ASSERT_EQ(got[j], ref->value().at(p, j))
              << "sequence " << caller << " token " << p << " label " << j;
        }
        // Padded columns are exactly zero by construction.
        for (int64_t j = packed.num_labels(); j < logits.cols; ++j) {
          ASSERT_EQ(got[j], 0.0f);
        }
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
    std::vector<std::vector<int32_t>> batch =
        RandomBatch(lengths, config.vocab_size, data_rng);
    ExpectPackedBitIdentical(model, batch, /*chunk_tokens=*/48);
  }
}

TEST(PackedEngineTest, DegenerateBatchShapes) {
  nn::TransformerConfig config = SmallArch();
  Rng init(3);
  nn::TokenClassifier model(config, /*num_labels=*/7, init);
  Rng data_rng(4);

  // Empty batch.
  PackedEngine packed(model, PackedEngineOptions{});
  std::vector<const std::vector<int32_t>*> none;
  EXPECT_TRUE(packed.PredictBatch(none).empty());

  // Batch of one.
  ExpectPackedBitIdentical(
      model, RandomBatch({size_t{9}}, config.vocab_size, data_rng), 64);
  // All single-token sequences.
  ExpectPackedBitIdentical(
      model, RandomBatch(std::vector<size_t>(17, 1), config.vocab_size,
                         data_rng),
      16);
  // All-equal lengths.
  ExpectPackedBitIdentical(
      model, RandomBatch(std::vector<size_t>(12, 8), config.vocab_size,
                         data_rng),
      32);
  // Everything at max_seq_len.
  ExpectPackedBitIdentical(
      model,
      RandomBatch(std::vector<size_t>(
                      5, static_cast<size_t>(config.max_seq_len)),
                  config.vocab_size, data_rng),
      48);
  // Batch with empty sequences interleaved.
  std::vector<std::vector<int32_t>> with_empty =
      RandomBatch({size_t{4}, size_t{0}, size_t{6}, size_t{0}},
                  config.vocab_size, data_rng);
  ExpectPackedBitIdentical(model, with_empty, 64);
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
  std::vector<PackedChunk> chunks =
      PackByLength(Ptrs(batch), packed_float.max_seq_len(),
                   packed_float.chunk_tokens());

  float max_diff = 0.0f;
  float max_abs_logit = 0.0f;
  int64_t tokens = 0;
  int64_t agree = 0;
  for (const PackedChunk& chunk : chunks) {
    PackedEngine::ChunkLogits f = packed_float.ForwardChunk(chunk);
    PackedEngine::ChunkLogits q = packed_int8.ForwardChunk(chunk);
    ASSERT_EQ(f.cols, q.cols);
    for (int64_t p = 0; p < chunk.tokens(); ++p) {
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
// Extractor-level parity: the packed ExtractAll path emits byte-identical
// records to serial per-objective Extract() calls (one-member chunks), for
// every thread count and in both precisions.

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

TEST(PackedExtractorTest, PackedExtractAllMatchesSerialExtract) {
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 240;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  data::Split split = data::TrainTestSplit(corpus, 0.25, 3);

  core::ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  config.bpe_merges = 1200;
  config.epochs = 3;
  core::DetailExtractor extractor(config);
  ASSERT_TRUE(extractor.Train(split.train).ok());

  const std::vector<data::DetailRecord> expected =
      ExtractEach(extractor, split.test);

  for (int32_t threads : {1, 4}) {
    runtime::Stats stats;
    std::vector<data::DetailRecord> got =
        extractor.ExtractAll(split.test, threads, &stats);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].objective_id, expected[i].objective_id);
      EXPECT_EQ(got[i].objective_text, expected[i].objective_text);
      EXPECT_EQ(got[i].fields, expected[i].fields) << "objective " << i;
    }
    EXPECT_EQ(stats.items, split.test.size());
    EXPECT_GT(stats.seconds, 0.0);
  }

  // ExtractBatch with a null pool is the same computation.
  std::vector<const data::Objective*> ptrs;
  for (const data::Objective& o : split.test) ptrs.push_back(&o);
  std::vector<data::DetailRecord> batch =
      extractor.ExtractBatch(ptrs, /*pool=*/nullptr);
  ASSERT_EQ(batch.size(), expected.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].fields, expected[i].fields);
  }

  // The same weights in int8: Extract() and ExtractAll() run one engine,
  // so they agree record for record in this precision too.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "goalex_infer_packed_int8";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(extractor.Save(dir.string()).ok());
  core::ExtractorConfig int8_config = config;
  int8_config.quantize_int8 = true;
  core::DetailExtractor int8_extractor(int8_config);
  ASSERT_TRUE(int8_extractor.Load(dir.string()).ok());
  std::filesystem::remove_all(dir);
  const std::vector<data::DetailRecord> int8_each =
      ExtractEach(int8_extractor, split.test);
  const std::vector<data::DetailRecord> int8_all =
      int8_extractor.ExtractAll(split.test, /*num_threads=*/4);
  ASSERT_EQ(int8_all.size(), int8_each.size());
  for (size_t i = 0; i < int8_all.size(); ++i) {
    EXPECT_EQ(int8_all[i].fields, int8_each[i].fields) << "objective " << i;
  }
}

}  // namespace
}  // namespace goalex
