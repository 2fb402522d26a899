// Microbenchmark of the inference engine (infer::PackedEngine), two
// comparisons deep:
//  - the engine run as one-member chunks (what Extract() does) vs the
//    autograd evaluation path, at 1/4/8 calling threads;
//  - padding-free packed batches (float and int8) vs one-member chunks,
//    swept over batch sizes 1/8/64/512 with tokens-per-second per path.
// Correctness is checked while timing: the engine must match autograd
// exactly (labels while timing part 1; full logits, not just argmax,
// before the sweep). The three sweep paths run interleaved round-robin
// within one process so machine throughput drift hits them equally. Each
// configuration emits one machine-readable JSON row for trend tracking.
//
// --smoke runs the batch-64 sweep only and turns four properties into
// hard CHECKs (CI runs this on every push):
//  - packed float logits bit-identical to the autograd evaluation path;
//  - packed int8 throughput >= 1.05x packed float at batch 64;
//  - int8 extraction F1 within 0.5 points of float on a held-out split
//    (same trained weights via Save/Load);
//  - int8 ExtractAll() records identical to per-objective int8 Extract().
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/extractor.h"
#include "data/generator.h"
#include "eval/table.h"
#include "eval/timer.h"
#include "infer/packed.h"
#include "nn/transformer.h"
#include "runtime/stats.h"

namespace goalex::bench {
namespace {

/// Sequence-length traffic modeled on the extractor's production inputs:
/// BOS + 8..70 subwords + EOS under max_seq_len 96.
std::vector<std::vector<int32_t>> MakeTraffic(
    const nn::TransformerConfig& config, size_t count, Rng& rng) {
  std::vector<std::vector<int32_t>> traffic;
  traffic.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t len = static_cast<size_t>(rng.NextInt(10, 72));
    std::vector<int32_t> ids(len);
    for (size_t j = 0; j < len; ++j) {
      ids[j] = rng.NextInt(0, config.vocab_size - 1);
    }
    traffic.push_back(std::move(ids));
  }
  return traffic;
}

std::vector<const std::vector<int32_t>*> Ptrs(
    const std::vector<std::vector<int32_t>>& batch) {
  std::vector<const std::vector<int32_t>*> ptrs;
  ptrs.reserve(batch.size());
  for (const std::vector<int32_t>& seq : batch) ptrs.push_back(&seq);
  return ptrs;
}

/// The engine's labels for one sequence, as a one-member chunk.
std::vector<int32_t> PredictOne(const infer::PackedEngine& engine,
                                const std::vector<int32_t>& ids) {
  return std::move(engine.PredictBatch({&ids})[0]);
}

/// Runs `predict` over the traffic partitioned across `threads` workers and
/// returns wall-clock seconds.
template <typename Predict>
double TimedRun(const std::vector<std::vector<int32_t>>& traffic,
                int threads, const Predict& predict) {
  eval::Timer timer;
  if (threads <= 1) {
    for (const auto& ids : traffic) predict(ids);
    return timer.Seconds();
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < traffic.size();
           i += static_cast<size_t>(threads)) {
        predict(traffic[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return timer.Seconds();
}

/// CHECKs that the packed float engine reproduces the autograd evaluation
/// path bit-for-bit on `batch`: per-token labels and full logits.
void CheckPackedBitIdentity(const nn::TokenClassifier& model,
                            const infer::PackedEngine& packed,
                            const std::vector<std::vector<int32_t>>& batch) {
  std::vector<std::vector<int32_t>> labels = packed.PredictBatch(Ptrs(batch));
  for (size_t i = 0; i < batch.size(); ++i) {
    GOALEX_CHECK_MSG(labels[i] == model.Predict(batch[i]),
                     "packed float labels diverge from autograd");
  }
  std::vector<infer::PackedChunk> chunks = infer::PackByLength(
      Ptrs(batch), packed.max_seq_len(), packed.chunk_tokens());
  for (const infer::PackedChunk& chunk : chunks) {
    infer::PackedEngine::ChunkLogits logits = packed.ForwardChunk(chunk);
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const tensor::Var ref = model.ForwardLogits(batch[chunk.sequence[s]]);
      const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
      GOALEX_CHECK(ref->value().dim(0) == t);
      for (int64_t p = 0; p < t; ++p) {
        const float* got = logits.data + (chunk.offsets[s] + p) * logits.cols;
        for (int64_t j = 0; j < packed.num_labels(); ++j) {
          GOALEX_CHECK_MSG(got[j] == ref->value().at(p, j),
                           "packed float logits diverge from autograd");
        }
      }
    }
  }
}

/// One packed-sweep configuration: one-member chunks vs packed float vs
/// packed int8, interleaved rounds, tokens/sec per path. Returns the int8
/// speedup over packed float (the smoke-gated number).
double RunPackedSweep(const nn::TokenClassifier& model, size_t batch_size,
                      Rng& rng, eval::TextTable& table) {
  infer::PackedEngine packed_float(model, infer::PackedEngineOptions{});
  infer::PackedEngineOptions int8_options;
  int8_options.quantize_int8 = true;
  infer::PackedEngine packed_int8(model, int8_options);

  std::vector<std::vector<int32_t>> batch =
      MakeTraffic(model.encoder().config(), batch_size, rng);
  std::vector<const std::vector<int32_t>*> ptrs = Ptrs(batch);
  int64_t batch_tokens = 0;
  for (const auto& seq : batch) {
    batch_tokens += static_cast<int64_t>(seq.size());
  }

  // Enough rounds that each path sees ~200k tokens; interleave the three
  // paths inside every round so throughput drift hits them equally.
  const int rounds = static_cast<int>(
      std::max<int64_t>(3, 200000 / std::max<int64_t>(1, batch_tokens)));
  auto run_single = [&] {
    for (const auto& seq : batch) PredictOne(packed_float, seq);
  };
  auto run_float = [&] { packed_float.PredictBatch(ptrs); };
  auto run_int8 = [&] { packed_int8.PredictBatch(ptrs); };
  run_single();  // Warm all three paths before timing.
  run_float();
  run_int8();

  double single_s = 0.0;
  double float_s = 0.0;
  double int8_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    {
      eval::Timer timer;
      run_single();
      single_s += timer.Seconds();
    }
    {
      eval::Timer timer;
      run_float();
      float_s += timer.Seconds();
    }
    {
      eval::Timer timer;
      run_int8();
      int8_s += timer.Seconds();
    }
  }
  const double tokens =
      static_cast<double>(batch_tokens) * static_cast<double>(rounds);
  const double single_tps = tokens / single_s;
  const double float_tps = tokens / float_s;
  const double int8_tps = tokens / int8_s;
  auto fmt = [](double v, int precision) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
    return std::string(buffer);
  };
  table.AddRow({std::to_string(batch_size), fmt(single_tps, 0),
                fmt(float_tps, 0), fmt(int8_tps, 0),
                fmt(float_tps / single_tps, 2), fmt(int8_tps / float_tps, 2)});
  std::printf(
      "{\"bench\":\"micro_infer\",\"mode\":\"packed\",\"batch\":%zu,"
      "\"rounds\":%d,\"single_tokens_per_s\":%.0f,"
      "\"packed_float_tokens_per_s\":%.0f,\"packed_int8_tokens_per_s\":%.0f,"
      "\"float_speedup\":%.3f,\"int8_over_float\":%.3f}\n",
      batch_size, rounds, single_tps, float_tps, int8_tps,
      float_tps / single_tps, int8_tps / float_tps);
  return int8_tps / float_tps;
}

/// Trains a small float extractor, round-trips the weights through
/// Save/Load into an int8-configured twin, and CHECKs that held-out
/// extraction F1 moves by at most 0.5 points and that the twin's batch
/// and per-objective paths agree record for record.
void CheckInt8F1Parity() {
  // A properly converged (if scaled-down) model: the quantization budget
  // is only meaningful when the float logits are decisively separated — an
  // undertrained model flips argmaxes on noise alone.
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 600;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  data::Split split = data::TrainTestSplit(corpus, 0.2, 3);

  // The F1 budget is 0.5 points; on a 120-objective test set one flipped
  // span moves F1 by more than that, so the delta would measure sampling
  // noise, not quantization. Evaluate on a large independently-seeded
  // corpus instead to pin the true gap.
  data::SustainabilityGoalsConfig eval_config;
  eval_config.objective_count = 2000;
  eval_config.seed = 43;
  std::vector<data::Objective> eval_set =
      data::GenerateSustainabilityGoals(eval_config);

  core::ExtractorConfig config =
      DefaultExtractorConfig(Corpus::kSustainabilityGoals);
  config.bpe_merges = 1600;
  core::DetailExtractor extractor(config);
  GOALEX_CHECK(extractor.Train(split.train).ok());

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "goalex_infer_smoke_model";
  std::filesystem::create_directories(dir);
  GOALEX_CHECK(extractor.Save(dir.string()).ok());

  core::ExtractorConfig int8_config = config;
  int8_config.quantize_int8 = true;
  core::DetailExtractor int8_extractor(int8_config);
  GOALEX_CHECK(int8_extractor.Load(dir.string()).ok());
  std::filesystem::remove_all(dir);

  const std::vector<data::DetailRecord> int8_records =
      int8_extractor.ExtractAll(eval_set);
  eval::Prf float_prf =
      Evaluate(eval_set, extractor.ExtractAll(eval_set),
               Corpus::kSustainabilityGoals);
  eval::Prf int8_prf =
      Evaluate(eval_set, int8_records, Corpus::kSustainabilityGoals);
  const double delta = float_prf.f1 - int8_prf.f1;
  size_t disagreements = 0;
  for (size_t i = 0; i < eval_set.size(); ++i) {
    if (int8_extractor.Extract(eval_set[i]).fields != int8_records[i].fields) {
      ++disagreements;
    }
  }
  std::printf(
      "{\"bench\":\"micro_infer\",\"mode\":\"int8_f1\",\"float_f1\":%.4f,"
      "\"int8_f1\":%.4f,\"delta\":%.4f,"
      "\"extract_vs_extract_all_disagreements\":%zu}\n",
      float_prf.f1, int8_prf.f1, delta, disagreements);
  // The quantization budget: int8 may cost at most 0.5 F1 points.
  GOALEX_CHECK_MSG(delta <= 0.005 && delta >= -0.005,
                   "int8 extraction F1 diverged more than 0.5 points from "
                   "float");
  // One engine behind every predict path: single and batch extraction
  // must agree in int8 as they do in float.
  GOALEX_CHECK_MSG(disagreements == 0,
                   "int8 ExtractAll disagrees with per-objective int8 "
                   "Extract()");
}

void Run(bool smoke) {
  // The production architecture (DefaultExtractorConfig dimensions); the
  // weights are random — timing is weight-independent.
  core::ExtractorConfig extractor_config =
      DefaultExtractorConfig(Corpus::kSustainabilityGoals);
  nn::TransformerConfig config =
      extractor_config.BuildTransformerConfig(/*vocab_size=*/2800);
  Rng rng(13);
  nn::TokenClassifier model(config, /*num_labels=*/11, rng);
  infer::PackedEngine engine(model, infer::PackedEngineOptions{});

  std::printf("Microbenchmark: inference engine%s\n",
              smoke ? " (smoke)" : "");
  std::printf("model: d_model=%d heads=%d layers=%d ffn=%d max_seq_len=%d\n\n",
              config.d_model, config.heads, config.layers, config.ffn_dim,
              config.max_seq_len);

  auto fmt = [](double v, int precision) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
    return std::string(buffer);
  };

  if (!smoke) {
    // Part 1: one-member chunks vs autograd across calling threads.
    Rng traffic_rng(14);
    std::vector<std::vector<int32_t>> traffic =
        MakeTraffic(config, /*count=*/1500, traffic_rng);
    // Exactness first: every timed prediction pair must agree.
    for (const auto& ids : traffic) {
      GOALEX_CHECK(PredictOne(engine, ids) == model.Predict(ids));
    }
    std::printf("engine vs autograd: %zu sequences (outputs identical)\n\n",
                traffic.size());
    eval::TextTable table({"Threads", "Autograd s", "Engine s",
                           "Autograd seq/s", "Engine seq/s", "Speedup"});
    for (int threads : {1, 4, 8}) {
      // Warm both paths (page in weights) so the timed region is
      // steady-state.
      TimedRun(traffic, threads,
               [&](const std::vector<int32_t>& ids) { model.Predict(ids); });
      double autograd_s = TimedRun(
          traffic, threads,
          [&](const std::vector<int32_t>& ids) { model.Predict(ids); });
      TimedRun(traffic, threads, [&](const std::vector<int32_t>& ids) {
        PredictOne(engine, ids);
      });
      double engine_s = TimedRun(traffic, threads,
                                 [&](const std::vector<int32_t>& ids) {
                                   PredictOne(engine, ids);
                                 });
      double speedup = autograd_s / engine_s;
      double n = static_cast<double>(traffic.size());
      table.AddRow({std::to_string(threads), fmt(autograd_s, 3),
                    fmt(engine_s, 3), fmt(n / autograd_s, 0),
                    fmt(n / engine_s, 0), fmt(speedup, 2)});
      std::printf(
          "{\"bench\":\"micro_infer\",\"threads\":%d,\"sequences\":%zu,"
          "\"autograd_seconds\":%.6f,\"engine_seconds\":%.6f,"
          "\"autograd_seq_per_s\":%.1f,\"engine_seq_per_s\":%.1f,"
          "\"speedup\":%.3f}\n",
          threads, traffic.size(), autograd_s, engine_s, n / autograd_s,
          n / engine_s, speedup);
    }
    std::printf("\n%s\n", table.Render().c_str());
  }

  // Part 2: packed-batch sweep. Bit-identity is checked before timing.
  {
    Rng check_rng(15);
    CheckPackedBitIdentity(model, engine, MakeTraffic(config, 64, check_rng));
    std::printf("packed float verified bit-identical to autograd\n\n");
  }
  eval::TextTable packed_table({"Batch", "Single tok/s", "Packed f32 tok/s",
                                "Packed int8 tok/s", "f32 / single",
                                "int8 / f32"});
  double int8_over_float_at_64 = 0.0;
  Rng sweep_rng(16);
  const std::vector<size_t> batches =
      smoke ? std::vector<size_t>{64} : std::vector<size_t>{1, 8, 64, 512};
  for (size_t batch_size : batches) {
    double int8_over_float =
        RunPackedSweep(model, batch_size, sweep_rng, packed_table);
    if (batch_size == 64) int8_over_float_at_64 = int8_over_float;
  }
  std::printf("\n%s\n", packed_table.Render().c_str());

  if (smoke) {
    // CI gate: int8 below 1.05x packed float at batch 64 means the
    // quantized kernels lost their reason to exist.
    GOALEX_CHECK_MSG(int8_over_float_at_64 >= 1.05,
                     "packed int8 inference regressed below 1.05x packed "
                     "float at batch 64");
    CheckInt8F1Parity();
  }
  EmitMetricsSnapshot("inference engine run");
}

}  // namespace
}  // namespace goalex::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  goalex::bench::Run(smoke);
  return 0;
}
