#ifndef GOALEX_CORE_EXTRACTOR_H_
#define GOALEX_CORE_EXTRACTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bpe/bpe_tokenizer.h"
#include "common/status.h"
#include "core/config.h"
#include "data/schema.h"
#include "infer/packed.h"
#include "labels/iob.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "runtime/stats.h"
#include "text/word_tokenizer.h"
#include "weaksup/weak_labeler.h"

namespace goalex::runtime {
class ThreadPool;
}  // namespace goalex::runtime

namespace goalex::core {

/// Per-epoch training progress, surfaced to the optional callback so the
/// hyperparameter experiments (Figure 4c/d) can evaluate checkpoints.
struct EpochStats {
  int32_t epoch = 0;           ///< 1-based.
  double mean_train_loss = 0.0;
  double seconds = 0.0;        ///< Wall-clock time of this epoch.
};

/// The sustainability objective detail extraction system (Figure 2).
///
/// Development phase (Train): tokenize the annotated objectives, convert
/// the coarse objective-level annotations into token-level IOB labels with
/// the weak supervision algorithm (Algorithm 1), and fine-tune a
/// transformer token classifier on those weak signals.
///
/// Production phase (Extract): tokenize a new objective, predict per-token
/// labels with the trained model, decode IOB spans, and read the surface
/// values back out of the original text.
class DetailExtractor {
 public:
  explicit DetailExtractor(ExtractorConfig config);
  ~DetailExtractor();

  // Neither copyable nor movable: labeler_ holds a pointer to catalog_.
  DetailExtractor(const DetailExtractor&) = delete;
  DetailExtractor& operator=(const DetailExtractor&) = delete;
  DetailExtractor(DetailExtractor&&) = delete;
  DetailExtractor& operator=(DetailExtractor&&) = delete;

  /// Trains on weakly annotated objectives. `on_epoch_end` (optional) is
  /// invoked after each epoch; the model is usable for Extract() inside the
  /// callback, enabling per-epoch evaluation sweeps.
  Status Train(const std::vector<data::Objective>& objectives,
               const std::function<void(const EpochStats&)>& on_epoch_end =
                   nullptr);

  /// Extracts the key details of one objective. Requires a trained (or
  /// loaded) model. Each clause predicts as one sequence on the engine.
  data::DetailRecord Extract(const data::Objective& objective) const;

  /// Extracts details for a whole collection: an order-preserving map of
  /// Extract() (exec::ParallelMap), so record i belongs to objective i and
  /// is byte-identical to Extract(objectives[i]) for every thread count.
  /// Working memory is one objective per worker, independent of n.
  std::vector<data::DetailRecord> ExtractAll(
      const std::vector<data::Objective>& objectives) const;

  /// Same, with an explicit thread count (<= 0 = hardware concurrency,
  /// 1 = serial) and optional throughput counters for observability.
  std::vector<data::DetailRecord> ExtractAll(
      const std::vector<data::Objective>& objectives, int32_t num_threads,
      runtime::Stats* stats = nullptr) const;

  /// Extracts a batch presented by pointer — the serve scheduler's view of
  /// a closed batch — on `pool` (null = a private pool with
  /// config.num_threads workers). The same map as ExtractAll: record i
  /// belongs to *objectives[i] and is byte-identical to
  /// Extract(*objectives[i]).
  std::vector<data::DetailRecord> ExtractBatch(
      const std::vector<const data::Objective*>& objectives,
      runtime::ThreadPool* pool, runtime::Stats* stats = nullptr) const;

  /// Predicts word-level IOB label ids for a raw text (diagnostics and
  /// tests). Requires a trained model.
  std::vector<labels::LabelId> PredictWordLabels(
      const std::string& text) const;

  /// Persists the tokenizer and model weights to `directory` (two files).
  Status Save(const std::string& directory) const;

  /// Restores a model saved with Save(); the config must match.
  Status Load(const std::string& directory);

  bool trained() const { return model_ != nullptr; }
  const ExtractorConfig& config() const { return config_; }
  const labels::LabelCatalog& catalog() const { return catalog_; }

  /// Weak-labeling coverage statistics from the last Train() call.
  const weaksup::WeakLabelStats& last_train_stats() const {
    return train_stats_;
  }

 private:
  /// Observability handles into obs::MetricsRegistry::Default(), resolved
  /// once at construction so the (concurrent, const) inference hot path
  /// never touches the registry lock. All null when
  /// ExtractorConfig::enable_metrics is false or instrumentation is
  /// compiled out; each site additionally honors the obs::Enabled()
  /// runtime toggle.
  struct Metrics {
    obs::Histogram* tokenize_seconds = nullptr;
    obs::Histogram* predict_seconds = nullptr;
    obs::Histogram* decode_seconds = nullptr;
    obs::Histogram* extract_seconds = nullptr;
    obs::Counter* objectives = nullptr;
    obs::Counter* empty_objectives = nullptr;
    obs::Counter* spans = nullptr;
    std::vector<obs::Counter*> spans_by_kind;  ///< Parallel to kinds.
    obs::Gauge* objectives_per_second = nullptr;
  };

  /// True when this call should record metrics (handles resolved and the
  /// global runtime toggle is on).
  bool InstrumentNow() const {
    return metrics_.objectives != nullptr && obs::Enabled();
  }

  /// One encoded training instance.
  struct EncodedExample {
    std::vector<int32_t> ids;       ///< Subword ids with BOS/EOS.
    std::vector<int32_t> targets;   ///< Label per position (-1 = ignore).
  };

  /// The production-phase inference pipeline for one text, run exactly
  /// once per objective: normalize -> word-tokenize -> BPE-encode ->
  /// transformer predict -> word-level labels.
  struct WordPrediction {
    std::string prepared;                     ///< Normalized text.
    std::vector<text::Token> tokens;          ///< Word tokens of prepared.
    std::vector<labels::LabelId> word_labels; ///< One label per token.
  };

  /// Splits an objective text into single-target clause texts; returns the
  /// whole text as one clause unless segmentation is on and finds > 1.
  std::vector<std::string> ClauseTexts(const std::string& text) const;

  /// Runs the inference pipeline once: tokenize (normalize, word-split,
  /// BPE-encode), predict the subword ids on the engine, and map subword
  /// predictions back to word labels. Thread-safe after Train()/Load():
  /// the model, tokenizer, catalog and engine are immutable by then, and
  /// every engine call owns its scratch.
  WordPrediction PredictPrepared(const std::string& text) const;

  /// Builds the inference engine on the current weights. Called when
  /// Train()/Load() completes — the single point where the model's weights
  /// are final — and before every epoch callback (the engine derives state
  /// from the weights at build time; see the engine_ comment).
  void RebuildEngine();

  /// Shared implementation of both ExtractAll overloads and ExtractBatch:
  /// Extract() mapped over `objectives` on `pool`.
  std::vector<data::DetailRecord> ExtractBatchImpl(
      const std::vector<const data::Objective*>& objectives,
      runtime::ThreadPool& pool, runtime::Stats* stats) const;

  /// Extracts from one (already single-target) objective.
  data::DetailRecord ExtractSingle(const data::Objective& objective) const;

  /// Decodes IOB spans from a finished prediction and reads the surface
  /// values out of the prepared text.
  data::DetailRecord DecodeRecord(const data::Objective& objective,
                                  const WordPrediction& prediction) const;

  /// Merges per-clause records in clause order (first value wins per
  /// field) under the original objective's id/text. `parts` is consumed.
  data::DetailRecord MergeClauseRecords(
      const data::Objective& objective,
      std::vector<data::DetailRecord>& parts) const;

  /// Normalizes an objective text per config.
  std::string Prepare(const std::string& text) const;

  /// Encodes word tokens + word labels into a model input/target pair.
  EncodedExample EncodeExample(
      const std::vector<text::Token>& tokens,
      const std::vector<labels::LabelId>& word_labels) const;

  ExtractorConfig config_;
  Metrics metrics_;
  labels::LabelCatalog catalog_;
  weaksup::WeakLabeler labeler_;
  text::WordTokenizer word_tokenizer_;
  std::unique_ptr<bpe::BpeModel> tokenizer_;
  std::unique_ptr<nn::TokenClassifier> model_;
  /// The one inference engine (DESIGN.md §14) over model_'s weights, for
  /// Extract, ExtractAll and ExtractBatch alike. Null until trained or
  /// loaded. It borrows the encoder weights but *derives* state at
  /// construction — the padded classifier head and any int8 codes — so it
  /// must be rebuilt whenever the weights change.
  std::unique_ptr<infer::PackedEngine> engine_;
  weaksup::WeakLabelStats train_stats_;
};

}  // namespace goalex::core

#endif  // GOALEX_CORE_EXTRACTOR_H_
