#include "core/extractor.h"

#include <fstream>
#include <sstream>

#include "common/check.h"
#include "eval/timer.h"
#include "exec/executor.h"
#include "obs/scope.h"
#include "runtime/thread_pool.h"
#include "nn/adam.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "segment/segmenter.h"
#include "text/normalizer.h"

namespace goalex::core {

DetailExtractor::DetailExtractor(ExtractorConfig config)
    : config_(std::move(config)),
      catalog_(config_.kinds),
      labeler_(&catalog_, config_.weak_labeler) {
  GOALEX_CHECK_MSG(!config_.kinds.empty(),
                   "ExtractorConfig.kinds must not be empty");
  if (config_.enable_metrics && obs::Active()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    metrics_.tokenize_seconds =
        registry.GetLatencyHistogram("extractor.stage.tokenize.seconds");
    metrics_.predict_seconds =
        registry.GetLatencyHistogram("extractor.stage.predict.seconds");
    metrics_.decode_seconds =
        registry.GetLatencyHistogram("extractor.stage.decode.seconds");
    metrics_.extract_seconds =
        registry.GetLatencyHistogram("extractor.extract.seconds");
    metrics_.objectives = registry.GetCounter("extractor.objectives");
    metrics_.empty_objectives =
        registry.GetCounter("extractor.objectives.empty");
    metrics_.spans = registry.GetCounter("extractor.spans");
    metrics_.spans_by_kind.reserve(config_.kinds.size());
    for (const std::string& kind : config_.kinds) {
      metrics_.spans_by_kind.push_back(
          registry.GetCounter("extractor.spans." + kind));
    }
    metrics_.objectives_per_second =
        registry.GetGauge("extractor.objectives_per_second");
  }
}

DetailExtractor::~DetailExtractor() = default;

std::string DetailExtractor::Prepare(const std::string& text) const {
  if (!config_.normalize_text) return text;
  return text::Normalize(text);
}

DetailExtractor::EncodedExample DetailExtractor::EncodeExample(
    const std::vector<text::Token>& tokens,
    const std::vector<labels::LabelId>& word_labels) const {
  GOALEX_CHECK(tokenizer_ != nullptr);
  std::vector<std::string> words;
  words.reserve(tokens.size());
  for (const text::Token& t : tokens) words.push_back(t.text);
  std::vector<bpe::Subword> subwords = tokenizer_->EncodeWords(words);

  EncodedExample example;
  example.ids.push_back(bpe::Vocab::kBosId);
  example.targets.push_back(-1);
  for (const bpe::Subword& sw : subwords) {
    example.ids.push_back(sw.id);
    // Standard first-subtoken supervision: continuation pieces are ignored
    // by the loss and at decode time.
    example.targets.push_back(
        sw.is_word_start ? word_labels[sw.word_index] : -1);
  }
  example.ids.push_back(bpe::Vocab::kEosId);
  example.targets.push_back(-1);
  return example;
}

Status DetailExtractor::Train(
    const std::vector<data::Objective>& objectives,
    const std::function<void(const EpochStats&)>& on_epoch_end) {
  if (objectives.empty()) {
    return InvalidArgumentError("cannot train on an empty corpus");
  }

  // Normalize texts and annotations once.
  std::vector<data::Objective> prepared = objectives;
  for (data::Objective& o : prepared) {
    o.text = Prepare(o.text);
    for (data::Annotation& a : o.annotations) a.value = Prepare(a.value);
  }

  // Per-stage tracing of the development phase; disarmed (null registry)
  // when this extractor's metrics are off.
  obs::MetricsRegistry* registry =
      config_.enable_metrics ? &obs::MetricsRegistry::Default() : nullptr;

  // Step 1 (development phase): learn the subword tokenizer on the
  // training corpus.
  obs::Span bpe_span(registry, "extractor.train.bpe");
  std::vector<std::string> corpus;
  corpus.reserve(prepared.size());
  for (const data::Objective& o : prepared) corpus.push_back(o.text);
  tokenizer_ = std::make_unique<bpe::BpeModel>(bpe::BpeModel::Train(
      corpus, config_.bpe_merges, config_.LowercaseTokenizer()));
  bpe_span.Stop();

  // Step 2: weak supervision token labeling (Algorithm 1), fanned out over
  // the configured worker count (order-preserving, so the training set is
  // identical for every thread count).
  obs::Span weaklabel_span(registry, "extractor.train.weaklabel");
  std::vector<weaksup::WeakLabeling> labelings =
      labeler_.LabelAll(prepared, config_.num_threads);
  train_stats_ = weaksup::ComputeStats(prepared, labelings);
  weaklabel_span.Stop();

  std::vector<EncodedExample> examples;
  examples.reserve(labelings.size());
  for (const weaksup::WeakLabeling& labeling : labelings) {
    if (labeling.tokens.empty()) continue;
    examples.push_back(EncodeExample(labeling.tokens, labeling.label_ids));
  }
  if (examples.empty()) {
    return FailedPreconditionError("no trainable examples after encoding");
  }
  // The corpus is fully encoded (the per-word cache is warm); freeze the
  // tokenizer so nothing on the inference path mutates shared state and
  // concurrent ExtractAll workers are safe.
  tokenizer_->Freeze();

  // Step 3: fine-tune the transformer sequence labeler on the
  // data-parallel trainer. The replicas' parameter values alias the master
  // model's storage; their gradients are the per-slot accumulation buffers.
  // Training is bit-identical for every num_threads value (see
  // nn/trainer.h).
  obs::Span finetune_span(registry, "extractor.train.finetune");
  Rng init_rng(config_.seed);
  nn::TransformerConfig arch = config_.BuildTransformerConfig(
      static_cast<int32_t>(tokenizer_->vocab().size()));
  model_ = std::make_unique<nn::TokenClassifier>(arch, catalog_.label_count(),
                                                 init_rng);

  const int32_t slot_count =
      nn::DataParallelTrainer::SlotCount(config_.batch_size);
  std::vector<std::unique_ptr<nn::TokenClassifier>> replicas;
  std::vector<std::vector<tensor::Var>> replica_params;
  replicas.reserve(static_cast<size_t>(slot_count));
  replica_params.reserve(static_cast<size_t>(slot_count));
  for (int32_t s = 0; s < slot_count; ++s) {
    Rng replica_rng(config_.seed);  // Values get rebound to the master's.
    replicas.push_back(std::make_unique<nn::TokenClassifier>(
        arch, catalog_.label_count(), replica_rng));
    replica_params.push_back(replicas.back()->Parameters());
  }

  nn::ParallelTrainerOptions trainer_options;
  trainer_options.batch_size = config_.batch_size;
  trainer_options.num_threads = config_.num_threads;
  trainer_options.seed = config_.seed;
  trainer_options.adam.learning_rate = config_.EffectiveLearningRate();
  trainer_options.registry = registry;
  nn::DataParallelTrainer trainer(model_->Parameters(),
                                  std::move(replica_params), trainer_options);

  obs::Gauge* examples_per_sec =
      registry != nullptr && obs::Active()
          ? registry->GetGauge("extractor.train.examples_per_sec")
          : nullptr;

  const nn::SlotLossFn loss_fn = [&replicas, &examples](
                                     size_t slot, size_t example_index,
                                     Rng& rng) {
    const EncodedExample& example = examples[example_index];
    return replicas[slot]->ForwardLoss(example.ids, example.targets, rng);
  };

  Rng train_rng(config_.seed + 1);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int32_t epoch = 1; epoch <= config_.epochs; ++epoch) {
    eval::Timer timer;
    train_rng.Shuffle(order);
    double loss_sum = trainer.RunEpoch(order, epoch, loss_fn);
    double seconds = timer.Seconds();
    if (examples_per_sec != nullptr && seconds > 0.0) {
      examples_per_sec->Set(static_cast<double>(examples.size()) / seconds);
    }

    if (on_epoch_end) {
      EpochStats stats;
      stats.epoch = epoch;
      stats.mean_train_loss = loss_sum / static_cast<double>(examples.size());
      stats.seconds = seconds;
      // The callback may Extract(). The engine derives state (padded head,
      // int8 codes) from the weights at build time, so it is rebuilt on
      // this epoch's fresh weights before every callback.
      RebuildEngine();
      on_epoch_end(stats);
    }
  }
  RebuildEngine();
  return Status::Ok();
}

void DetailExtractor::RebuildEngine() {
  GOALEX_CHECK(model_ != nullptr);
  engine_.reset();
  infer::PackedEngineOptions options;
  options.quantize_int8 = config_.quantize_int8;
  engine_ = std::make_unique<infer::PackedEngine>(*model_, options);
}

DetailExtractor::WordPrediction DetailExtractor::PredictPrepared(
    const std::string& text) const {
  GOALEX_CHECK_MSG(model_ != nullptr, "extractor is not trained");
  const bool instrument = InstrumentNow();
  WordPrediction out;
  std::vector<bpe::Subword> subwords;
  std::vector<int32_t> ids;
  {
    obs::ScopedTimer tokenize_timer(instrument ? metrics_.tokenize_seconds
                                               : nullptr);
    out.prepared = Prepare(text);
    out.tokens = word_tokenizer_.Tokenize(out.prepared);
    if (out.tokens.empty()) return out;  // Nothing to predict.
    std::vector<std::string> words;
    words.reserve(out.tokens.size());
    for (const text::Token& t : out.tokens) words.push_back(t.text);
    subwords = tokenizer_->EncodeWords(words);
    ids.reserve(subwords.size() + 2);
    ids.push_back(bpe::Vocab::kBosId);
    for (const bpe::Subword& sw : subwords) ids.push_back(sw.id);
    ids.push_back(bpe::Vocab::kEosId);
  }
  std::vector<int32_t> predictions;
  {
    obs::ScopedTimer predict_timer(instrument ? metrics_.predict_seconds
                                              : nullptr);
    predictions = engine_->Predict(ids);
  }
  out.word_labels.assign(out.tokens.size(), labels::LabelCatalog::kOutsideId);
  // Position p in the prediction corresponds to subword p-1 (skip BOS);
  // the tail may be truncated by max_seq_len.
  for (size_t p = 1; p < predictions.size(); ++p) {
    const size_t sub = p - 1;
    if (sub >= subwords.size()) break;  // EOS or truncation.
    if (subwords[sub].is_word_start) {
      out.word_labels[subwords[sub].word_index] = predictions[p];
    }
  }
  return out;
}

std::vector<labels::LabelId> DetailExtractor::PredictWordLabels(
    const std::string& text) const {
  return PredictPrepared(text).word_labels;
}

std::vector<std::string> DetailExtractor::ClauseTexts(
    const std::string& text) const {
  if (config_.segment_multi_target) {
    segment::ObjectiveSegmenter segmenter;
    std::vector<segment::Segment> segments = segmenter.Split(text);
    if (segments.size() > 1) {
      std::vector<std::string> clauses;
      clauses.reserve(segments.size());
      for (segment::Segment& seg : segments) {
        clauses.push_back(std::move(seg.text));
      }
      return clauses;
    }
  }
  // Single-target: extract from the original text, not the segmenter's
  // view of it.
  return {text};
}

data::DetailRecord DetailExtractor::MergeClauseRecords(
    const data::Objective& objective,
    std::vector<data::DetailRecord>& parts) const {
  if (parts.size() == 1) return std::move(parts[0]);
  // The first clause's value wins per field (it is the annotated target).
  data::DetailRecord merged;
  merged.objective_id = objective.id;
  merged.objective_text = objective.text;
  for (data::DetailRecord& part : parts) {
    for (const auto& [kind, value] : part.fields) {
      merged.fields.emplace(kind, value);  // Keeps the first value.
    }
  }
  return merged;
}

data::DetailRecord DetailExtractor::Extract(
    const data::Objective& objective) const {
  GOALEX_CHECK_MSG(model_ != nullptr, "extractor is not trained");
  const bool instrument = InstrumentNow();
  obs::ScopedTimer extract_timer(instrument ? metrics_.extract_seconds
                                            : nullptr);
  if (instrument) metrics_.objectives->Increment();

  std::vector<std::string> clause_texts = ClauseTexts(objective.text);
  if (clause_texts.size() == 1) return ExtractSingle(objective);
  std::vector<data::DetailRecord> parts;
  parts.reserve(clause_texts.size());
  for (const std::string& clause_text : clause_texts) {
    data::Objective clause;
    clause.id = objective.id;
    clause.text = clause_text;
    parts.push_back(ExtractSingle(clause));
  }
  return MergeClauseRecords(objective, parts);
}

data::DetailRecord DetailExtractor::ExtractSingle(
    const data::Objective& objective) const {
  // One pass through the inference pipeline: normalization, word
  // tokenization, and BPE encoding all happen exactly once per objective.
  return DecodeRecord(objective, PredictPrepared(objective.text));
}

data::DetailRecord DetailExtractor::DecodeRecord(
    const data::Objective& objective,
    const WordPrediction& prediction) const {
  data::DetailRecord record;
  record.objective_id = objective.id;
  record.objective_text = objective.text;

  const bool instrument = InstrumentNow();
  if (prediction.tokens.empty()) {
    if (instrument) metrics_.empty_objectives->Increment();
    return record;
  }
  obs::ScopedTimer decode_timer(instrument ? metrics_.decode_seconds
                                           : nullptr);
  std::vector<labels::Span> spans =
      catalog_.DecodeSpans(prediction.word_labels);

  for (const labels::Span& span : spans) {
    const std::string& kind =
        catalog_.kinds()[static_cast<size_t>(span.kind)];
    if (instrument) {
      metrics_.spans->Increment();
      metrics_.spans_by_kind[static_cast<size_t>(span.kind)]->Increment();
    }
    if (record.fields.count(kind) > 0) continue;  // First span wins.
    size_t begin = prediction.tokens[span.begin].begin;
    size_t end = prediction.tokens[span.end - 1].end;
    record.fields[kind] = prediction.prepared.substr(begin, end - begin);
  }
  return record;
}

std::vector<data::DetailRecord> DetailExtractor::ExtractAll(
    const std::vector<data::Objective>& objectives) const {
  return ExtractAll(objectives, config_.num_threads, nullptr);
}

std::vector<data::DetailRecord> DetailExtractor::ExtractAll(
    const std::vector<data::Objective>& objectives, int32_t num_threads,
    runtime::Stats* stats) const {
  std::vector<const data::Objective*> ptrs;
  ptrs.reserve(objectives.size());
  for (const data::Objective& o : objectives) ptrs.push_back(&o);
  runtime::ThreadPool pool(num_threads);
  return ExtractBatchImpl(ptrs, pool, stats);
}

std::vector<data::DetailRecord> DetailExtractor::ExtractBatch(
    const std::vector<const data::Objective*>& objectives,
    runtime::ThreadPool* pool, runtime::Stats* stats) const {
  if (pool != nullptr) return ExtractBatchImpl(objectives, *pool, stats);
  runtime::ThreadPool local(config_.num_threads);
  return ExtractBatchImpl(objectives, local, stats);
}

std::vector<data::DetailRecord> DetailExtractor::ExtractBatchImpl(
    const std::vector<const data::Objective*>& objectives,
    runtime::ThreadPool& pool, runtime::Stats* stats) const {
  GOALEX_CHECK_MSG(model_ != nullptr, "extractor is not trained");
  std::vector<data::DetailRecord> out(objectives.size());
  const exec::RunStats run =
      exec::ParallelMap(pool, objectives.size(), [&](size_t i) {
        out[i] = Extract(*objectives[i]);
      });
  runtime::Stats run_stats;
  run_stats.items = objectives.size();
  run_stats.threads = pool.thread_count();
  run_stats.seconds = run.wall_seconds;
  run_stats.busy_seconds = run.busy_seconds;
  if (stats != nullptr) *stats = run_stats;
  if (InstrumentNow() && !objectives.empty()) {
    metrics_.objectives_per_second->Set(run_stats.ItemsPerSecond());
  }
  return out;
}

Status DetailExtractor::Save(const std::string& directory) const {
  if (model_ == nullptr || tokenizer_ == nullptr) {
    return FailedPreconditionError("nothing to save: extractor untrained");
  }
  {
    std::ofstream out(directory + "/tokenizer.txt", std::ios::trunc);
    if (!out) {
      return InternalError("cannot write tokenizer to " + directory);
    }
    out << tokenizer_->Serialize();
  }
  {
    std::ofstream out(directory + "/config.txt", std::ios::trunc);
    if (!out) return InternalError("cannot write config to " + directory);
    out << config_.ToText();
  }
  return nn::SaveParameters(*model_, directory + "/model.bin");
}

Status DetailExtractor::Load(const std::string& directory) {
  std::ifstream in(directory + "/tokenizer.txt");
  if (!in) return NotFoundError("missing tokenizer in " + directory);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto tokenizer = bpe::BpeModel::Deserialize(buffer.str());
  if (!tokenizer.ok()) return tokenizer.status();
  tokenizer_ = std::make_unique<bpe::BpeModel>(*std::move(tokenizer));
  // Loaded models go straight to (possibly concurrent) inference: freeze
  // the tokenizer so the encode cache is immutable from here on.
  tokenizer_->Freeze();

  Rng init_rng(config_.seed);
  nn::TransformerConfig arch = config_.BuildTransformerConfig(
      static_cast<int32_t>(tokenizer_->vocab().size()));
  model_ = std::make_unique<nn::TokenClassifier>(arch, catalog_.label_count(),
                                                 init_rng);
  Status status = nn::LoadParameters(*model_, directory + "/model.bin");
  if (!status.ok()) return status;
  // LoadParameters wrote into the parameter storage in place, so compiling
  // here (or even before the load) sees the final weights.
  RebuildEngine();
  return Status::Ok();
}

}  // namespace goalex::core
