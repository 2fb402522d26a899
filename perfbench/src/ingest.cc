// ingest — the paper's Section 5 deployment: the Table 5 report fleet
// (14 companies, 380 documents) followed by a multi-year restatement
// stream, through StreamPipeline with the trained transformer detector and
// the trained DetailExtractor as its stages, SDG tagging, and versioned
// upserts into an attached store that is flushed at the end.
//
// End-to-end: throughput_per_s = documents / (Process + Flush) wall;
// secondary_per_s = detected objectives / the same wall (both medians over
// passes); p50_ms / p99_ms = per-block stage latency (detection, plus
// extraction when the block is detected), from raw samples.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/database.h"
#include "data/report.h"
#include "data/stream.h"
#include "goalspotter/detector.h"
#include "pipeline/stream_pipeline.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using goalex::core::ObjectiveDatabase;
using goalex::data::TimedDocument;

/// The measured feed and its ground truth.
struct Feed {
  std::vector<TimedDocument> fleet;   ///< Table 5 reports, in order.
  std::vector<TimedDocument> stream;  ///< Multi-year restatement stream.
  std::vector<TimedDocument> final_year;  ///< Re-delivered for the check.
  size_t unique_targets = 0;
  int64_t blocks = 0;
};

/// Converts one company's reports into sequenced feed documents.
void AppendReports(std::vector<goalex::data::Report> reports,
                   int64_t* sequence, std::vector<TimedDocument>* out) {
  for (goalex::data::Report& report : reports) {
    TimedDocument document;
    document.sequence = (*sequence)++;
    document.timestamp_ms = document.sequence * 1000;
    document.report = std::move(report);
    out->push_back(std::move(document));
  }
}

/// The gold upsert key of an objective block (its annotations as a record).
std::string GoldKey(const std::string& company,
                    const goalex::data::ReportBlock& block) {
  goalex::data::DetailRecord record;
  record.objective_text = block.text;
  for (const auto& annotation : block.annotations) {
    record.fields[annotation.kind] = annotation.value;
  }
  return goalex::core::ObjectiveUpsertKey(company, record);
}

goalex::data::ReportStreamConfig StreamConfig(const Params& params,
                                              uint64_t seed) {
  goalex::data::ReportStreamConfig config;
  config.initial_companies = params.Int("stream_companies");
  config.years = params.Int("stream_years");
  config.initial_targets_per_company = params.Int("stream_targets");
  config.noise_blocks_per_report = params.Int("stream_noise_blocks");
  config.seed = seed;
  return config;
}

Feed MakeFeed(const Params& params, uint64_t seed) {
  Feed feed;
  int64_t sequence = 0;
  std::set<std::string> fleet_keys;
  uint64_t company_seed = 1000 + seed * 100;
  for (const goalex::data::CompanyProfile& profile :
       goalex::data::PaperDeploymentProfiles()) {
    AppendReports(goalex::data::GenerateCompanyReports(profile, company_seed++),
                  &sequence, &feed.fleet);
  }
  for (const TimedDocument& document : feed.fleet) {
    for (const auto& block : document.report.blocks) {
      if (block.is_objective) {
        fleet_keys.insert(GoldKey(document.report.company, block));
      }
    }
  }
  goalex::data::StreamTruth truth;
  goalex::data::ReportStreamConfig config =
      StreamConfig(params, 77000 + seed);
  feed.stream = goalex::data::GenerateReportStream(config, &truth);
  std::string last_year = "-";
  last_year += std::to_string(config.start_year + config.years - 1);
  last_year += ".pdf";
  for (TimedDocument& document : feed.stream) {
    document.sequence += sequence;
    const std::string& name = document.report.document;
    if (name.size() >= last_year.size() &&
        name.compare(name.size() - last_year.size(), last_year.size(),
                     last_year) == 0) {
      feed.final_year.push_back(document);
    }
  }
  feed.unique_targets = fleet_keys.size() + truth.unique_targets();
  for (const auto* part : {&feed.fleet, &feed.stream}) {
    for (const TimedDocument& document : *part) {
      feed.blocks += static_cast<int64_t>(document.report.blocks.size());
    }
  }
  return feed;
}

/// Labeled detector training blocks from a training-only fleet slice and
/// stream (seeds disjoint from the measured feed): every objective block
/// plus as many noise blocks, capped at detector_blocks.
std::vector<goalex::goalspotter::LabeledBlock> DetectorTrainingBlocks(
    const Params& params, uint64_t seed) {
  std::vector<TimedDocument> documents;
  int64_t sequence = 0;
  const auto& profiles = goalex::data::PaperDeploymentProfiles();
  for (size_t i = 0; i < 2; ++i) {
    AppendReports(
        goalex::data::GenerateCompanyReports(profiles[i], 500000 + seed + i),
        &sequence, &documents);
  }
  for (TimedDocument& document : goalex::data::GenerateReportStream(
           StreamConfig(params, 880000 + seed))) {
    documents.push_back(std::move(document));
  }
  std::vector<goalex::goalspotter::LabeledBlock> positives;
  std::vector<goalex::goalspotter::LabeledBlock> negatives;
  for (const TimedDocument& document : documents) {
    for (const auto& block : document.report.blocks) {
      (block.is_objective ? positives : negatives)
          .push_back({block.text, block.is_objective});
    }
  }
  const size_t cap = static_cast<size_t>(params.Int("detector_blocks"));
  goalex::Rng rng(seed + 5);
  rng.Shuffle(positives);
  rng.Shuffle(negatives);
  positives.resize(std::min(positives.size(), cap / 2));
  negatives.resize(std::min(negatives.size(), cap - positives.size()));
  std::vector<goalex::goalspotter::LabeledBlock> blocks = positives;
  blocks.insert(blocks.end(), negatives.begin(), negatives.end());
  rng.Shuffle(blocks);
  return blocks;
}

struct Models {
  std::unique_ptr<goalex::goalspotter::TransformerObjectiveDetector> detector;
  std::unique_ptr<goalex::core::DetailExtractor> extractor;
};

Models TrainModels(const Params& params, uint64_t seed) {
  Models models;
  goalex::goalspotter::TransformerDetectorOptions options;
  options.epochs = params.Int("detector_epochs");
  options.batch_size = params.Int("detector_batch_size");
  options.num_threads = params.Int("threads");
  options.seed = 3 + seed;
  models.detector =
      std::make_unique<goalex::goalspotter::TransformerObjectiveDetector>(
          options);
  double t0 = NowSeconds();
  models.detector->Train(DetectorTrainingBlocks(params, seed));
  double t1 = NowSeconds();
  models.extractor = TrainDeploymentExtractor(params, seed);
  std::printf("set-up: detector %.3f s, extractor %.3f s\n", t1 - t0,
              NowSeconds() - t1);
  return models;
}

/// Timed wrappers around the injected stages. Raw per-call samples feed
/// both the per-block latency (end-to-end) and the per-layer metrics; the
/// detection outcomes feed the detection F1.
struct StageProbe {
  SampleSink detect_s;
  SampleSink extract_s;
  SampleSink block_s;
  Sink<std::pair<const std::string*, bool>> outcomes;

  void Clear() {
    detect_s.Clear();
    extract_s.Clear();
    block_s.Clear();
    outcomes.Clear();
  }
};

/// StreamPipeline runs a document's blocks in order on one worker: each
/// detection is followed at once by the extraction of the same block when
/// it fired, so the pending detection time is per thread.
thread_local double pending_detect_s = 0.0;

goalex::pipeline::StreamStages NeuralStages(const Models& models,
                                            StageProbe* probe) {
  goalex::pipeline::StreamStages stages;
  const auto* detector = models.detector.get();
  const auto* extractor = models.extractor.get();
  stages.is_objective = [detector, probe](const std::string& text) {
    double t0 = NowSeconds();
    bool detected;
    {
      Span span("goalspotter.detect");
      detected = detector->IsObjective(text);
    }
    double dt = NowSeconds() - t0;
    probe->detect_s.Add(dt);
    probe->outcomes.Add({&text, detected});
    if (detected) {
      pending_detect_s = dt;
    } else {
      probe->block_s.Add(dt);
    }
    return detected;
  };
  stages.extract = [extractor, probe](const goalex::data::Objective& o) {
    double t0 = NowSeconds();
    goalex::data::DetailRecord record;
    {
      Span span("core.extract");
      record = extractor->Extract(o);
    }
    double dt = NowSeconds() - t0;
    probe->extract_s.Add(dt);
    probe->block_s.Add(pending_detect_s + dt);
    pending_detect_s = 0.0;
    return record;
  };
  return stages;
}

goalex::core::DbOptions StoreOptions(const Params& params) {
  goalex::core::DbOptions options;
  options.track_upserts = true;
  options.background_seal = false;
  options.wal_fsync_interval = params.Int("wal_fsync_interval");
  options.seal_threshold = 0;
  return options;
}

goalex::pipeline::StreamPipelineOptions PipelineOptions(const Params& params) {
  goalex::pipeline::StreamPipelineOptions options;
  options.parallel = true;
  options.workers = params.Int("threads");
  options.trust_feed_labels = false;
  options.classify_sdg = true;
  return options;
}

const std::vector<std::string>& ExportKinds() {
  static const auto* const kKinds = new std::vector<std::string>{
      "Action", "Amount", "Qualifier", "Baseline", "Deadline",
      goalex::core::kVersionField, goalex::core::kSequenceField,
      goalex::pipeline::kStatusField, goalex::pipeline::kSdgField};
  return *kKinds;
}

struct PassResult {
  double process_s = 0.0;
  double flush_s = 0.0;
  double wall_s = 0.0;
  goalex::pipeline::StreamStats stats;
};

/// One full ingest into a fresh attached store at `dir`; the store stays
/// open in `db` for the checks.
PassResult RunPass(const Feed& feed, const Models& models, StageProbe* probe,
                   const Params& params, const std::string& dir,
                   std::unique_ptr<ObjectiveDatabase>* db) {
  ResetDir(dir);
  *db = std::make_unique<ObjectiveDatabase>(params.Int("shards"),
                                            StoreOptions(params));
  GOALEX_CHECK_OK((*db)->Open(dir));
  goalex::pipeline::StreamPipeline pipeline(
      db->get(), NeuralStages(models, probe), PipelineOptions(params));
  PassResult result;
  double t0 = NowSeconds();
  {
    Span span("pipeline.process");
    pipeline.Process(feed.fleet);
    pipeline.Process(feed.stream);
  }
  double t1 = NowSeconds();
  {
    Span span("storage.flush");
    GOALEX_CHECK_OK((*db)->Flush());
  }
  double t2 = NowSeconds();
  result.process_s = t1 - t0;
  result.flush_s = t2 - t1;
  result.wall_s = t2 - t0;
  result.stats = pipeline.totals();
  return result;
}

/// Detection F1 against the feed's gold block labels. Outcomes are keyed by
/// the address of the text the pipeline handed to the stage: it passes the
/// feed's own block string by reference, and an unknown address aborts.
double DetectF1(const Feed& feed,
                const std::vector<std::pair<const std::string*, bool>>&
                    outcomes) {
  std::unordered_map<const std::string*, bool> gold;
  for (const auto* part : {&feed.fleet, &feed.stream}) {
    for (const TimedDocument& document : *part) {
      for (const auto& block : document.report.blocks) {
        gold.emplace(&block.text, block.is_objective);
      }
    }
  }
  int64_t tp = 0, fp = 0, fn = 0;
  for (const auto& [text, detected] : outcomes) {
    auto it = gold.find(text);
    GOALEX_CHECK_MSG(it != gold.end(), "detection outcome of an unknown block");
    if (detected && it->second) ++tp;
    if (detected && !it->second) ++fp;
    if (!detected && it->second) ++fn;
  }
  return tp == 0 ? 0.0 : 2.0 * tp / (2.0 * tp + fp + fn);
}

}  // namespace

void RunIngest(const Args& args, Report& report) {
  const Params& params = args.params;
  const int workers = params.Int("threads");

  Feed feed;
  Models models;
  std::vector<double> setup_s;
  for (int r = 0; r < params.Int("setup_repeats"); ++r) {
    double t0 = NowSeconds();
    feed = MakeFeed(params, args.seed);
    models = TrainModels(params, args.seed);
    setup_s.push_back(NowSeconds() - t0);
  }
  report.Note("ingest feed: " + std::to_string(feed.fleet.size()) +
              " fleet + " + std::to_string(feed.stream.size()) +
              " stream documents, " + std::to_string(feed.blocks) +
              " blocks, " + std::to_string(feed.unique_targets) +
              " unique gold targets");

  StageProbe probe;
  const std::string dir = args.work_dir + "/store";
  std::unique_ptr<ObjectiveDatabase> db;
  std::vector<double> docs_per_s, objectives_per_s, block_ms;
  std::vector<double> traced_wall_s;
  double untraced_wall_s = 0.0;
  double detect_f1 = -1.0;
  std::map<std::string, double> layer;
  const int64_t documents =
      static_cast<int64_t>(feed.fleet.size() + feed.stream.size());
  const double measure_start = NowSeconds();
  for (int pass = 0;; ++pass) {
    // A traced run makes one untraced pass (the overhead reference), then
    // traced passes; per-layer values come from the first traced pass.
    const bool traced = args.trace && pass > 0;
    const int counted = args.trace ? pass - 1 : pass;
    if (counted >= params.Int("min_passes") &&
        NowSeconds() - measure_start >= args.seconds) {
      break;
    }
    probe.Clear();
    db.reset();
    const RegistryReading before = RegistryReading::Take();
    SetTracing(traced);
    PassResult result = RunPass(feed, models, &probe, params, dir, &db);
    SetTracing(false);
    const RegistryReading after = RegistryReading::Take();
    report.AddAttempted(feed.blocks);
    if (detect_f1 < 0.0) detect_f1 = DetectF1(feed, probe.outcomes.Merged());
    if (args.trace && pass == 0) {
      untraced_wall_s = result.wall_s;
      continue;
    }
    docs_per_s.push_back(documents / result.wall_s);
    objectives_per_s.push_back(result.stats.objectives / result.wall_s);
    for (double s : probe.block_s.Merged()) block_ms.push_back(s * 1e3);
    if (args.trace) traced_wall_s.push_back(result.wall_s);
    if (traced && pass == 1) {
      std::vector<double> detect = probe.detect_s.Merged();
      std::vector<double> extract = probe.extract_s.Merged();
      layer["goalspotter.detect_calls"] = static_cast<double>(detect.size());
      layer["goalspotter.detect_busy_s"] = Sum(detect);
      layer["goalspotter.detect_p50_us"] = Percentile(detect, 0.50) * 1e6;
      layer["goalspotter.detect_p99_us"] = Percentile(detect, 0.99) * 1e6;
      layer["core.extract_calls"] = static_cast<double>(extract.size());
      layer["core.extract_busy_s"] = Sum(extract);
      layer["core.extract_p50_us"] = Percentile(extract, 0.50) * 1e6;
      layer["core.extract_p99_us"] = Percentile(extract, 0.99) * 1e6;
      layer["pipeline.process_s"] = result.process_s;
      layer["pipeline.other_busy_s"] =
          workers * result.process_s - Sum(detect) - Sum(extract);
      const double run_s = after.HistSumDelta(before, "exec.run.seconds");
      layer["exec.utilization"] =
          run_s > 0.0
              ? after.HistSumDelta(before, "exec.node.seconds") /
                    (workers * run_s)
              : 0.0;
      layer["exec.steals"] = after.CounterDelta(before, "exec.steals");
      layer["storage.flush_s"] = result.flush_s;
      layer["storage.wal_appends"] =
          after.CounterDelta(before, "db.wal.appends");
      layer["storage.upserts_inserted"] =
          static_cast<double>(result.stats.inserted);
      layer["storage.upserts_updated"] =
          static_cast<double>(result.stats.updated);
      layer["storage.upserts_unchanged"] =
          static_cast<double>(result.stats.unchanged);
      layer["storage.segments"] =
          static_cast<double>(db->SealedSegmentCount());
    }
  }

  // Output checks on the last pass's store.
  const std::string live_csv = db->ExportCsv(ExportKinds());
  {
    goalex::pipeline::StreamPipeline replay(
        db.get(), NeuralStages(models, &probe), PipelineOptions(params));
    goalex::pipeline::StreamStats stats = replay.Process(feed.final_year);
    report.Check(stats.inserted == 0 && stats.updated == 0 &&
                     stats.documents ==
                         static_cast<int64_t>(feed.final_year.size()),
                 "re-delivering the final year (" +
                     std::to_string(feed.final_year.size()) +
                     " documents) lands all-unchanged (" +
                     std::to_string(stats.inserted) + " inserted, " +
                     std::to_string(stats.updated) + " updated)");
  }
  report.Check(db->ExportCsv(ExportKinds()) == live_csv,
               "re-delivery left the export unchanged");
  const size_t live_rows = db->live_size();
  report.Check(live_rows >= feed.unique_targets,
               "live rows " + std::to_string(live_rows) +
                   " >= unique gold targets " +
                   std::to_string(feed.unique_targets));
  {
    ObjectiveDatabase reloaded(params.Int("shards"), StoreOptions(params));
    GOALEX_CHECK_OK(reloaded.Load(dir));
    report.Check(reloaded.ExportCsv(ExportKinds()) == live_csv,
                 "store reloaded read-only exports the same CSV");
  }
  const double f1_floor = params.Double("detect_f1_floor");
  report.Check(detect_f1 >= f1_floor,
               "detection F1 " + std::to_string(detect_f1) + " >= floor " +
                   std::to_string(f1_floor));
  db.reset();

  if (!args.trace) {
    EndToEnd e2e;
    e2e.names = {"ingest.docs_per_s", "ingest.objectives_per_s",
                 "ingest.block_p50_ms", "ingest.block_p99_ms"};
    e2e.setup_s = Median(setup_s);
    e2e.throughput_per_s = Median(docs_per_s);
    e2e.secondary_per_s = Median(objectives_per_s);
    e2e.p50_ms = Percentile(block_ms, 0.50);
    e2e.p99_ms = Percentile(block_ms, 0.99);
    report.Note(std::to_string(docs_per_s.size()) + " passes, " +
                std::to_string(block_ms.size()) + " block latency samples");
    EmitEndToEnd(e2e, report);
    return;
  }
  layer["ingest.detect_f1"] = detect_f1;
  layer["trace.overhead_pct"] =
      100.0 * (Median(traced_wall_s) / untraced_wall_s - 1.0);
  EmitPerLayer(layer, report);
}

}  // namespace perfbench
