// End-to-end tests of the core DetailExtractor (Figure 2's development and
// production phases). Training is slow relative to unit tests, so the
// trained extractor is shared across tests via a fixture.
#include "core/extractor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <utility>

#include "core/database.h"
#include "data/generator.h"
#include "data/dataset.h"
#include "eval/metrics.h"

namespace goalex::core {
namespace {

ExtractorConfig SmallConfig() {
  ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  config.bpe_merges = 1600;
  return config;
}

class TrainedExtractorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SustainabilityGoalsConfig corpus_config;
    corpus_config.objective_count = 600;
    std::vector<data::Objective> corpus =
        data::GenerateSustainabilityGoals(corpus_config);
    split_ = new data::Split(data::TrainTestSplit(corpus, 0.2, 3));
    extractor_ = new DetailExtractor(SmallConfig());
    ASSERT_TRUE(extractor_->Train(split_->train).ok());
  }

  static void TearDownTestSuite() {
    delete extractor_;
    extractor_ = nullptr;
    delete split_;
    split_ = nullptr;
  }

  static DetailExtractor* extractor_;
  static data::Split* split_;
};

DetailExtractor* TrainedExtractorTest::extractor_ = nullptr;
data::Split* TrainedExtractorTest::split_ = nullptr;

TEST_F(TrainedExtractorTest, TrainingCoverageStatsPopulated) {
  const weaksup::WeakLabelStats& stats = extractor_->last_train_stats();
  EXPECT_EQ(stats.objective_count, split_->train.size());
  EXPECT_GT(stats.MatchRate(), 0.85);
  EXPECT_GT(stats.labeled_token_count, 0u);
}

TEST_F(TrainedExtractorTest, ExtractsFromCleanObjective) {
  data::Objective o;
  o.id = "clean";
  o.text = "Reduce energy consumption by 20% by 2025.";
  data::DetailRecord record = extractor_->Extract(o);
  EXPECT_EQ(record.objective_id, "clean");
  // The model should find the action and the amount on this prototypical
  // sentence (the amount's trailing "%" may be dropped by the scaled-down
  // model, so only the numeric core is asserted).
  EXPECT_EQ(record.FieldOrEmpty("Action"), "Reduce");
  EXPECT_EQ(record.FieldOrEmpty("Amount").rfind("20", 0), 0u);
}

TEST_F(TrainedExtractorTest, BeatsChanceOnHeldOutData) {
  std::vector<data::DetailRecord> predictions =
      extractor_->ExtractAll(split_->test);
  eval::FieldEvaluator evaluator(data::SustainabilityGoalKinds());
  evaluator.AddAll(split_->test, predictions);
  EXPECT_GT(evaluator.Overall().f1, 0.6);
}

TEST_F(TrainedExtractorTest, ExtractionIsDeterministic) {
  data::Objective o;
  o.text = "Achieve net-zero carbon by 2040.";
  data::DetailRecord a = extractor_->Extract(o);
  data::DetailRecord b = extractor_->Extract(o);
  EXPECT_EQ(a.fields, b.fields);
}

TEST_F(TrainedExtractorTest, ParallelExtractAllByteIdenticalToSerial) {
  runtime::Stats serial_stats;
  runtime::Stats parallel_stats;
  std::vector<data::DetailRecord> serial =
      extractor_->ExtractAll(split_->test, /*num_threads=*/1, &serial_stats);
  std::vector<data::DetailRecord> parallel =
      extractor_->ExtractAll(split_->test, /*num_threads=*/4,
                             &parallel_stats);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].objective_id, parallel[i].objective_id) << i;
    EXPECT_EQ(serial[i].objective_text, parallel[i].objective_text) << i;
    EXPECT_EQ(serial[i].fields, parallel[i].fields) << i;
  }
  EXPECT_EQ(serial_stats.items, split_->test.size());
  EXPECT_EQ(serial_stats.threads, 1);
  EXPECT_EQ(parallel_stats.threads, 4);
}

TEST_F(TrainedExtractorTest, EmptyTextYieldsEmptyRecord) {
  data::Objective o;
  o.id = "empty";
  o.text = "";
  data::DetailRecord record = extractor_->Extract(o);
  EXPECT_TRUE(record.fields.empty());
}

TEST_F(TrainedExtractorTest, PredictWordLabelsAlignsWithTokens) {
  std::string text = "Reduce waste by 30% by 2030.";
  std::vector<labels::LabelId> word_labels =
      extractor_->PredictWordLabels(text);
  // "Reduce waste by 30 % by 2030 ." -> 8 word tokens.
  EXPECT_EQ(word_labels.size(), 8u);
  for (labels::LabelId id : word_labels) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, extractor_->catalog().label_count());
  }
}

TEST_F(TrainedExtractorTest, SaveLoadRoundTrip) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "goalex_extractor_test")
          .string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(extractor_->Save(dir).ok());

  DetailExtractor restored(SmallConfig());
  ASSERT_TRUE(restored.Load(dir).ok());
  // The trained tokenizer's cache holds the training words; the loaded one
  // starts empty, so every word takes the cold merge path.
  const std::vector<data::DetailRecord> trained =
      extractor_->ExtractAll(split_->test);
  const std::vector<data::DetailRecord> loaded =
      restored.ExtractAll(split_->test);
  ASSERT_EQ(trained.size(), loaded.size());
  for (size_t i = 0; i < trained.size(); ++i) {
    EXPECT_EQ(trained[i].objective_id, loaded[i].objective_id) << i;
    EXPECT_EQ(trained[i].objective_text, loaded[i].objective_text) << i;
    EXPECT_EQ(trained[i].fields, loaded[i].fields) << i;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(TrainedExtractorTest, NormalizationMakesMessyInputExtractable) {
  data::Objective messy;
  // Zero-width space, curly apostrophe, repeated whitespace.
  messy.text = "Reduce   energy\xE2\x80\x8B consumption by 20% by 2025.";
  data::DetailRecord record = extractor_->Extract(messy);
  EXPECT_EQ(record.FieldOrEmpty("Action"), "Reduce");
}

TEST(DetailExtractorTest, TrainOnEmptyCorpusFails) {
  DetailExtractor extractor(SmallConfig());
  EXPECT_FALSE(extractor.Train({}).ok());
}

TEST(DetailExtractorTest, LoadFromMissingDirectoryFails) {
  DetailExtractor extractor(SmallConfig());
  EXPECT_FALSE(extractor.Load("/nonexistent/dir").ok());
}

TEST(DetailExtractorTest, EpochCallbackFires) {
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 60;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  ExtractorConfig config = SmallConfig();
  config.epochs = 3;
  DetailExtractor extractor(config);
  std::vector<int32_t> epochs;
  std::vector<double> losses;
  ASSERT_TRUE(extractor
                  .Train(corpus,
                         [&](const EpochStats& stats) {
                           epochs.push_back(stats.epoch);
                           losses.push_back(stats.mean_train_loss);
                         })
                  .ok());
  EXPECT_EQ(epochs, (std::vector<int32_t>{1, 2, 3}));
  // Loss decreases over training.
  EXPECT_LT(losses.back(), losses.front());
}

TEST(DetailExtractorTest, EpochCallbackSeesCurrentWeights) {
  // The engine derives state from the weights when it is built, so Train()
  // must rebuild it before every callback: Extract() inside the last
  // epoch's callback sees the final weights, exactly like Extract() after
  // Train() returns.
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 60;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  ExtractorConfig config = SmallConfig();
  config.epochs = 2;
  DetailExtractor extractor(config);
  // Every word label and every extracted field over the corpus.
  auto snapshot = [&extractor, &corpus] {
    std::vector<labels::LabelId> word_labels;
    std::vector<std::map<std::string, std::string>> fields;
    for (const data::Objective& o : corpus) {
      for (labels::LabelId id : extractor.PredictWordLabels(o.text)) {
        word_labels.push_back(id);
      }
      fields.push_back(extractor.Extract(o).fields);
    }
    return std::make_pair(word_labels, fields);
  };
  std::vector<decltype(snapshot())> per_epoch;
  ASSERT_TRUE(
      extractor
          .Train(corpus,
                 [&](const EpochStats&) { per_epoch.push_back(snapshot()); })
          .ok());
  ASSERT_EQ(per_epoch.size(), 2u);
  // The weights moved between the two callbacks...
  EXPECT_NE(per_epoch[0].first, per_epoch[1].first);
  // ...and the last callback saw the weights Train() ends with.
  const auto after = snapshot();
  EXPECT_EQ(per_epoch[1].first, after.first);
  EXPECT_EQ(per_epoch[1].second, after.second);
}

TEST(ConfigTest, PresetProperties) {
  ExtractorConfig config;
  config.kinds = {"Action"};
  config.preset = ModelPreset::kRoberta;
  EXPECT_FALSE(config.LowercaseTokenizer());
  EXPECT_EQ(config.BuildTransformerConfig(100).layers, 2);
  EXPECT_FALSE(config.BuildTransformerConfig(100).sinusoidal_positions);

  config.preset = ModelPreset::kDistilRoberta;
  EXPECT_EQ(config.BuildTransformerConfig(100).layers, 1);

  config.preset = ModelPreset::kBert;
  EXPECT_TRUE(config.LowercaseTokenizer());
  EXPECT_TRUE(config.BuildTransformerConfig(100).sinusoidal_positions);

  config.preset = ModelPreset::kDistilBert;
  EXPECT_EQ(config.BuildTransformerConfig(100).layers, 1);
}

TEST(ConfigTest, EffectiveLearningRate) {
  ExtractorConfig config;
  config.learning_rate = 5e-5f;
  config.learning_rate_scale = 20.0f;
  EXPECT_NEAR(config.EffectiveLearningRate(), 1e-3f, 1e-9f);
}

TEST(ConfigTest, PresetNames) {
  EXPECT_STREQ(ModelPresetName(ModelPreset::kRoberta), "roberta");
  EXPECT_STREQ(ModelPresetName(ModelPreset::kDistilBert), "distilbert");
}

}  // namespace
}  // namespace goalex::core
