#include "core/config.h"

#include <gtest/gtest.h>

#include "data/schema.h"

namespace goalex::core {
namespace {

ExtractorConfig BaseConfig() {
  ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  return config;
}

TEST(ConfigTest, TextRoundTrip) {
  ExtractorConfig config = BaseConfig();
  config.preset = ModelPreset::kDistilBert;
  config.epochs = 7;
  config.learning_rate = 3e-4f;
  config.batch_size = 8;
  config.dropout = 0.25f;
  config.seed = 12345;
  config.bpe_merges = 900;
  config.num_threads = 3;
  config.enable_metrics = false;
  config.segment_multi_target = true;

  StatusOr<ExtractorConfig> parsed = ExtractorConfig::FromText(config.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->kinds, config.kinds);
  EXPECT_EQ(parsed->preset, ModelPreset::kDistilBert);
  EXPECT_EQ(parsed->epochs, 7);
  EXPECT_FLOAT_EQ(parsed->learning_rate, 3e-4f);
  EXPECT_EQ(parsed->batch_size, 8);
  EXPECT_FLOAT_EQ(parsed->dropout, 0.25f);
  EXPECT_EQ(parsed->seed, 12345u);
  EXPECT_EQ(parsed->bpe_merges, 900u);
  EXPECT_EQ(parsed->num_threads, 3);
  EXPECT_FALSE(parsed->enable_metrics);
  EXPECT_TRUE(parsed->segment_multi_target);
}

TEST(ConfigTest, RejectsNonNumericValue) {
  // The seed-era atoi path silently turned this into epochs=0 — a model
  // that trains for zero epochs.
  StatusOr<ExtractorConfig> parsed =
      ExtractorConfig::FromText("kinds=Action\nepochs=abc\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("epochs"), std::string::npos);
}

TEST(ConfigTest, RejectsTrailingGarbage) {
  StatusOr<ExtractorConfig> parsed =
      ExtractorConfig::FromText("kinds=Action\nbatch_size=16x\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, RejectsEmptyNumericValue) {
  StatusOr<ExtractorConfig> parsed =
      ExtractorConfig::FromText("kinds=Action\nd_model=\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, RejectsOutOfRangeValue) {
  StatusOr<ExtractorConfig> parsed = ExtractorConfig::FromText(
      "kinds=Action\nepochs=99999999999999999999\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, ParsesFloatValues) {
  StatusOr<ExtractorConfig> parsed = ExtractorConfig::FromText(
      "kinds=Action\nlearning_rate=5e-05\ndropout=0.1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_FLOAT_EQ(parsed->learning_rate, 5e-5f);
  EXPECT_FLOAT_EQ(parsed->dropout, 0.1f);
}

TEST(ConfigTest, RejectsMalformedFloat) {
  StatusOr<ExtractorConfig> parsed =
      ExtractorConfig::FromText("kinds=Action\ndropout=0.1.2\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, RejectsBadBool) {
  StatusOr<ExtractorConfig> parsed =
      ExtractorConfig::FromText("kinds=Action\nnormalize_text=yes\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, RejectsUnknownKeyAndMissingKinds) {
  EXPECT_FALSE(ExtractorConfig::FromText("kinds=Action\nbogus=1\n").ok());
  EXPECT_FALSE(ExtractorConfig::FromText("epochs=3\n").ok());
}

TEST(ConfigTest, ParsesConfigSavedBeforeTheEngineKnobsRetired) {
  // config.txt as written by models saved while the engine-selection
  // switches existed: the two retired keys still load (and are ignored).
  const std::string saved =
      "kinds=Action,Amount,Deadline\n"
      "preset=roberta\n"
      "epochs=10\n"
      "learning_rate=5e-05\n"
      "learning_rate_scale=20\n"
      "batch_size=16\n"
      "dropout=0.1\n"
      "seed=17\n"
      "bpe_merges=2600\n"
      "max_seq_len=96\n"
      "d_model=64\n"
      "heads=4\n"
      "ffn_dim=128\n"
      "base_layers=2\n"
      "normalize_text=1\n"
      "num_threads=0\n"
      "enable_metrics=1\n"
      "use_inference_engine=1\n"
      "packed_inference=0\n"
      "packed_chunk_tokens=256\n"
      "quantize_int8=0\n"
      "segment_multi_target=0\n"
      "exact_match=1\n";
  StatusOr<ExtractorConfig> parsed = ExtractorConfig::FromText(saved);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->kinds,
            (std::vector<std::string>{"Action", "Amount", "Deadline"}));
  EXPECT_EQ(parsed->packed_chunk_tokens, 256);
  // Re-saving drops the retired keys.
  const std::string text = parsed->ToText();
  EXPECT_EQ(text.find("use_inference_engine"), std::string::npos);
  EXPECT_EQ(text.find("packed_inference"), std::string::npos);
  // Their values are still validated.
  EXPECT_FALSE(
      ExtractorConfig::FromText("kinds=Action\nuse_inference_engine=yes\n")
          .ok());
  EXPECT_FALSE(
      ExtractorConfig::FromText("kinds=Action\npacked_inference=2\n").ok());
}

TEST(ConfigTest, NegativeNumThreadsAllowed) {
  // num_threads <= 0 means "auto"; the parser must not reject the sign.
  StatusOr<ExtractorConfig> parsed =
      ExtractorConfig::FromText("kinds=Action\nnum_threads=0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_threads, 0);
}

}  // namespace
}  // namespace goalex::core
