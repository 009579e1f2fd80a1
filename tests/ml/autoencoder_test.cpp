#include "ml/autoencoder.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "ml/outlier.h"

namespace pe::ml {
namespace {

data::DataBlock make_block(std::size_t rows, double outlier_fraction = 0.05,
                           std::uint64_t seed = 7) {
  data::GeneratorConfig config;
  config.clusters = 5;
  config.outlier_fraction = outlier_fraction;
  config.seed = seed;
  data::Generator gen(config);
  return gen.generate(rows);
}

AutoEncoderConfig small_config() {
  AutoEncoderConfig config;
  config.epochs_per_fit = 10;
  config.batch_size = 32;
  return config;
}

TEST(AutoEncoderTest, UnfittedRefusesToScore) {
  AutoEncoder model;
  EXPECT_FALSE(model.fitted());
  EXPECT_EQ(model.score(make_block(5)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AutoEncoderTest, PaperArchitectureParameterCount) {
  // Input 32, hidden [64, 32, 32, 64], output 32:
  // 33*64 + 65*32 + 33*32 + 33*64 + 65*32 = 9,440 parameters.
  AutoEncoder model;
  ASSERT_TRUE(model.fit(make_block(100)).ok());
  EXPECT_EQ(model.parameter_count(), 9440u);
}

TEST(AutoEncoderTest, ExtraInputLayerVariantAddsLayer) {
  AutoEncoderConfig config = small_config();
  config.extra_input_layer = true;
  AutoEncoder model(config);
  ASSERT_TRUE(model.fit(make_block(100)).ok());
  // Adds a 32->32 layer: 9,440 + 33*32 = 10,496.
  EXPECT_EQ(model.parameter_count(), 10496u);
}

TEST(AutoEncoderTest, TrainingReducesLoss) {
  AutoEncoderConfig config;
  config.epochs_per_fit = 1;
  AutoEncoder model(config);
  auto block = make_block(400, 0.0);
  ASSERT_TRUE(model.fit(block).ok());
  const double first = model.last_loss();
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(model.partial_fit(block).ok());
  }
  EXPECT_LT(model.last_loss(), first * 0.7);
}

TEST(AutoEncoderTest, DetectsInjectedOutliers) {
  AutoEncoderConfig config = small_config();
  config.epochs_per_fit = 30;
  AutoEncoder model(config);
  auto block = make_block(1500, 0.05);
  ASSERT_TRUE(model.fit(block).ok());
  auto scores = model.score(block);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(roc_auc(scores.value(), block.labels), 0.85);
}

TEST(AutoEncoderTest, ScoresAreNonNegative) {
  AutoEncoder model(small_config());
  auto block = make_block(200);
  ASSERT_TRUE(model.fit(block).ok());
  auto scores = model.score(block);
  ASSERT_TRUE(scores.ok());
  for (double s : scores.value()) EXPECT_GE(s, 0.0);
}

TEST(AutoEncoderTest, TrainingRowCapBoundsEpochCost) {
  AutoEncoderConfig config = small_config();
  config.max_training_rows = 64;
  AutoEncoder model(config);
  auto big = make_block(5000);
  ASSERT_TRUE(model.fit(big).ok());  // fast because only 64 rows train
  auto scores = model.score(big);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores.value().size(), 5000u);  // scoring covers all rows
}

TEST(AutoEncoderTest, FeatureMismatchRejected) {
  AutoEncoder model(small_config());
  ASSERT_TRUE(model.fit(make_block(100)).ok());
  data::DataBlock narrow;
  narrow.rows = 1;
  narrow.cols = 3;
  narrow.values.assign(3, 0.0);
  EXPECT_EQ(model.partial_fit(narrow).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(model.score(narrow).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AutoEncoderTest, SaveLoadRoundTripPreservesScores) {
  AutoEncoder model(small_config());
  auto block = make_block(300);
  ASSERT_TRUE(model.fit(block).ok());
  const auto before = model.score(block).value();

  AutoEncoder restored;
  ASSERT_TRUE(restored.load(model.save()).ok());
  EXPECT_EQ(restored.parameter_count(), model.parameter_count());
  const auto after = restored.score(block).value();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-12);
  }
}

TEST(AutoEncoderTest, LoadedModelCanKeepTraining) {
  AutoEncoder model(small_config());
  auto block = make_block(300);
  ASSERT_TRUE(model.fit(block).ok());
  AutoEncoder restored(small_config());
  ASSERT_TRUE(restored.load(model.save()).ok());
  EXPECT_TRUE(restored.partial_fit(block).ok());
}

TEST(AutoEncoderTest, LoadGarbageRejected) {
  AutoEncoder model;
  EXPECT_FALSE(model.load(Bytes{1}).ok());
}

TEST(AutoEncoderTest, DeterministicWithSameSeed) {
  AutoEncoderConfig config = small_config();
  config.seed = 5;
  auto block = make_block(200);
  AutoEncoder a(config), b(config);
  ASSERT_TRUE(a.fit(block).ok());
  ASSERT_TRUE(b.fit(block).ok());
  const auto sa = a.score(block).value();
  const auto sb = b.score(block).value();
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_DOUBLE_EQ(sa[i], sb[i]);
}

TEST(AutoEncoderTest, CustomLayerShapes) {
  AutoEncoderConfig config = small_config();
  config.hidden_layers = {8, 4, 8};
  AutoEncoder model(config);
  ASSERT_TRUE(model.fit(make_block(100)).ok());
  // 33*8 + 9*4 + 5*8 + 9*32 = 264 + 36 + 40 + 288 = 628.
  EXPECT_EQ(model.parameter_count(), 628u);
}

}  // namespace
}  // namespace pe::ml
