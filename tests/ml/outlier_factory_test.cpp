#include <gtest/gtest.h>

#include "data/generator.h"
#include "ml/baseline.h"
#include "ml/factory.h"
#include "ml/outlier.h"

namespace pe::ml {
namespace {

// ---------- metrics ----------

TEST(OutlierMetricsTest, ThresholdClassification) {
  const std::vector<double> scores = {0.1, 0.9, 0.8, 0.2};
  const std::vector<std::uint8_t> labels = {0, 1, 0, 0};
  const auto m = evaluate_threshold(scores, labels, 0.5);
  EXPECT_EQ(m.true_positives, 1u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.true_negatives, 2u);
  EXPECT_EQ(m.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(m.precision(), 0.5);
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);
  EXPECT_NEAR(m.f1(), 2.0 / 3.0, 1e-12);
}

TEST(OutlierMetricsTest, EmptyDenominatorsAreZero) {
  ClassificationMetrics m;
  EXPECT_EQ(m.precision(), 0.0);
  EXPECT_EQ(m.recall(), 0.0);
  EXPECT_EQ(m.f1(), 0.0);
}

TEST(OutlierMetricsTest, PerfectSeparationAucOne) {
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  const std::vector<std::uint8_t> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels), 1.0);
}

TEST(OutlierMetricsTest, InvertedSeparationAucZero) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<std::uint8_t> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels), 0.0);
}

TEST(OutlierMetricsTest, TiesGetAverageRank) {
  const std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  const std::vector<std::uint8_t> labels = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels), 0.5);
}

TEST(OutlierMetricsTest, SingleClassIsChance) {
  EXPECT_DOUBLE_EQ(roc_auc({0.1, 0.2}, {0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(roc_auc({0.1, 0.2}, {1, 1}), 0.5);
}

TEST(OutlierMetricsTest, QuantileMatchesSortedOrder) {
  std::vector<double> scores = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(score_quantile(scores, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(score_quantile(scores, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(score_quantile(scores, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(score_quantile({}, 0.5), 0.0);
}

// ---------- baseline ----------

TEST(BaselineTest, AlwaysFittedAndZeroScores) {
  Baseline model;
  EXPECT_TRUE(model.fitted());
  data::Generator gen;
  auto block = gen.generate(10);
  ASSERT_TRUE(model.fit(block).ok());
  ASSERT_TRUE(model.partial_fit(block).ok());
  auto scores = model.score(block);
  ASSERT_TRUE(scores.ok());
  for (double s : scores.value()) EXPECT_EQ(s, 0.0);
  EXPECT_EQ(model.parameter_count(), 0u);
  EXPECT_TRUE(model.load(model.save()).ok());
}

TEST(BaselineTest, InvalidBlockRejected) {
  Baseline model;
  data::DataBlock bad;
  bad.rows = 2;
  bad.cols = 2;  // values missing
  EXPECT_FALSE(model.fit(bad).ok());
  EXPECT_FALSE(model.score(bad).ok());
}

// ---------- factory ----------

struct FactoryCase {
  ModelKind kind;
  const char* name;
};

// Names each case by its model name; the default printer dumps the
// struct's raw bytes (pointer and padding), which renamed the test on
// every relink.
void PrintTo(const FactoryCase& c, std::ostream* os) { *os << c.name; }

class FactoryTest : public ::testing::TestWithParam<FactoryCase> {};

TEST_P(FactoryTest, CreatesWorkingModel) {
  auto model = make_model(GetParam().kind);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->kind(), GetParam().kind);
  EXPECT_EQ(model->name(), GetParam().name);

  data::Generator gen;
  auto block = gen.generate(300);
  ASSERT_TRUE(model->partial_fit(block).ok());
  auto scores = model->score(block);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores.value().size(), 300u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FactoryTest,
    ::testing::Values(FactoryCase{ModelKind::kBaseline, "baseline"},
                      FactoryCase{ModelKind::kKMeans, "kmeans"},
                      FactoryCase{ModelKind::kIsolationForest,
                                  "isolation-forest"},
                      FactoryCase{ModelKind::kAutoEncoder, "auto-encoder"}));

TEST(FactoryConfigTest, OverridesApply) {
  ConfigMap config;
  config.set_int("kmeans.clusters", 7);
  auto model = make_model(ModelKind::kKMeans, config);
  data::Generator gen;
  ASSERT_TRUE(model->fit(gen.generate(100)).ok());
  EXPECT_EQ(model->parameter_count(), 7u * 32u);

  ConfigMap forest_config;
  forest_config.set_int("iforest.trees", 3);
  auto forest = make_model(ModelKind::kIsolationForest, forest_config);
  ASSERT_TRUE(forest->fit(gen.generate(100)).ok());
  // 3 trees worth of nodes, far fewer than the default 100.
  auto dflt = make_model(ModelKind::kIsolationForest);
  ASSERT_TRUE(dflt->fit(gen.generate(100)).ok());
  EXPECT_LT(forest->parameter_count(), dflt->parameter_count());
}

TEST(ParseModelKindTest, AcceptsAliases) {
  EXPECT_EQ(parse_model_kind("baseline").value(), ModelKind::kBaseline);
  EXPECT_EQ(parse_model_kind("kmeans").value(), ModelKind::kKMeans);
  EXPECT_EQ(parse_model_kind("k-means").value(), ModelKind::kKMeans);
  EXPECT_EQ(parse_model_kind("iforest").value(),
            ModelKind::kIsolationForest);
  EXPECT_EQ(parse_model_kind("isolation-forest").value(),
            ModelKind::kIsolationForest);
  EXPECT_EQ(parse_model_kind("ae").value(), ModelKind::kAutoEncoder);
  EXPECT_EQ(parse_model_kind("autoencoder").value(),
            ModelKind::kAutoEncoder);
  EXPECT_FALSE(parse_model_kind("svm").ok());
}

// Every real model must actually detect the generator's injected
// outliers — the accuracy backbone behind the performance experiments.
class DetectionQualityTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(DetectionQualityTest, AucWellAboveChance) {
  ConfigMap config;
  config.set_int("ae.epochs", 30);
  auto model = make_model(GetParam(), config);
  data::GeneratorConfig gen_config;
  gen_config.clusters = 5;
  gen_config.seed = 3;
  data::Generator gen(gen_config);
  // Train on one block of the stream, score a fresh one: outliers in the
  // training data must not grant amnesty to *new* outliers.
  auto train = gen.generate(1500);
  auto eval = gen.generate(1500);
  ASSERT_TRUE(model->partial_fit(train).ok());
  auto scores = model->score(eval);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(roc_auc(scores.value(), eval.labels), 0.85)
      << "model " << model->name();
}

INSTANTIATE_TEST_SUITE_P(RealModels, DetectionQualityTest,
                         ::testing::Values(ModelKind::kKMeans,
                                           ModelKind::kIsolationForest,
                                           ModelKind::kAutoEncoder));

}  // namespace
}  // namespace pe::ml
