#include <gtest/gtest.h>

#include <cmath>

#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "ml/split.h"
#include "ml/svm.h"
#include "util/rng.h"

namespace fs::ml {
namespace {

// ---------- metrics ----------

TEST(Metrics, ConfusionCounts) {
  const Confusion c = confusion({1, 1, 0, 0, 1}, {1, 0, 0, 1, 1});
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.total(), 5u);
  EXPECT_THROW(confusion({1}, {1, 0}), std::invalid_argument);
}

TEST(Metrics, PrfValues) {
  const Prf p = prf({1, 1, 0, 0, 1}, {1, 0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(p.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.recall, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.f1, 2.0 / 3.0);
}

TEST(Metrics, PrfDegenerateCases) {
  // No predicted positives.
  const Prf none = prf({1, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  EXPECT_DOUBLE_EQ(none.f1, 0.0);
  // No actual positives.
  const Prf no_pos = prf({0, 0}, {1, 0});
  EXPECT_DOUBLE_EQ(no_pos.recall, 0.0);
  // Perfect.
  const Prf perfect = prf({1, 0, 1}, {1, 0, 1});
  EXPECT_DOUBLE_EQ(perfect.f1, 1.0);
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(accuracy(confusion({1, 0, 1, 0}, {1, 0, 0, 0})), 0.75);
  EXPECT_DOUBLE_EQ(accuracy(Confusion{}), 0.0);
}

TEST(Metrics, Threshold) {
  EXPECT_EQ(threshold({0.2, 0.5, 0.9}, 0.5), (std::vector<int>{0, 1, 1}));
}

TEST(Metrics, TuneF1ThresholdFindsSeparator) {
  // Scores: positives at 0.8/0.9, negatives at 0.1/0.2 -> any cut in
  // (0.2, 0.8] gives F1 = 1; the tuner must find one.
  const TunedThreshold tuned =
      tune_f1_threshold({0.1, 0.8, 0.2, 0.9}, {0, 1, 0, 1});
  EXPECT_GT(tuned.threshold, 0.2);
  EXPECT_LE(tuned.threshold, 0.8);
  EXPECT_DOUBLE_EQ(tuned.train_f1, 1.0);
}

TEST(Metrics, TuneF1ThresholdOverlappingScores) {
  // Interleaved: best cut trades precision for recall.
  const std::vector<double> scores{0.1, 0.3, 0.35, 0.4, 0.7, 0.9};
  const std::vector<int> labels{0, 1, 0, 1, 1, 1};
  const TunedThreshold tuned = tune_f1_threshold(scores, labels);
  // Verify the reported F1 is actually achieved.
  std::vector<int> pred(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    pred[i] = scores[i] >= tuned.threshold;
  EXPECT_NEAR(prf(labels, pred).f1, tuned.train_f1, 1e-12);
  // And that it is optimal among all candidate cuts.
  for (double cut : scores) {
    std::vector<int> p(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i)
      p[i] = scores[i] >= cut;
    EXPECT_LE(prf(labels, p).f1, tuned.train_f1 + 1e-12);
  }
}

TEST(Metrics, TuneF1ThresholdValidation) {
  EXPECT_THROW(tune_f1_threshold({}, {}), std::invalid_argument);
  EXPECT_THROW(tune_f1_threshold({0.5}, {1, 0}), std::invalid_argument);
}

// ---------- scaler ----------

TEST(Scaler, StandardizesColumns) {
  StandardScaler scaler;
  const nn::Matrix x = nn::Matrix::from_rows({{1, 10}, {3, 30}, {5, 50}});
  const nn::Matrix z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t r = 0; r < 3; ++r) mean += z(r, c);
    mean /= 3;
    for (std::size_t r = 0; r < 3; ++r) var += (z(r, c) - mean) * (z(r, c) - mean);
    var /= 3;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(Scaler, ConstantColumnsBecomeZero) {
  StandardScaler scaler;
  const nn::Matrix x = nn::Matrix::from_rows({{7, 1}, {7, 2}});
  const nn::Matrix z = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(z(1, 0), 0.0);
}

TEST(Scaler, TransformBeforeFitThrows) {
  StandardScaler scaler;
  const nn::Matrix x(1, 2);
  EXPECT_THROW(scaler.transform(x), std::logic_error);
  StandardScaler fitted;
  fitted.fit(nn::Matrix(2, 3));
  EXPECT_THROW(fitted.transform(nn::Matrix(2, 4)), std::invalid_argument);
}

// ---------- KNN ----------

void blobs_2d(nn::Matrix& x, std::vector<int>& y, std::size_t n,
              util::Rng& rng, double separation = 3.0) {
  x = nn::Matrix(n, 2);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    const double cx = y[i] ? separation : 0.0;
    x(i, 0) = cx + rng.normal(0.0, 0.5);
    x(i, 1) = rng.normal(0.0, 0.5);
  }
}

TEST(Knn, ClassifiesSeparatedBlobs) {
  util::Rng rng(61);
  nn::Matrix train_x, test_x;
  std::vector<int> train_y, test_y;
  blobs_2d(train_x, train_y, 100, rng);
  blobs_2d(test_x, test_y, 50, rng);
  KnnClassifier knn(5);
  knn.fit(train_x, train_y);
  const auto pred = knn.predict(test_x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    correct += pred[i] == test_y[i];
  EXPECT_GT(correct, 47u);
}

TEST(Knn, ExactNeighborProbability) {
  // Query sits next to 2 positives and 1 negative with k = 3.
  const nn::Matrix train = nn::Matrix::from_rows(
      {{0.0}, {0.1}, {0.2}, {10.0}, {11.0}});
  KnnClassifier knn(3);
  knn.fit(train, {1, 1, 0, 0, 0});
  const nn::Matrix query = nn::Matrix::from_rows({{0.05}});
  EXPECT_NEAR(knn.predict_proba(query)[0], 2.0 / 3.0, 1e-12);
}

TEST(Knn, KLargerThanTrainSetUsesAll) {
  const nn::Matrix train = nn::Matrix::from_rows({{0.0}, {1.0}});
  KnnClassifier knn(10);
  knn.fit(train, {1, 0});
  const nn::Matrix query = nn::Matrix::from_rows({{0.5}});
  EXPECT_NEAR(knn.predict_proba(query)[0], 0.5, 1e-12);
}

TEST(Knn, Validation) {
  EXPECT_THROW(KnnClassifier(0), std::invalid_argument);
  KnnClassifier knn(3);
  EXPECT_THROW(knn.fit(nn::Matrix(2, 2), {1}), std::invalid_argument);
  EXPECT_THROW(knn.predict(nn::Matrix(1, 2)), std::logic_error);
}

// ---------- SVM ----------

TEST(Svm, LinearlySeparableBlobs) {
  util::Rng rng(67);
  nn::Matrix train_x, test_x;
  std::vector<int> train_y, test_y;
  blobs_2d(train_x, train_y, 120, rng);
  blobs_2d(test_x, test_y, 60, rng);
  SvmClassifier svm;
  svm.fit(train_x, train_y);
  const auto pred = svm.predict(test_x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    correct += pred[i] == test_y[i];
  EXPECT_GT(correct, 56u);
  EXPECT_GT(svm.support_vector_count(), 0u);
}

TEST(Svm, RbfSolvesXor) {
  // XOR is not linearly separable; the RBF kernel must handle it.
  util::Rng rng(71);
  nn::Matrix x(200, 2);
  std::vector<int> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    const int qx = static_cast<int>(rng.chance(0.5));
    const int qy = static_cast<int>(rng.chance(0.5));
    x(i, 0) = qx * 2.0 - 1.0 + rng.normal(0.0, 0.2);
    x(i, 1) = qy * 2.0 - 1.0 + rng.normal(0.0, 0.2);
    y[i] = qx ^ qy;
  }
  SvmConfig cfg;
  cfg.c = 5.0;
  cfg.max_iterations = 400;
  SvmClassifier svm(cfg);
  svm.fit(x, y);
  const auto pred = svm.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) correct += pred[i] == y[i];
  EXPECT_GT(correct, 185u);
}

TEST(Svm, DecisionSignMatchesPrediction) {
  util::Rng rng(73);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 60, rng);
  SvmClassifier svm;
  svm.fit(x, y);
  const auto decisions = svm.decision(x);
  const auto pred = svm.predict(x);
  for (std::size_t i = 0; i < pred.size(); ++i)
    EXPECT_EQ(pred[i], decisions[i] > 0.0 ? 1 : 0);
}

TEST(Svm, ProbaIsMonotoneInDecision) {
  util::Rng rng(79);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 60, rng);
  SvmClassifier svm;
  svm.fit(x, y);
  const auto decisions = svm.decision(x);
  const auto probas = svm.predict_proba(x);
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    if (decisions[i] > decisions[i - 1])
      EXPECT_GE(probas[i], probas[i - 1] - 1e-12);
  }
}

TEST(Svm, Validation) {
  SvmClassifier svm;
  EXPECT_THROW(svm.fit(nn::Matrix(2, 2), {1}), std::invalid_argument);
  EXPECT_THROW(svm.fit(nn::Matrix(2, 2), {1, 1}), std::invalid_argument);
  EXPECT_THROW(svm.decision(nn::Matrix(1, 2)), std::logic_error);
  SvmConfig tiny_cap;
  tiny_cap.max_train_rows = 4;
  SvmClassifier capped(tiny_cap);
  EXPECT_THROW(capped.fit(nn::Matrix(5, 2), {0, 1, 0, 1, 0}),
               std::invalid_argument);
  SvmConfig bad_c;
  bad_c.c = 0.0;
  EXPECT_THROW(SvmClassifier{bad_c}, std::invalid_argument);
}

TEST(Svm, GammaAutoIsPositive) {
  util::Rng rng(83);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 40, rng);
  SvmClassifier svm;
  svm.fit(x, y);
  EXPECT_GT(svm.gamma(), 0.0);
}

// ---------- split ----------

TEST(Split, StratifiedPreservesRatio) {
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) labels.push_back(i < 30 ? 1 : 0);
  util::Rng rng(89);
  const SplitIndices idx = stratified_split(labels, 0.7, rng);
  EXPECT_EQ(idx.train.size() + idx.test.size(), 100u);
  std::size_t train_pos = 0;
  for (std::size_t i : idx.train) train_pos += labels[i];
  std::size_t test_pos = 0;
  for (std::size_t i : idx.test) test_pos += labels[i];
  EXPECT_EQ(train_pos, 21u);  // exactly 70 % of 30
  EXPECT_EQ(test_pos, 9u);
}

TEST(Split, IndicesAreDisjointAndComplete) {
  std::vector<int> labels(50, 0);
  for (int i = 0; i < 20; ++i) labels[static_cast<std::size_t>(i)] = 1;
  util::Rng rng(97);
  const SplitIndices idx = stratified_split(labels, 0.6, rng);
  std::vector<char> seen(50, 0);
  for (std::size_t i : idx.train) {
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
  }
  for (std::size_t i : idx.test) {
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
  }
  for (char s : seen) EXPECT_TRUE(s);
}

TEST(Split, Validation) {
  util::Rng rng(101);
  EXPECT_THROW(stratified_split({1, 0}, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(stratified_split({1, 0}, 1.0, rng), std::invalid_argument);
}

TEST(Split, TakeSelects) {
  const std::vector<int> v{10, 20, 30};
  EXPECT_EQ(take(v, {2, 0}), (std::vector<int>{30, 10}));
}

}  // namespace
}  // namespace fs::ml
