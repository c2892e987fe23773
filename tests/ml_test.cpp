#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "kern/kern.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "ml/split.h"
#include "ml/svm.h"
#include "obs/metrics.h"
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

// ---------- SVM exact-trajectory oracle ----------
//
// The scan-every-row SMO that SvmClassifier::fit replaced: every KKT test
// and every partner error comes from a full O(n) decision scan. The
// certified error cache may skip a scan only when the skipped branch is
// certain, so the library fit must follow this trajectory bit for bit.

double oracle_dot(const double* x, const double* y, std::size_t dim) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) acc += x[i] * y[i];
  return acc;
}

struct OracleSvm {
  double gamma = 0.0;
  double bias = 0.0;
  nn::Matrix support;
  std::vector<double> norms;  // ‖support row‖²
  std::vector<double> alpha_y;
  std::uint64_t sweeps = 0;
  std::uint64_t updates = 0;

  // Mirrors SvmClassifier::decision(const double*).
  double decision(const double* q) const {
    const std::size_t dim = support.cols();
    const double qn = oracle_dot(q, q, dim);
    double f = bias;
    for (std::size_t s = 0; s < support.rows(); ++s) {
      const double dist =
          norms[s] + qn - 2.0 * oracle_dot(support.row(s), q, dim);
      f += alpha_y[s] * std::exp(-gamma * (dist > 0.0 ? dist : 0.0));
    }
    return f;
  }
};

OracleSvm oracle_fit(const nn::Matrix& x, const std::vector<int>& labels,
                     const SvmConfig& cfg) {
  const std::size_t n = x.rows();
  const std::size_t dim = x.cols();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = labels[i] != 0 ? 1.0 : -1.0;

  OracleSvm out;
  if (cfg.gamma > 0.0) {
    out.gamma = cfg.gamma;
  } else {
    double mean_var = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      double mean = 0.0, sq = 0.0;
      for (std::size_t r = 0; r < n; ++r) mean += x(r, c);
      mean /= static_cast<double>(n);
      for (std::size_t r = 0; r < n; ++r) {
        const double d = x(r, c) - mean;
        sq += d * d;
      }
      mean_var += sq / static_cast<double>(n);
    }
    mean_var /= static_cast<double>(dim);
    out.gamma = mean_var > 1e-12 ? 1.0 / (static_cast<double>(dim) * mean_var)
                                 : 1.0 / static_cast<double>(dim);
  }

  std::vector<double> norms(n);
  for (std::size_t i = 0; i < n; ++i)
    norms[i] = oracle_dot(x.row(i), x.row(i), dim);
  nn::Matrix K(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    K(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dist =
          norms[i] + norms[j] - 2.0 * oracle_dot(x.row(i), x.row(j), dim);
      K(i, j) = K(j, i) = std::exp(-out.gamma * (dist > 0.0 ? dist : 0.0));
    }
  }

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  util::Rng rng(cfg.seed);
  auto decision_i = [&](std::size_t i) {
    double f = b;
    for (std::size_t j = 0; j < n; ++j)
      if (alpha[j] != 0.0) f += alpha[j] * y[j] * K(i, j);
    return f;
  };
  const double C = cfg.c;
  const double tol = cfg.tolerance;
  int passes = 0;
  int iterations = 0;
  while (passes < cfg.max_passes && iterations++ < cfg.max_iterations) {
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e_i = decision_i(i) - y[i];
      const bool violates = (y[i] * e_i < -tol && alpha[i] < C) ||
                            (y[i] * e_i > tol && alpha[i] > 0.0);
      if (!violates) continue;
      std::size_t j = rng.index(n - 1);
      if (j >= i) ++j;
      const double e_j = decision_i(j) - y[j];
      const double alpha_i_old = alpha[i];
      const double alpha_j_old = alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, alpha[j] - alpha[i]);
        hi = std::min(C, C + alpha[j] - alpha[i]);
      } else {
        lo = std::max(0.0, alpha[i] + alpha[j] - C);
        hi = std::min(C, alpha[i] + alpha[j]);
      }
      if (lo >= hi) continue;
      const double eta = 2.0 * K(i, j) - K(i, i) - K(j, j);
      if (eta >= 0.0) continue;
      double alpha_j_new = alpha_j_old - y[j] * (e_i - e_j) / eta;
      alpha_j_new = std::clamp(alpha_j_new, lo, hi);
      if (std::abs(alpha_j_new - alpha_j_old) < 1e-5) continue;
      const double alpha_i_new =
          alpha_i_old + y[i] * y[j] * (alpha_j_old - alpha_j_new);
      alpha[i] = alpha_i_new;
      alpha[j] = alpha_j_new;
      const double b1 = b - e_i - y[i] * (alpha_i_new - alpha_i_old) * K(i, i) -
                        y[j] * (alpha_j_new - alpha_j_old) * K(i, j);
      const double b2 = b - e_j - y[i] * (alpha_i_new - alpha_i_old) * K(i, j) -
                        y[j] * (alpha_j_new - alpha_j_old) * K(j, j);
      if (alpha_i_new > 0.0 && alpha_i_new < C) b = b1;
      else if (alpha_j_new > 0.0 && alpha_j_new < C) b = b2;
      else b = (b1 + b2) / 2.0;
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
    out.updates += static_cast<std::uint64_t>(changed);
    ++out.sweeps;
  }

  std::vector<std::size_t> sv;
  for (std::size_t i = 0; i < n; ++i)
    if (alpha[i] > 1e-8) sv.push_back(i);
  out.support = x.gather_rows(sv);
  for (std::size_t s : sv) out.alpha_y.push_back(alpha[s] * y[s]);
  out.norms.resize(sv.size());
  for (std::size_t s = 0; s < sv.size(); ++s)
    out.norms[s] = oracle_dot(out.support.row(s), out.support.row(s), dim);
  out.bias = b;
  return out;
}

std::uint64_t counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

// Fits both solvers and requires the same trajectory: bitwise-equal
// decision values on the training rows, the same support set size, and
// the same sweep and alpha-update counts.
void expect_oracle_trajectory(const nn::Matrix& x, const std::vector<int>& y,
                              const SvmConfig& cfg) {
  const OracleSvm oracle = oracle_fit(x, y, cfg);
  const std::uint64_t sweeps0 = counter_value("ml.svm.passes_total");
  const std::uint64_t updates0 = counter_value("ml.svm.alpha_updates_total");
  SvmClassifier svm(cfg);
  svm.fit(x, y);
  EXPECT_EQ(counter_value("ml.svm.passes_total") - sweeps0, oracle.sweeps);
  EXPECT_EQ(counter_value("ml.svm.alpha_updates_total") - updates0,
            oracle.updates);
  EXPECT_EQ(svm.support_vector_count(), oracle.support.rows());
  const std::vector<double> got = svm.decision(x);
  std::vector<double> want(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    want[r] = oracle.decision(x.row(r));
  EXPECT_EQ(
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
      << "decision values differ from the scan-every-row solver (n="
      << x.rows() << ", C=" << cfg.c << ", tol=" << cfg.tolerance
      << ", gamma=" << cfg.gamma << ")";
}

TEST(SvmOracle, TwoRows) {
  nn::Matrix x(2, 2);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  expect_oracle_trajectory(x, {0, 1}, SvmConfig{});
}

TEST(SvmOracle, DuplicateRowsGiveZeroEta) {
  // Identical rows with either label: every such pair has eta = 0.
  util::Rng rng(211);
  nn::Matrix base;
  std::vector<int> base_y;
  blobs_2d(base, base_y, 20, rng, 1.0);
  nn::Matrix x(60, 2);
  std::vector<int> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = base(i % 20, 0);
    x(i, 1) = base(i % 20, 1);
    y[i] = i < 40 ? base_y[i % 20] : 1 - base_y[i % 20];
  }
  expect_oracle_trajectory(x, y, SvmConfig{});
}

TEST(SvmOracle, BoxAndToleranceGrid) {
  util::Rng rng(223);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 90, rng, 1.0);  // overlapping classes: bounded alphas
  for (double c : {1e-3, 1.0, 1e3}) {
    for (double tol : {0.0, 1e-3, 0.5}) {
      SvmConfig cfg;
      cfg.c = c;
      cfg.tolerance = tol;
      expect_oracle_trajectory(x, y, cfg);
    }
  }
}

TEST(SvmOracle, ExtremeGamma) {
  util::Rng rng(227);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 70, rng, 1.5);
  for (double gamma : {1e-9, 1e6}) {  // K ≈ all-ones, K ≈ identity
    SvmConfig cfg;
    cfg.gamma = gamma;
    expect_oracle_trajectory(x, y, cfg);
  }
}

TEST(SvmOracle, SingleMinorityRow) {
  util::Rng rng(229);
  nn::Matrix x(50, 3);
  std::vector<int> y(50, 0);
  y[17] = 1;
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal(0.0, 1.0);
  expect_oracle_trajectory(x, y, SvmConfig{});
}

TEST(SvmOracle, IterationCapMidTrajectory) {
  util::Rng rng(233);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 120, rng, 0.8);
  SvmConfig cfg;
  cfg.max_iterations = 3;
  expect_oracle_trajectory(x, y, cfg);
}

// Tall and wide enough that the gamma, row-norm and kernel fills each split
// into several fs::par chunks; the serial oracle pins the pooled result.
TEST(SvmOracle, ParallelFillsMatchSerialOracle) {
  util::Rng rng(241);
  const std::size_t n = 600, dim = 64;
  nn::Matrix x(n, dim);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < dim; ++c)
      x(i, c) = rng.normal(y[i] && c < 8 ? 0.6 : 0.0, 1.0);
  }
  SvmConfig cfg;
  cfg.max_iterations = 20;
  expect_oracle_trajectory(x, y, cfg);
}

// Pins a kernel path for one test body, restoring the previous one after.
class KernelPathGuard {
 public:
  explicit KernelPathGuard(kern::IsaPath path)
      : previous_(kern::active_path()) {
    kern::force_path(path);
  }
  ~KernelPathGuard() { kern::force_path(previous_); }
  KernelPathGuard(const KernelPathGuard&) = delete;
  KernelPathGuard& operator=(const KernelPathGuard&) = delete;

 private:
  kern::IsaPath previous_;
};

// The Gram fill's row tiles run kern::dot_nt_exact on every kernel path;
// rows and width are ragged against its 32-row tiles and 8-row panels.
TEST(SvmOracle, GramOnEveryKernelPathMatchesSerialOracle) {
  util::Rng rng(251);
  const std::size_t n = 77, dim = 13;
  nn::Matrix x(n, dim);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 3 == 0);
    for (std::size_t c = 0; c < dim; ++c)
      x(i, c) = rng.normal(y[i] && c < 4 ? 0.8 : 0.0, 1.0);
  }
  for (const kern::IsaPath path : kern::supported_paths()) {
    SCOPED_TRACE(kern::path_name(path));
    KernelPathGuard guard(path);
    expect_oracle_trajectory(x, y, SvmConfig{});
  }
}

TEST(Svm, BatchedDecisionEqualsPerRowOnEveryPath) {
  util::Rng rng(257);
  const std::size_t dim = 21;
  nn::Matrix x(150, dim);
  std::vector<int> y(150);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < dim; ++c)
      x(i, c) = rng.normal(y[i] && c < 5 ? 0.7 : 0.0, 1.0);
  }
  nn::Matrix queries(101, dim);  // several 32-row tiles plus a short one
  for (std::size_t i = 0; i < queries.size(); ++i)
    queries.data()[i] = rng.normal(0.0, 1.5);
  SvmClassifier svm;
  svm.fit(x, y);
  ASSERT_GT(svm.support_vector_count(), 8u);
  for (const kern::IsaPath path : kern::supported_paths()) {
    SCOPED_TRACE(kern::path_name(path));
    KernelPathGuard guard(path);
    const std::vector<double> batched = svm.decision(queries);
    ASSERT_EQ(batched.size(), queries.rows());
    for (std::size_t r = 0; r < queries.rows(); ++r) {
      const double single = svm.decision(queries.row(r));
      EXPECT_EQ(std::memcmp(&batched[r], &single, sizeof(double)), 0)
          << "row " << r << ": " << batched[r] << " vs " << single;
    }
  }
}

TEST(SvmOracle, CacheSkipsMostExactScans) {
  util::Rng rng(239);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 400, rng, 1.0);
  const std::uint64_t sweeps0 = counter_value("ml.svm.passes_total");
  const std::uint64_t scans0 = counter_value("ml.svm.exact_scans_total");
  const std::uint64_t decided0 = counter_value("ml.svm.cache_decided_total");
  SvmClassifier svm;
  svm.fit(x, y);
  const std::uint64_t sweeps = counter_value("ml.svm.passes_total") - sweeps0;
  const std::uint64_t scans =
      counter_value("ml.svm.exact_scans_total") - scans0;
  ASSERT_GT(sweeps, 0u);
  EXPECT_LT(scans, sweeps * x.rows() / 2);
  EXPECT_GT(counter_value("ml.svm.cache_decided_total") - decided0, 0u);
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
