// C-SVC with an RBF kernel trained by SMO — the paper's phase-2 classifier
// C' ("We use ... SVM as the classifier C'. We use RBF as the kernel
// function", Sec IV-B).
//
// The solver is Platt's SMO in its simplified two-heuristic form with a
// precomputed kernel matrix; training sets in this repo stay in the low
// thousands, where this is fast and exact enough.
//
// Each sweep needs every row's error e_k = f(x_k) − y_k. The defining
// value is the exact scan: b plus the sequential O(n) sum of α_j y_j K(k, j)
// over one kernel row. fit() keeps a certified error cache instead of
// rescanning every row: cache[k] approximates that sum and is refreshed in
// O(n) from the two kernel rows of each accepted pair update. Two bounds
// run alongside it:
//   - cache drift: each refresh adds at most 5u·(n·max|α| + drift +
//     |Δα_i| + |Δα_j|) to |cache[k] − real sum|, with u the unit roundoff;
//   - scan rounding: the exact scan sits within γ_{n+2}·(|b| + n·max|α|)
//     of the real sum, because K ∈ [0, 1].
// A KKT test is settled from the cache only when y·e lies more than twice
// the summed bounds away from both ±tol. A violator's step is skipped from
// the cache only when the whole clamped interval of α_j's new value lies
// within half the 1e-5 step threshold of α_j's old value. Every other
// branch, and every state change, runs the exact scan, so each branch
// equals the scan-every-row solver's: alphas, bias and sweep counts are
// bit-identical to it.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.h"
#include "util/binary_io.h"
#include "util/runtime.h"

namespace fs::ml {

struct SvmConfig {
  double c = 1.0;            // box constraint
  double gamma = 0.0;        // RBF width; 0 = auto "scale": 1/(dim*var)
  double tolerance = 1e-3;   // KKT tolerance
  int max_passes = 5;        // consecutive passes without alpha updates
  int max_iterations = 200;  // hard cap on full sweeps
  std::uint64_t seed = 11;
  /// Hard cap on training rows (kernel matrix memory guard). fit() throws
  /// if exceeded — callers subsample explicitly, never silently.
  std::size_t max_train_rows = 4000;
  /// Optional governance: the kernel matrix is charged against the memory
  /// budget, cancellation is checked per SMO sweep, and an expired deadline
  /// stops sweeping early (the current alphas are a valid, if less
  /// converged, model). Not serialized.
  fs::runtime::ExecutionContext* context = nullptr;
};

class SvmClassifier {
 public:
  explicit SvmClassifier(const SvmConfig& config = {});

  /// Trains on (already scaled) features with labels in {0, 1}.
  void fit(const nn::Matrix& features, const std::vector<int>& labels);

  /// Signed decision value: positive means class 1.
  double decision(const double* query) const;
  std::vector<double> decision(const nn::Matrix& queries) const;

  std::vector<int> predict(const nn::Matrix& queries) const;

  /// Probability-like score via a logistic squashing of the decision value.
  /// After calibrate(), proper Platt scaling P(y=1|f) = 1/(1+exp(A f + B))
  /// is applied instead.
  std::vector<double> predict_proba(const nn::Matrix& queries) const;

  /// Fits Platt scaling on a labeled calibration set (Platt 1999, with the
  /// numerically robust Newton iteration of Lin, Lin & Weng 2007).
  void calibrate(const nn::Matrix& features, const std::vector<int>& labels);
  bool calibrated() const { return calibrated_; }
  double platt_a() const { return platt_a_; }
  double platt_b() const { return platt_b_; }

  std::size_t support_vector_count() const { return support_.rows(); }

  void save(util::BinaryWriter& writer) const;
  static SvmClassifier load(util::BinaryReader& reader);

  double gamma() const { return gamma_; }
  bool trained() const { return trained_; }

 private:
  /// RBF between a support vector (by index) and a query with precomputed
  /// squared norms: ‖x−y‖² = ‖x‖² + ‖y‖² − 2·x·y, clamped at 0 (the
  /// expansion can go epsilon-negative where the direct difference
  /// cannot).
  double kernel_to_support(std::size_t sv, const double* query,
                           double query_norm) const;
  /// Rebuilds support_norms_ from support_ (after fit and load).
  void cache_support_norms();

  SvmConfig config_;
  double gamma_ = 1.0;
  double bias_ = 0.0;
  nn::Matrix support_;              // support vectors (rows)
  std::vector<double> support_norms_;  // ‖support row‖² (derived, not saved)
  std::vector<double> alpha_y_;     // alpha_i * y_i per support vector
  bool trained_ = false;
  bool calibrated_ = false;
  double platt_a_ = -1.0;
  double platt_b_ = 0.0;
};

}  // namespace fs::ml
