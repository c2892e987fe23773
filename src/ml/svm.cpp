#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "kern/kern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace fs::ml {

namespace {

// Rows per fs::par chunk of the Gram fill and the batched decision: one
// kern::dot_nt_exact call each, over a tile of rows against all columns.
constexpr std::size_t kDotTileRows = 32;
static_assert(kDotTileRows % kern::kDotPanel == 0,
              "Gram tiles start on a packed-panel boundary");

double dot(const double* x, const double* y, std::size_t dim) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) acc += x[i] * y[i];
  return acc;
}

/// Per-row squared norms — the cached half of the RBF fast path.
std::vector<double> row_squared_norms(const nn::Matrix& m) {
  std::vector<double> norms(m.rows());
  par::ParallelOptions popts;
  popts.what = "ml.svm.norms";
  popts.grain = par::grain_for(m.cols());
  par::parallel_for(m.rows(), popts, [&](std::size_t i) {
    norms[i] = dot(m.row(i), m.row(i), m.cols());
  });
  return norms;
}

}  // namespace

SvmClassifier::SvmClassifier(const SvmConfig& config) : config_(config) {
  if (config.c <= 0.0)
    throw std::invalid_argument("SvmClassifier: C must be > 0");
}

double SvmClassifier::kernel_from_dot(std::size_t sv, double query_norm,
                                      double dot_product) const {
  const double dist = support_norms_[sv] + query_norm - 2.0 * dot_product;
  return std::exp(-gamma_ * (dist > 0.0 ? dist : 0.0));
}

void SvmClassifier::cache_support_norms() {
  support_norms_ = row_squared_norms(support_);
}

void SvmClassifier::fit(const nn::Matrix& features,
                        const std::vector<int>& labels) {
  const std::size_t n = features.rows();
  if (n != labels.size())
    throw std::invalid_argument("SvmClassifier::fit: size mismatch");
  if (n == 0) throw std::invalid_argument("SvmClassifier::fit: empty set");
  if (n > config_.max_train_rows)
    throw std::invalid_argument(
        "SvmClassifier::fit: training set exceeds max_train_rows; "
        "subsample before fitting");
  obs::Span fit_span("ml.svm.fit");
  fit_span.arg("n", static_cast<double>(n));
  const std::size_t dim = features.cols();

  // A single NaN poisons the whole kernel matrix, so the SMO loop would
  // "converge" on garbage; fail loudly instead and let the caller back off.
  if (!std::isfinite(util::failpoint::corrupt("ml.svm.nan", 0.0)))
    throw NumericError("SvmClassifier::fit: injected non-finite feature");
  for (std::size_t i = 0; i < features.size(); ++i)
    if (!std::isfinite(features.data()[i]))
      throw NumericError(
          "SvmClassifier::fit: non-finite feature at flat index " +
          std::to_string(i));

  // Labels to {-1, +1}.
  std::vector<double> y(n);
  bool has_pos = false, has_neg = false;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = labels[i] != 0 ? 1.0 : -1.0;
    (labels[i] != 0 ? has_pos : has_neg) = true;
  }
  if (!has_pos || !has_neg)
    throw std::invalid_argument("SvmClassifier::fit: need both classes");

  // Gamma "scale": 1 / (dim * mean feature variance). Per-column variances
  // land in disjoint slots; the cross-column sum stays sequential in column
  // order so the float association matches any thread count.
  if (config_.gamma > 0.0) {
    gamma_ = config_.gamma;
  } else {
    std::vector<double> col_var(dim);
    par::ParallelOptions vopts;
    vopts.context = config_.context;
    vopts.what = "ml.svm.gamma";
    vopts.grain = par::grain_for(2 * n);
    par::parallel_for(dim, vopts, [&](std::size_t c) {
      double mean = 0.0, sq = 0.0;
      for (std::size_t r = 0; r < n; ++r) mean += features(r, c);
      mean /= static_cast<double>(n);
      for (std::size_t r = 0; r < n; ++r) {
        const double d = features(r, c) - mean;
        sq += d * d;
      }
      col_var[c] = sq / static_cast<double>(n);
    });
    double mean_var = 0.0;
    for (std::size_t c = 0; c < dim; ++c) mean_var += col_var[c];
    mean_var /= static_cast<double>(dim);
    gamma_ = mean_var > 1e-12 ? 1.0 / (static_cast<double>(dim) * mean_var)
                              : 1.0 / static_cast<double>(dim);
  }

  // Precomputed kernel matrix (symmetric; memory guarded by max_train_rows
  // and charged, with the packed rows, against the run's memory budget when
  // governed). Cached row norms turn each RBF entry into one dot product.
  // Row tiles fan out over the pool: each writes the exact dot products of
  // its rows with every later row straight into K (kern::dot_nt_exact,
  // bit-identical to the sequential dot) and turns its upper triangle into
  // RBF values in place; a mirror pass then copies the upper triangle down
  // over the raw dots left below it.
  const runtime::MemoryCharge kernel_charge(
      config_.context, (n * n + n * dim) * sizeof(double), "ml.svm.kernel");
  const std::vector<double> norms = row_squared_norms(features);
  nn::Matrix K(n, n);
  const kern::DotPanels columns(n, dim, features.data(), dim);
  par::ParallelOptions kopts;
  kopts.context = config_.context;
  kopts.what = "ml.svm.kernel";
  kopts.grain = kDotTileRows;  // a multiple of kern::kDotPanel
  par::parallel_for_chunks(n, kopts, [&](const par::ChunkRange& tile) {
    const std::size_t i0 = tile.begin;
    kern::dot_nt_exact(tile.end - i0, features.row(i0), dim, columns,
                       &K(i0, i0), n, i0);
    for (std::size_t i = i0; i < tile.end; ++i) {
      K(i, i) = 1.0;
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dist = norms[i] + norms[j] - 2.0 * K(i, j);
        K(i, j) = std::exp(-gamma_ * (dist > 0.0 ? dist : 0.0));
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) K(j, i) = K(i, j);

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  util::Rng rng(config_.seed);

  auto decision_i = [&](std::size_t i) {
    double f = b;
    const double* krow = K.row(i);
    for (std::size_t j = 0; j < n; ++j)
      if (alpha[j] != 0.0) f += alpha[j] * y[j] * krow[j];
    return f;
  };

  // Certified error cache. cache[k] tracks Σ_j α_j y_j K(k, j) and is
  // refreshed in O(n) after each accepted pair update, so the cached error
  // of row k is (cache[k] + b) − y_k. It only ever *decides* a branch when
  // the answer is certain: `drift` bounds |cache[k] − the real sum| over
  // all k, and `scan_rounding` bounds how far decision_i's own sequential
  // sum can sit from that real sum (γ_{n+2}·Σ|terms|, with K ∈ [0, 1] and
  // |α| ≤ alpha_max). Any branch that lands inside twice those bounds runs
  // the exact scan instead, so every branch — and therefore the alphas,
  // the bias and the RNG stream — equals the scan-every-row solver's.
  constexpr double u = std::numeric_limits<double>::epsilon() / 2.0;
  const double terms = static_cast<double>(n) + 2.0;
  const double gamma_scan = terms * u / (1.0 - terms * u);
  std::vector<double> cache(n, 0.0);
  double drift = 0.0;            // ≥ |cache[k] − Σ_j α_j y_j K(k, j)|, all k
  double alpha_max = config_.c;  // ≥ max_j |α_j| (rounding may pass C)
  std::size_t exact_scans = 0;
  std::size_t cache_decided = 0;
  auto exact_error = [&](std::size_t k) {
    ++exact_scans;
    return decision_i(k) - y[k];
  };
  // Bound on |cached error − exact error| for row k, including the
  // rounding of both subtractions of y_k.
  auto cache_radius = [&](double f) {
    const double scan_rounding =
        gamma_scan * (std::abs(b) + static_cast<double>(n) * alpha_max);
    return drift + scan_rounding + 4.0 * u * (std::abs(f) + 1.0);
  };

  const double C = config_.c;
  const double tol = config_.tolerance;
  int passes = 0;
  int iterations = 0;
  std::size_t total_alpha_updates = 0;
  std::size_t total_sweeps = 0;
  while (passes < config_.max_passes &&
         iterations++ < config_.max_iterations) {
    if (config_.context != nullptr) {
      config_.context->throw_if_cancelled("ml.svm.fit");
      // Past the deadline the current alphas are kept: SMO's intermediate
      // state is a feasible (just less converged) dual solution.
      if (config_.context->deadline_expired()) break;
    }
    obs::Span pass_span("ml.svm.pass");
    const std::size_t scans_before = exact_scans;
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // KKT test: from the cache when y·e sits clearly off both ±tol
      // thresholds, from the exact scan otherwise.
      const double f_i = cache[i] + b;
      const double rad_i = cache_radius(f_i);
      double e_i = f_i - y[i];
      bool e_i_exact = false;
      const double r = y[i] * e_i;
      if (std::abs(r + tol) > 2.0 * rad_i && std::abs(r - tol) > 2.0 * rad_i) {
        ++cache_decided;
      } else {
        e_i = exact_error(i);
        e_i_exact = true;
      }
      const bool violates = (y[i] * e_i < -tol && alpha[i] < C) ||
                            (y[i] * e_i > tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = rng.index(n - 1);
      if (j >= i) ++j;  // j != i, uniform over the rest

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

      // Small-step test: clamp the interval of α_j's new value that the
      // cached errors allow; when all of it lies within half the 1e-5
      // threshold of α_j_old, the exact step would be rejected too.
      {
        const double f_j = cache[j] + b;
        const double rad = (e_i_exact ? 0.0 : rad_i) + cache_radius(f_j);
        const double step = (e_i - (f_j - y[j])) / eta;
        const double center = alpha_j_old - y[j] * step;
        const double spread = 2.0 * rad / -eta +
                              8.0 * u * (std::abs(step) + std::abs(center));
        const double at_lo = std::clamp(center - spread, lo, hi);
        const double at_hi = std::clamp(center + spread, lo, hi);
        if (std::abs(at_lo - alpha_j_old) < 0.5e-5 &&
            std::abs(at_hi - alpha_j_old) < 0.5e-5) {
          ++cache_decided;
          continue;
        }
      }
      if (!e_i_exact) e_i = exact_error(i);
      const double e_j = exact_error(j);

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

      // Cache refresh from the two contiguous rows (K is symmetric). Each
      // entry takes at most 4u·(|Δi| + |Δj|) + u·|cache[k]| of rounding,
      // and |cache[k]| ≤ n·alpha_max + drift because K ∈ [0, 1].
      const double delta_i = y[i] * (alpha_i_new - alpha_i_old);
      const double delta_j = y[j] * (alpha_j_new - alpha_j_old);
      const double* k_i = K.row(i);
      const double* k_j = K.row(j);
      for (std::size_t k = 0; k < n; ++k)
        cache[k] += delta_i * k_i[k] + delta_j * k_j[k];
      alpha_max = std::max(
          {alpha_max, std::abs(alpha_i_new), std::abs(alpha_j_new)});
      drift += 5.0 * u *
               (static_cast<double>(n) * alpha_max + drift +
                std::abs(delta_i) + std::abs(delta_j));

      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
    pass_span.arg("changed", static_cast<double>(changed));
    pass_span.arg("exact_scans",
                  static_cast<double>(exact_scans - scans_before));
    total_alpha_updates += static_cast<std::size_t>(changed);
    ++total_sweeps;
  }
  // Batched at fit exit: the sweep loop stays free of registry lookups.
  obs::metrics()
      .counter("ml.svm.passes_total", {}, "SMO sweeps over the training set")
      .add(total_sweeps);
  obs::metrics()
      .counter("ml.svm.alpha_updates_total", {},
               "SMO alpha-pair updates applied")
      .add(total_alpha_updates);
  obs::metrics()
      .counter("ml.svm.exact_scans_total", {},
               "SMO exact decision scans over a kernel row")
      .add(exact_scans);
  obs::metrics()
      .counter("ml.svm.cache_decided_total", {},
               "SMO KKT and step tests settled by the certified error cache")
      .add(cache_decided);

  // Keep only support vectors.
  std::vector<std::size_t> sv;
  for (std::size_t i = 0; i < n; ++i)
    if (alpha[i] > 1e-8) sv.push_back(i);
  support_ = features.gather_rows(sv);
  alpha_y_.resize(sv.size());
  for (std::size_t s = 0; s < sv.size(); ++s)
    alpha_y_[s] = alpha[sv[s]] * y[sv[s]];
  bias_ = b;
  cache_support_norms();
  trained_ = true;
}

double SvmClassifier::decision(const double* query) const {
  if (!trained_) throw std::logic_error("SvmClassifier: predict before fit");
  double f = bias_;
  const std::size_t dim = support_.cols();
  const double query_norm = dot(query, query, dim);
  for (std::size_t s = 0; s < support_.rows(); ++s)
    f += alpha_y_[s] *
         kernel_from_dot(s, query_norm, dot(support_.row(s), query, dim));
  return f;
}

std::vector<double> SvmClassifier::decision(const nn::Matrix& queries) const {
  if (queries.cols() != support_.cols())
    throw std::invalid_argument("SvmClassifier: query width mismatch");
  if (!trained_ && queries.rows() != 0)
    throw std::logic_error("SvmClassifier: predict before fit");
  obs::Span span("ml.svm.decision");
  span.arg("rows", static_cast<double>(queries.rows()));
  span.arg("support", static_cast<double>(support_.rows()));
  const std::size_t n_sv = support_.rows();
  const std::size_t dim = support_.cols();
  std::vector<double> out(queries.rows());
  // Full-universe evaluation is the phase-2 hot path. Row tiles fan out
  // over the pool; each computes its exact dot products with every support
  // vector in one kernel call (bit-identical to the per-row sequential
  // dot), then finishes row by row exactly like decision(const double*).
  const kern::DotPanels support(n_sv, dim, support_.data(), dim);
  par::ParallelOptions popts;
  popts.context = config_.context;
  popts.what = "ml.svm.decision";
  popts.grain = kDotTileRows;
  popts.scratch_bytes_per_worker = kDotTileRows * n_sv * sizeof(double);
  par::parallel_for_chunks(queries.rows(), popts,
                           [&](const par::ChunkRange& tile) {
    std::vector<double> dots((tile.end - tile.begin) * n_sv);
    kern::dot_nt_exact(tile.end - tile.begin, queries.row(tile.begin), dim,
                       support, dots.data(), n_sv);
    for (std::size_t r = tile.begin; r < tile.end; ++r) {
      const double* query = queries.row(r);
      const double* row_dots = dots.data() + (r - tile.begin) * n_sv;
      const double query_norm = dot(query, query, dim);
      double f = bias_;
      for (std::size_t s = 0; s < n_sv; ++s)
        f += alpha_y_[s] * kernel_from_dot(s, query_norm, row_dots[s]);
      out[r] = f;
    }
  });
  obs::metrics()
      .counter("ml.svm.decisions_total", {}, "SVM decision-function queries")
      .add(queries.rows());
  return out;
}

std::vector<int> SvmClassifier::predict(const nn::Matrix& queries) const {
  const std::vector<double> d = decision(queries);
  std::vector<int> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) out[i] = d[i] > 0.0;
  return out;
}

std::vector<double> SvmClassifier::predict_proba(
    const nn::Matrix& queries) const {
  const std::vector<double> d = decision(queries);
  std::vector<double> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double z =
        calibrated_ ? -(platt_a_ * d[i] + platt_b_) : d[i];
    out[i] = 1.0 / (1.0 + std::exp(-z));
  }
  return out;
}

void SvmClassifier::calibrate(const nn::Matrix& features,
                              const std::vector<int>& labels) {
  const std::vector<double> f = decision(features);
  if (f.size() != labels.size())
    throw std::invalid_argument("SvmClassifier::calibrate: size mismatch");
  const std::size_t n = f.size();

  // Target probabilities with Platt's smoothing priors.
  std::size_t n_pos = 0;
  for (int y : labels) n_pos += (y != 0);
  const std::size_t n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0)
    throw std::invalid_argument(
        "SvmClassifier::calibrate: need both classes");
  const double hi = (static_cast<double>(n_pos) + 1.0) /
                    (static_cast<double>(n_pos) + 2.0);
  const double lo = 1.0 / (static_cast<double>(n_neg) + 2.0);
  std::vector<double> target(n);
  for (std::size_t i = 0; i < n; ++i) target[i] = labels[i] ? hi : lo;

  // Newton iterations on the two-parameter cross-entropy (Lin et al. '07).
  double a = 0.0;
  double b = std::log((static_cast<double>(n_neg) + 1.0) /
                      (static_cast<double>(n_pos) + 1.0));
  const double sigma = 1e-12;  // Hessian ridge
  for (int iter = 0; iter < 100; ++iter) {
    double g_a = 0.0, g_b = 0.0, h_aa = sigma, h_ab = 0.0, h_bb = sigma;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = a * f[i] + b;
      double p, q;  // p = P(y=1), q = 1 - p, computed stably
      if (z >= 0) {
        const double e = std::exp(-z);
        p = e / (1.0 + e);
        q = 1.0 / (1.0 + e);
      } else {
        const double e = std::exp(z);
        p = 1.0 / (1.0 + e);
        q = e / (1.0 + e);
      }
      const double d1 = target[i] - p;
      g_a += f[i] * d1;
      g_b += d1;
      const double d2 = p * q;
      h_aa += f[i] * f[i] * d2;
      h_ab += f[i] * d2;
      h_bb += d2;
    }
    if (std::abs(g_a) < 1e-8 && std::abs(g_b) < 1e-8) break;
    // g = gradient of the NEGATIVE log-likelihood wrt (a, b); h is its
    // (ridged) Hessian. Newton step: (a, b) -= H^{-1} g.
    const double det = h_aa * h_bb - h_ab * h_ab;
    const double da = (h_bb * g_a - h_ab * g_b) / det;
    const double db = (h_aa * g_b - h_ab * g_a) / det;
    a -= da;
    b -= db;
    if (std::abs(da) < 1e-10 && std::abs(db) < 1e-10) break;
  }
  platt_a_ = a;
  platt_b_ = b;
  calibrated_ = true;
}

void SvmClassifier::save(util::BinaryWriter& writer) const {
  writer.tag("SVM0");
  writer.f64(gamma_);
  writer.f64(bias_);
  writer.u64(support_.rows());
  writer.u64(support_.cols());
  writer.f64_vector(std::vector<double>(
      support_.data(), support_.data() + support_.size()));
  writer.f64_vector(alpha_y_);
  writer.u64(trained_ ? 1 : 0);
  writer.u64(calibrated_ ? 1 : 0);
  writer.f64(platt_a_);
  writer.f64(platt_b_);
}

SvmClassifier SvmClassifier::load(util::BinaryReader& reader) {
  reader.expect_tag("SVM0");
  SvmClassifier svm;
  svm.gamma_ = reader.f64();
  svm.bias_ = reader.f64();
  const std::size_t rows = reader.u64();
  const std::size_t cols = reader.u64();
  const std::vector<double> flat = reader.f64_vector();
  svm.alpha_y_ = reader.f64_vector();
  // rows * cols can wrap; a wrapped product would pass the size check and
  // leave a matrix with a huge shape and no storage behind it.
  if ((cols != 0 && rows > SIZE_MAX / cols) || flat.size() != rows * cols ||
      svm.alpha_y_.size() != rows)
    throw std::runtime_error("SvmClassifier::load: corrupted record");
  svm.support_ = nn::Matrix(rows, cols);
  std::copy(flat.begin(), flat.end(), svm.support_.data());
  svm.trained_ = reader.u64() != 0;
  svm.calibrated_ = reader.u64() != 0;
  svm.platt_a_ = reader.f64();
  svm.platt_b_ = reader.f64();
  svm.cache_support_norms();  // derived, never serialized
  return svm;
}

}  // namespace fs::ml
