#include "ml/knn.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "par/par.h"

namespace fs::ml {

KnnClassifier::KnnClassifier(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("KnnClassifier: k must be > 0");
}

void KnnClassifier::fit(nn::Matrix features, std::vector<int> labels) {
  if (features.rows() != labels.size())
    throw std::invalid_argument("KnnClassifier::fit: size mismatch");
  if (features.rows() == 0)
    throw std::invalid_argument("KnnClassifier::fit: empty training set");
  features_ = std::move(features);
  labels_ = std::move(labels);
}

double KnnClassifier::predict_proba(const double* query) const {
  if (labels_.empty())
    throw std::logic_error("KnnClassifier: predict before fit");
  const std::size_t n = features_.rows();
  const std::size_t dim = features_.cols();
  const std::size_t k = std::min(k_, n);

  // Max-heap over the best-k (distance, index) pairs, kept in a flat array.
  std::vector<std::pair<double, std::size_t>> best;
  best.reserve(k + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = features_.row(i);
    double dist = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      const double d = row[c] - query[c];
      dist += d * d;
    }
    // Early exit: skip if worse than current k-th best.
    if (best.size() == k && dist >= best.front().first) continue;
    best.emplace_back(dist, i);
    std::push_heap(best.begin(), best.end());
    if (best.size() > k) {
      std::pop_heap(best.begin(), best.end());
      best.pop_back();
    }
  }

  std::size_t positives = 0;
  for (const auto& [dist, idx] : best) positives += labels_[idx] != 0;
  return static_cast<double>(positives) / static_cast<double>(best.size());
}

std::vector<double> KnnClassifier::predict_proba(
    const nn::Matrix& queries, runtime::ExecutionContext* context) const {
  if (labels_.empty())
    throw std::logic_error("KnnClassifier: predict before fit");
  if (queries.cols() != features_.cols())
    throw std::invalid_argument("KnnClassifier: query width mismatch");
  std::vector<double> out(queries.rows());
  // One linear scan per query, queries fanned out across the pool; each
  // query's heap is chunk-local, so slots never contend.
  par::ParallelOptions popts;
  popts.context = context;
  popts.what = "ml.knn.batch";
  popts.grain = par::grain_for(features_.rows() * features_.cols());
  // KNN seeds G0: without it there is nothing to degrade to, so an expired
  // deadline must not abort the batch — the pipeline truncates at the next
  // phase boundary instead. Cancellation (SIGINT) still aborts per chunk.
  popts.hard_deadline = false;
  par::parallel_for(queries.rows(), popts, [&](std::size_t r) {
    out[r] = predict_proba(queries.row(r));
  });
  // One batched add per matrix call, not one per query row.
  obs::metrics()
      .counter("ml.knn.queries_total", {}, "KNN probability queries answered")
      .add(queries.rows());
  return out;
}

std::vector<int> KnnClassifier::predict(const nn::Matrix& queries,
                                        runtime::ExecutionContext* context)
    const {
  const std::vector<double> probs = predict_proba(queries, context);
  std::vector<int> out(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) out[i] = probs[i] >= 0.5;
  return out;
}

void KnnClassifier::save(util::BinaryWriter& writer) const {
  writer.tag("KNN0");
  writer.u64(k_);
  writer.u64(features_.rows());
  writer.u64(features_.cols());
  writer.f64_vector(std::vector<double>(
      features_.data(), features_.data() + features_.size()));
  writer.i32_vector(labels_);
}

KnnClassifier KnnClassifier::load(util::BinaryReader& reader) {
  reader.expect_tag("KNN0");
  KnnClassifier knn(reader.u64());
  const std::size_t rows = reader.u64();
  const std::size_t cols = reader.u64();
  const std::vector<double> flat = reader.f64_vector();
  std::vector<int> labels = reader.i32_vector();
  if (flat.size() != rows * cols || labels.size() != rows)
    throw std::runtime_error("KnnClassifier::load: corrupted record");
  nn::Matrix features(rows, cols);
  std::copy(flat.begin(), flat.end(), features.data());
  knn.fit(std::move(features), std::move(labels));
  return knn;
}

}  // namespace fs::ml
