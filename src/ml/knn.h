// K-nearest-neighbors classifier — the paper's phase-1 classifier C over
// presence-proximity features ("we use a simple KNN ... as the classifier
// C", Sec IV-B).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/matrix.h"
#include "util/binary_io.h"
#include "util/runtime.h"

namespace fs::ml {

class KnnClassifier {
 public:
  explicit KnnClassifier(std::size_t k = 5);

  /// Stores the (already scaled) training features and binary labels.
  void fit(nn::Matrix features, std::vector<int> labels);

  /// Fraction of positive labels among the k nearest training rows
  /// (Euclidean distance). Ties in distance resolve by training order.
  double predict_proba(const double* query) const;

  /// Batch queries run one neighbor search per row across the fs::par
  /// pool; `context` (optional) is probed for cancellation/deadline at
  /// chunk granularity.
  std::vector<double> predict_proba(
      const nn::Matrix& queries,
      runtime::ExecutionContext* context = nullptr) const;
  std::vector<int> predict(const nn::Matrix& queries,
                           runtime::ExecutionContext* context = nullptr) const;

  std::size_t k() const { return k_; }
  std::size_t train_size() const { return labels_.size(); }

  void save(util::BinaryWriter& writer) const;
  static KnnClassifier load(util::BinaryReader& reader);

 private:
  std::size_t k_;
  nn::Matrix features_;
  std::vector<int> labels_;
};

}  // namespace fs::ml
