#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "kern/kern.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/supervised_autoencoder.h"
#include "par/pool.h"
#include "util/binary_io.h"

namespace fs::nn {
namespace {

// ---------- Matrix ----------

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FromRows) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{10, 20}, {30, 40}});
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 44);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2);
  Matrix c(1, 1);
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Matrix, MatmulNN) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul_nn(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
  const Matrix bad(3, 3);
  EXPECT_THROW(matmul_nn(a, bad), std::invalid_argument);
}

TEST(Matrix, MatmulNT) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}});
  const Matrix b = Matrix::from_rows({{4, 5, 6}, {7, 8, 9}});
  const Matrix c = matmul_nt(a, b);  // (1x3) * (2x3)^T -> 1x2
  EXPECT_DOUBLE_EQ(c(0, 0), 32);
  EXPECT_DOUBLE_EQ(c(0, 1), 50);
}

TEST(Matrix, MatmulTN) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5}, {6}});
  const Matrix c = matmul_tn(a, b);  // (2x2)^T * (2x1) -> 2x1
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 5 + 3 * 6);
  EXPECT_DOUBLE_EQ(c(1, 0), 2 * 5 + 4 * 6);
}

TEST(Matrix, TransposedProductsAgree) {
  util::Rng rng(7);
  Matrix a(4, 6), b(6, 3);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  // a * b == matmul_nt(a, b^T) == matmul_tn(a^T, b).
  Matrix bt(3, 6), at(6, 4);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 3; ++c) bt(c, r) = b(r, c);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) at(c, r) = a(r, c);
  const Matrix direct = matmul_nn(a, b);
  const Matrix via_nt = matmul_nt(a, bt);
  const Matrix via_tn = matmul_tn(at, b);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(direct(r, c), via_nt(r, c), 1e-12);
      EXPECT_NEAR(direct(r, c), via_tn(r, c), 1e-12);
    }
}

TEST(Matrix, GatherRows) {
  const Matrix m = Matrix::from_rows({{1, 1}, {2, 2}, {3, 3}});
  const Matrix g = m.gather_rows({2, 0});
  EXPECT_DOUBLE_EQ(g(0, 0), 3);
  EXPECT_DOUBLE_EQ(g(1, 0), 1);
}

TEST(Matrix, SquaredDifference) {
  const Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{3, 0}});
  EXPECT_DOUBLE_EQ(Matrix::squared_difference(a, b), 8.0);
  const Matrix c(2, 2);
  EXPECT_THROW(Matrix::squared_difference(a, c), std::invalid_argument);
}

TEST(Matrix, HeInitScalesWithFanIn) {
  util::Rng rng(11);
  const Matrix m = Matrix::he_init(50, 200, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) sq += m.data()[i] * m.data()[i];
  const double stddev = std::sqrt(sq / static_cast<double>(m.size()));
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 200.0), 0.01);
}

// ---------- activations ----------

TEST(Activations, Values) {
  EXPECT_DOUBLE_EQ(activate(Activation::kIdentity, -3.0), -3.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, -3.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, 3.0), 3.0);
  EXPECT_NEAR(activate(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(activate(Activation::kTanh, 100.0), 1.0, 1e-9);
}

// ---------- Dense gradient checking ----------

/// Numerical-vs-analytic gradient check on a single Dense layer with a
/// quadratic loss L = sum((y - target)^2).
class DenseGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseGradCheck, BackwardMatchesFiniteDifference) {
  util::Rng rng(13);
  Dense layer(4, 3, GetParam(), rng);
  Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  Matrix target(2, 3);
  for (std::size_t i = 0; i < target.size(); ++i)
    target.data()[i] = rng.normal();

  auto loss_fn = [&]() {
    const Matrix y = layer.infer(x);
    double loss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double d = y.data()[i] - target.data()[i];
      loss += d * d;
    }
    return loss;
  };

  // Analytic input gradient.
  Matrix y = layer.forward(x);
  Matrix d_out = y;
  d_out -= target;
  d_out *= 2.0;
  // A zero learning rate leaves W exactly as it was (W - 0 * g == W).
  Matrix d_in;
  layer.backward_step(d_out, /*learning_rate=*/0.0, &d_in);

  // Finite differences on a few input coordinates.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); i += 3) {
    const double orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double plus = loss_fn();
    x.data()[i] = orig - eps;
    const double minus = loss_fn();
    x.data()[i] = orig;
    const double numeric = (plus - minus) / (2 * eps);
    EXPECT_NEAR(d_in.data()[i], numeric, 1e-4)
        << "input gradient mismatch at " << i;
  }

  // Finite differences on a few weights, against the analytic gradient
  // recovered from a unit-learning-rate step on a copy (weights' -= grad).
  Dense probe = layer;
  probe.forward(x);
  probe.backward_step(d_out, /*learning_rate=*/1.0, nullptr);
  for (std::size_t i = 0; i < 5; ++i) {
    const std::size_t r = i % 3;
    const std::size_t c = (2 * i) % 4;
    const double analytic =
        layer.weights()(r, c) - probe.weights()(r, c);
    Dense shifted = layer;
    shifted.mutable_weights()(r, c) += eps;
    double plus = 0.0, minus = 0.0;
    {
      const Matrix yy = shifted.infer(x);
      for (std::size_t j = 0; j < yy.size(); ++j) {
        const double d = yy.data()[j] - target.data()[j];
        plus += d * d;
      }
    }
    shifted.mutable_weights()(r, c) -= 2 * eps;
    {
      const Matrix yy = shifted.infer(x);
      for (std::size_t j = 0; j < yy.size(); ++j) {
        const double d = yy.data()[j] - target.data()[j];
        minus += d * d;
      }
    }
    const double numeric = (plus - minus) / (2 * eps);
    EXPECT_NEAR(analytic, numeric, 1e-4)
        << "weight gradient mismatch at (" << r << "," << c << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DenseGradCheck,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kTanh,
                                           Activation::kSigmoid));

TEST(Dense, BackwardWithoutForwardThrows) {
  util::Rng rng(17);
  Dense layer(2, 2, Activation::kIdentity, rng);
  Matrix d(1, 2);
  EXPECT_THROW(layer.backward_step(d, 0.1, nullptr), std::logic_error);
}

TEST(Dense, RejectsZeroDims) {
  util::Rng rng(19);
  EXPECT_THROW(Dense(0, 2, Activation::kRelu, rng), std::invalid_argument);
}

// ---------- Mlp ----------

TEST(Mlp, ShapesAndInferForwardAgree) {
  util::Rng rng(23);
  Mlp mlp({5, 8, 2}, Activation::kRelu, Activation::kIdentity, rng);
  EXPECT_EQ(mlp.layer_count(), 2u);
  EXPECT_EQ(mlp.in_dim(), 5u);
  EXPECT_EQ(mlp.out_dim(), 2u);
  Matrix x(3, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  const Matrix y1 = mlp.forward(x);
  const Matrix y2 = mlp.infer(x);
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_DOUBLE_EQ(y1.data()[i], y2.data()[i]);
}

TEST(Mlp, LearnsLinearMap) {
  // y = 2x - 1 learned by a 1-16-1 network from noise-free samples.
  util::Rng rng(29);
  Mlp mlp({1, 16, 1}, Activation::kTanh, Activation::kIdentity, rng);
  Matrix x(64, 1), target(64, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    target(i, 0) = 2.0 * x(i, 0) - 1.0;
  }
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    Matrix y = mlp.forward(x);
    Matrix d = y;
    d -= target;
    const double loss = Matrix::squared_difference(y, target) / 64.0;
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    d *= 2.0 / 64.0;
    mlp.backward_step(d, 0.05);
  }
  EXPECT_LT(last_loss, first_loss * 0.05);
}

TEST(Mlp, RequiresTwoDims) {
  util::Rng rng(31);
  EXPECT_THROW(Mlp({5}, Activation::kRelu, Activation::kIdentity, rng),
               std::invalid_argument);
}

// ---------- SupervisedAutoencoder ----------

AutoencoderConfig small_ae_config() {
  AutoencoderConfig cfg;
  cfg.encoder_dims = {12, 6, 3};
  cfg.classifier_hidden = {8};
  cfg.epochs = 40;
  cfg.batch_size = 8;
  cfg.learning_rate = 0.01;
  cfg.seed = 37;
  return cfg;
}

/// Two Gaussian blobs in 12-d with disjoint support patterns.
void make_blobs(Matrix& x, std::vector<int>& y, std::size_t n,
                util::Rng& rng) {
  x = Matrix(n, 12);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    y[i] = label;
    for (std::size_t c = 0; c < 12; ++c) {
      const double base = (label == 1 && c < 6) ? 2.0
                          : (label == 0 && c >= 6) ? 2.0
                                                   : 0.0;
      x(i, c) = base + rng.normal(0.0, 0.3);
    }
  }
}

TEST(SupervisedAutoencoder, ReconstructionLossDecreases) {
  util::Rng rng(41);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 64, rng);
  SupervisedAutoencoder ae(small_ae_config());
  const auto history = ae.train(x, y);
  ASSERT_FALSE(history.empty());
  EXPECT_LT(history.back().reconstruction_loss,
            history.front().reconstruction_loss * 0.8);
}

TEST(SupervisedAutoencoder, ClassifierLearnsBlobs) {
  util::Rng rng(43);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 64, rng);
  SupervisedAutoencoder ae(small_ae_config());
  ae.train(x, y);
  Matrix test_x;
  std::vector<int> test_y;
  make_blobs(test_x, test_y, 32, rng);
  const auto probs = ae.predict_proba(test_x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < probs.size(); ++i)
    correct += (probs[i] >= 0.5) == (test_y[i] == 1);
  EXPECT_GT(correct, 28u);  // ~90 %+
}

TEST(SupervisedAutoencoder, CodeHasRequestedDimension) {
  util::Rng rng(47);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 32, rng);
  SupervisedAutoencoder ae(small_ae_config());
  ae.train(x, y);
  const Matrix code = ae.encode(x);
  EXPECT_EQ(code.rows(), 32u);
  EXPECT_EQ(code.cols(), 3u);
  const Matrix recon = ae.reconstruct(x);
  EXPECT_EQ(recon.cols(), 12u);
}

TEST(SupervisedAutoencoder, SupervisionImprovesCodeSeparability) {
  // With alpha > 0 the code should separate the classes better than the
  // pure autoencoder (alpha = 0). Measured by the distance between class
  // centroids over mean intra-class spread.
  util::Rng rng(53);
  Matrix x;
  std::vector<int> y;
  // Classes differ in a LOW-variance direction that pure reconstruction
  // tends to drop: class signal lives in 2 of 12 dims at small amplitude,
  // while 10 dims carry shared high-variance structure.
  x = Matrix(96, 12);
  y.assign(96, 0);
  for (std::size_t i = 0; i < 96; ++i) {
    const int label = static_cast<int>(i % 2);
    y[i] = label;
    const double shared = rng.normal(0.0, 2.0);
    for (std::size_t c = 0; c < 10; ++c)
      x(i, c) = shared + rng.normal(0.0, 0.5);
    for (std::size_t c = 10; c < 12; ++c)
      x(i, c) = (label ? 0.6 : -0.6) + rng.normal(0.0, 0.2);
  }

  auto separability = [&](double alpha) {
    AutoencoderConfig cfg = small_ae_config();
    cfg.alpha = alpha;
    cfg.epochs = 60;
    SupervisedAutoencoder ae(cfg);
    ae.train(x, y);
    const Matrix code = ae.encode(x);
    std::vector<double> mean0(code.cols(), 0.0), mean1(code.cols(), 0.0);
    std::size_t n0 = 0, n1 = 0;
    for (std::size_t i = 0; i < code.rows(); ++i) {
      auto& mean = y[i] ? mean1 : mean0;
      (y[i] ? n1 : n0)++;
      for (std::size_t c = 0; c < code.cols(); ++c) mean[c] += code(i, c);
    }
    for (std::size_t c = 0; c < code.cols(); ++c) {
      mean0[c] /= static_cast<double>(n0);
      mean1[c] /= static_cast<double>(n1);
    }
    double between = 0.0, within = 0.0;
    for (std::size_t c = 0; c < code.cols(); ++c) {
      const double d = mean1[c] - mean0[c];
      between += d * d;
    }
    for (std::size_t i = 0; i < code.rows(); ++i) {
      const auto& mean = y[i] ? mean1 : mean0;
      for (std::size_t c = 0; c < code.cols(); ++c) {
        const double d = code(i, c) - mean[c];
        within += d * d;
      }
    }
    return between / (within / static_cast<double>(code.rows()) + 1e-12);
  };

  EXPECT_GT(separability(1.0), separability(0.0));
}

TEST(SupervisedAutoencoder, ValidatesInputs) {
  SupervisedAutoencoder ae(small_ae_config());
  Matrix x(4, 12);
  EXPECT_THROW(ae.train(x, {0, 1}), std::invalid_argument);
  Matrix wrong_width(4, 5);
  EXPECT_THROW(ae.train(wrong_width, {0, 1, 0, 1}), std::invalid_argument);
  AutoencoderConfig bad;
  bad.encoder_dims = {12};
  EXPECT_THROW(SupervisedAutoencoder{bad}, std::invalid_argument);
  // A zero batch used to train on empty batches and report the 0/0 loss
  // as divergence after every retry.
  AutoencoderConfig zero_batch = small_ae_config();
  zero_batch.batch_size = 0;
  EXPECT_THROW(SupervisedAutoencoder{zero_batch}, std::invalid_argument);
  AutoencoderConfig negative_epochs = small_ae_config();
  negative_epochs.epochs = -1;
  EXPECT_THROW(SupervisedAutoencoder{negative_epochs}, std::invalid_argument);
  AutoencoderConfig no_epochs = small_ae_config();
  no_epochs.epochs = 0;
  SupervisedAutoencoder untrained(no_epochs);
  EXPECT_TRUE(untrained.train(Matrix(4, 12), {0, 1, 0, 1}).empty());
}

TEST(SupervisedAutoencoder, DeterministicGivenSeed) {
  util::Rng rng(59);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 32, rng);
  SupervisedAutoencoder a(small_ae_config());
  SupervisedAutoencoder b(small_ae_config());
  a.train(x, y);
  b.train(x, y);
  const auto pa = a.predict_proba(x);
  const auto pb = b.predict_proba(x);
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

// ---------- Trajectory oracle ----------
//
// A test-local copy of the two-pass training step the fused backward_step
// replaced: each layer accumulates its weight gradient into a zeroed
// buffer with its own GEMM, the step w -= lr * g runs as a separate sweep,
// and the buffer is cleared. The fused kernel step must reproduce the
// trained networks bit for bit, on every kernel path and thread count.

kern::Epilogue two_pass_epilogue(Activation act) {
  switch (act) {
    case Activation::kIdentity: return kern::Epilogue::kBias;
    case Activation::kRelu: return kern::Epilogue::kBiasRelu;
    case Activation::kSigmoid: return kern::Epilogue::kBiasSigmoid;
    case Activation::kTanh: return kern::Epilogue::kBiasTanh;
  }
  return kern::Epilogue::kNone;
}

double two_pass_act_grad(Activation act, double out) {
  switch (act) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return out > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid: return out * (1.0 - out);
    case Activation::kTanh: return 1.0 - out * out;
  }
  return 0.0;
}

struct TwoPassLayer {
  explicit TwoPassLayer(const Dense& init)
      : w(init.weights()),
        b(init.bias()),
        act(init.activation()),
        grad_w(w.rows(), w.cols()),
        grad_b(b.size(), 0.0) {}

  const Matrix& forward(const Matrix& x) {
    in = x;
    out = Matrix(x.rows(), w.rows());
    kern::gemm_nt(x.rows(), w.rows(), w.cols(), x.data(), x.cols(),
                  w.data(), w.cols(), out.data(), w.rows(),
                  /*accumulate=*/false, two_pass_epilogue(act), b.data());
    return out;
  }

  void backward(const Matrix& d_out, Matrix* d_in) {
    d_pre = d_out;
    for (std::size_t i = 0; i < d_pre.size(); ++i)
      d_pre.data()[i] *= two_pass_act_grad(act, out.data()[i]);
    matmul_tn_into(d_pre, in, grad_w, /*accumulate=*/true);
    for (std::size_t r = 0; r < d_pre.rows(); ++r)
      for (std::size_t c = 0; c < d_pre.cols(); ++c) grad_b[c] += d_pre(r, c);
    if (d_in != nullptr) matmul_nn_into(d_pre, w, *d_in);
  }

  void apply(double lr) {
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] -= lr * grad_w.data()[i];
    for (std::size_t c = 0; c < b.size(); ++c) b[c] -= lr * grad_b[c];
    grad_w.fill(0.0);
    grad_b.assign(grad_b.size(), 0.0);
  }

  Matrix w;
  std::vector<double> b;
  Activation act;
  Matrix grad_w;
  std::vector<double> grad_b;
  Matrix in, out, d_pre;
};

struct TwoPassMlp {
  TwoPassMlp(const std::vector<std::size_t>& dims, util::Rng& rng) {
    const Mlp init(dims, Activation::kRelu, Activation::kIdentity, rng);
    for (std::size_t i = 0; i < init.layer_count(); ++i)
      layers.emplace_back(init.layer(i));
    d_in.resize(layers.size());
  }

  const Matrix& forward(const Matrix& x) {
    const Matrix* current = &x;
    for (TwoPassLayer& layer : layers) current = &layer.forward(*current);
    return *current;
  }

  const Matrix& backward(const Matrix& d_out) {
    const Matrix* current = &d_out;
    for (std::size_t i = layers.size(); i-- > 0;) {
      layers[i].backward(*current, &d_in[i]);
      current = &d_in[i];
    }
    return d_in[0];
  }

  void apply(double lr) {
    for (TwoPassLayer& layer : layers) layer.apply(lr);
  }

  void save(util::BinaryWriter& writer) const {
    std::vector<Dense> trained;
    for (const TwoPassLayer& layer : layers)
      trained.emplace_back(layer.w, layer.b, layer.act);
    Mlp(std::move(trained)).save(writer);
  }

  std::vector<TwoPassLayer> layers;
  std::vector<Matrix> d_in;
};

/// Algorithm 1 exactly as SupervisedAutoencoder::train runs it, on the
/// two-pass step; returns the trained model's serialized record.
std::string two_pass_trained_record(const AutoencoderConfig& cfg,
                                    const Matrix& inputs,
                                    const std::vector<int>& labels) {
  util::Rng encoder_rng(cfg.seed);
  TwoPassMlp encoder(cfg.encoder_dims, encoder_rng);
  util::Rng decoder_rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  TwoPassMlp decoder({cfg.encoder_dims.rbegin(), cfg.encoder_dims.rend()},
                     decoder_rng);
  std::vector<std::size_t> head = {cfg.encoder_dims.back()};
  head.insert(head.end(), cfg.classifier_hidden.begin(),
              cfg.classifier_hidden.end());
  head.push_back(1);
  util::Rng classifier_rng(cfg.seed ^ 0xc2b2ae3d27d4eb4fULL);
  TwoPassMlp classifier(head, classifier_rng);

  util::Rng shuffle_rng(cfg.seed ^ 0xa5a5a5a5ULL);
  std::vector<std::size_t> order(inputs.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const double elem_norm = 1.0 / static_cast<double>(inputs.cols());
  const double lr = cfg.learning_rate;
  const auto clip = [&](Matrix& m) {
    for (std::size_t i = 0; i < m.size(); ++i)
      m.data()[i] =
          std::clamp(m.data()[i], -cfg.gradient_clip, cfg.gradient_clip);
  };
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::vector<std::size_t> batch(
          order.begin() + static_cast<std::ptrdiff_t>(start),
          order.begin() + static_cast<std::ptrdiff_t>(
                              std::min(order.size(), start + cfg.batch_size)));
      const auto n = static_cast<double>(batch.size());
      const Matrix x = inputs.gather_rows(batch);
      const Matrix& code = encoder.forward(x);
      const Matrix& recon = decoder.forward(code);
      const Matrix& logit = classifier.forward(code);

      Matrix d_recon = recon;
      d_recon -= x;
      d_recon *= 2.0 / n * elem_norm;
      clip(d_recon);
      encoder.backward(decoder.backward(d_recon));
      decoder.apply(lr);
      encoder.apply(lr);

      Matrix d_logit(logit.rows(), 1);
      for (std::size_t r = 0; r < logit.rows(); ++r) {
        const double p = 1.0 / (1.0 + std::exp(-logit(r, 0)));
        d_logit(r, 0) = (p - static_cast<double>(labels[batch[r]])) / n;
      }
      clip(d_logit);
      encoder.backward(classifier.backward(d_logit));
      classifier.apply(lr);
      encoder.apply(cfg.alpha * lr);
    }
  }

  // Mirrors SupervisedAutoencoder::save field by field.
  std::string record;
  util::BinaryWriter writer(record);
  writer.tag("SAE1");
  writer.u64(cfg.encoder_dims.size());
  for (std::size_t d : cfg.encoder_dims) writer.u64(d);
  writer.u64(cfg.classifier_hidden.size());
  for (std::size_t d : cfg.classifier_hidden) writer.u64(d);
  writer.f64(cfg.learning_rate);
  writer.f64(cfg.alpha);
  writer.i64(cfg.epochs);
  writer.u64(cfg.batch_size);
  writer.u64(cfg.seed);
  writer.u64(cfg.mean_reconstruction_loss ? 1 : 0);
  writer.f64(cfg.gradient_clip);
  writer.i64(cfg.retry.max_attempts);
  writer.f64(cfg.retry_lr_backoff);
  encoder.save(writer);
  decoder.save(writer);
  classifier.save(writer);
  return record;
}

TEST(SupervisedAutoencoder, FusedStepMatchesTwoPassTrajectoryBitForBit) {
  // 306 rows: batch 16 leaves a 2-row last batch, batch 300 makes the step
  // GEMM's k exceed one KC block (256) and splits the 100-wide layer's
  // products into several tiles (two MC row blocks in its step).
  util::Rng rng(61);
  Matrix x(306, 40);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 3 == 0);

  const kern::IsaPath original_path = kern::active_path();
  for (const kern::IsaPath path : kern::supported_paths()) {
    kern::force_path(path);
    for (const std::size_t threads : {1u, 4u}) {
      par::set_threads(threads);
      for (const std::size_t batch : {1u, 16u, 300u}) {
        for (const double alpha : {1.0, 0.3}) {
          AutoencoderConfig cfg;
          cfg.encoder_dims = {40, 100, 6};
          cfg.classifier_hidden = {9};
          cfg.epochs = 2;
          cfg.batch_size = batch;
          cfg.alpha = alpha;
          cfg.learning_rate = 0.01;
          cfg.seed = 67;
          SupervisedAutoencoder fused(cfg);
          fused.train(x, y);
          std::string actual;
          util::BinaryWriter writer(actual);
          fused.save(writer);
          const std::string expected = two_pass_trained_record(cfg, x, y);
          ASSERT_EQ(actual.size(), expected.size());
          EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(),
                                   actual.size()))
              << kern::path_name(path) << " threads=" << threads
              << " batch=" << batch << " alpha=" << alpha;
        }
      }
    }
  }
  kern::force_path(original_path);
  par::set_threads(0);
}

}  // namespace
}  // namespace fs::nn
