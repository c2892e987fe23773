#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "kern/kern.h"

namespace fs::nn {

double activate(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kTanh: return std::tanh(x);
  }
  throw std::logic_error("activate: unknown activation");
}

namespace {

/// The kernel epilogue computing act(pre + bias) for this activation.
kern::Epilogue epilogue_for(Activation act) {
  switch (act) {
    case Activation::kIdentity: return kern::Epilogue::kBias;
    case Activation::kRelu: return kern::Epilogue::kBiasRelu;
    case Activation::kSigmoid: return kern::Epilogue::kBiasSigmoid;
    case Activation::kTanh: return kern::Epilogue::kBiasTanh;
  }
  throw std::logic_error("epilogue_for: unknown activation");
}

/// Derivative with respect to pre-activation, expressed through the layer
/// OUTPUT `out = act(pre)`. Numerically identical to the pre-activation
/// forms (sigmoid'/tanh' recompute the same value the forward pass already
/// produced), but needs only one cached matrix.
double activation_grad_from_output(Activation act, double out) {
  switch (act) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return out > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid: return out * (1.0 - out);
    case Activation::kTanh: return 1.0 - out * out;
  }
  throw std::logic_error("activation_grad_from_output: unknown activation");
}

}  // namespace

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation act,
             util::Rng& rng)
    : weights_(Matrix::he_init(out_dim, in_dim, rng)),
      bias_(out_dim, 0.0),
      activation_(act) {
  if (in_dim == 0 || out_dim == 0)
    throw std::invalid_argument("Dense: zero dimension");
}

Dense::Dense(Matrix weights, std::vector<double> bias, Activation act)
    : weights_(std::move(weights)),
      bias_(std::move(bias)),
      activation_(act) {
  if (weights_.rows() != bias_.size())
    throw std::invalid_argument("Dense: weights/bias shape mismatch");
  if (weights_.rows() == 0 || weights_.cols() == 0)
    throw std::invalid_argument("Dense: zero dimension");
}

void Dense::save(util::BinaryWriter& writer) const {
  writer.tag("DNSE");
  writer.u64(weights_.rows());
  writer.u64(weights_.cols());
  writer.u64(static_cast<std::uint64_t>(activation_));
  std::vector<double> flat(weights_.data(),
                           weights_.data() + weights_.size());
  writer.f64_vector(flat);
  writer.f64_vector(bias_);
}

Dense Dense::load(util::BinaryReader& reader) {
  reader.expect_tag("DNSE");
  const std::size_t rows = reader.u64();
  const std::size_t cols = reader.u64();
  const std::uint64_t act = reader.u64();
  const std::vector<double> flat = reader.f64_vector();
  std::vector<double> bias = reader.f64_vector();
  // rows * cols can wrap; reject the shape before trusting the product.
  if ((cols != 0 && rows > SIZE_MAX / cols) || flat.size() != rows * cols ||
      bias.size() != rows ||
      act > static_cast<std::uint64_t>(Activation::kTanh))
    throw std::runtime_error("Dense::load: corrupted record");
  Matrix weights(rows, cols);
  std::copy(flat.begin(), flat.end(), weights.data());
  return Dense(std::move(weights), std::move(bias),
               static_cast<Activation>(act));
}

const Matrix& Dense::forward(const Matrix& input) {
  if (input.cols() != in_dim())
    throw std::invalid_argument("Dense::forward: input width mismatch");
  cached_input_ = input;  // capacity-reusing copy
  cached_output_.resize(input.rows(), out_dim());
  // One fused kernel: GEMM against W^T with bias+activation applied during
  // tile writeback — no second pass over the batch.
  kern::gemm_nt(input.rows(), out_dim(), in_dim(), input.data(),
                input.cols(), weights_.data(), weights_.cols(),
                cached_output_.data(), out_dim(), /*accumulate=*/false,
                epilogue_for(activation_), bias_.data());
  return cached_output_;
}

Matrix Dense::infer(const Matrix& input) const {
  if (input.cols() != in_dim())
    throw std::invalid_argument("Dense::infer: input width mismatch");
  Matrix out(input.rows(), out_dim());
  kern::gemm_nt(input.rows(), out_dim(), in_dim(), input.data(),
                input.cols(), weights_.data(), weights_.cols(), out.data(),
                out_dim(), /*accumulate=*/false, epilogue_for(activation_),
                bias_.data());
  return out;
}

void Dense::backward_step(const Matrix& d_output, double learning_rate,
                          Matrix* d_input) {
  if (cached_output_.rows() != d_output.rows() ||
      cached_output_.cols() != d_output.cols())
    throw std::logic_error("Dense::backward_step: no matching forward cache");
  // dPre = dOut ∘ act'(out)
  d_pre_ = d_output;
  for (std::size_t i = 0; i < d_pre_.size(); ++i)
    d_pre_.data()[i] *=
        activation_grad_from_output(activation_, cached_output_.data()[i]);
  // dInput = dPre * W from the pre-step W — skipped when nobody reads it
  // (bottom layers).
  if (d_input != nullptr) matmul_nn_into(d_pre_, weights_, *d_input);
  // W -= lr * dPre^T X in one kernel call: the gradient never leaves the
  // tile that computes it.
  kern::GemmCall step;
  step.m = out_dim();
  step.n = in_dim();
  step.k = d_pre_.rows();
  step.a = d_pre_.data();
  step.lda = d_pre_.cols();
  step.a_trans = true;
  step.b = cached_input_.data();
  step.ldb = cached_input_.cols();
  step.c = weights_.data();
  step.ldc = weights_.cols();
  step.epilogue = kern::Epilogue::kSgdStep;
  step.lr = learning_rate;
  kern::gemm(step);
  for (std::size_t c = 0; c < bias_.size(); ++c) {
    double grad = 0.0;
    for (std::size_t r = 0; r < d_pre_.rows(); ++r) grad += d_pre_(r, c);
    bias_[c] -= learning_rate * grad;
  }
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Activation hidden,
         Activation output, util::Rng& rng) {
  if (dims.size() < 2)
    throw std::invalid_argument("Mlp: need at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], last ? output : hidden, rng);
  }
  d_input_.resize(layers_.size());
}

Mlp::Mlp(std::vector<Dense> layers) : layers_(std::move(layers)) {
  if (layers_.empty())
    throw std::invalid_argument("Mlp: need at least one layer");
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
    if (layers_[i].out_dim() != layers_[i + 1].in_dim())
      throw std::invalid_argument("Mlp: layer dimension mismatch");
  d_input_.resize(layers_.size());
}

void Mlp::save(util::BinaryWriter& writer) const {
  writer.tag("MLP0");
  writer.u64(layers_.size());
  for (const Dense& layer : layers_) layer.save(writer);
}

Mlp Mlp::load(util::BinaryReader& reader) {
  reader.expect_tag("MLP0");
  const std::size_t count = reader.u64();
  if (count == 0 || count > 1024)
    throw std::runtime_error("Mlp::load: implausible layer count");
  std::vector<Dense> layers;
  layers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) layers.push_back(Dense::load(reader));
  return Mlp(std::move(layers));
}

const Matrix& Mlp::forward(const Matrix& input) {
  // Activations chain through each layer's cache; no intermediate copies
  // beyond the per-layer input cache backward_step() needs anyway.
  const Matrix* current = &input;
  for (Dense& layer : layers_) current = &layer.forward(*current);
  return *current;
}

Matrix Mlp::infer(const Matrix& input) const {
  Matrix current = input;
  for (const Dense& layer : layers_) current = layer.infer(current);
  return current;
}

const Matrix& Mlp::backward_step(const Matrix& d_output, double learning_rate,
                                 bool need_input_grad) {
  if (!need_input_grad) d_input_[0].resize(0, 0);  // never return stale bits
  const Matrix* current = &d_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const bool need = i > 0 || need_input_grad;
    layers_[i].backward_step(*current, learning_rate,
                             need ? &d_input_[i] : nullptr);
    current = &d_input_[i];
  }
  return d_input_[0];
}

}  // namespace fs::nn
