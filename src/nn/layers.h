// Fully-connected layers and multi-layer perceptrons trained with plain
// SGD, one fused backward-and-step per loss, so Algorithm 1's sequential
// per-batch updates (L_auto step, classifier step, alpha-scaled encoder
// step) map onto one call each.
//
// Hot-path shape: forward runs one fused GEMM (bias + activation applied
// in the kernel's tile writeback — no second pass over the batch), caches
// the layer *output*, and derives the activation gradient from it in
// backward_step (ReLU: out > 0; sigmoid: s(1-s); tanh: 1-t² — identical
// values to the pre-activation forms, one cached matrix instead of two).
// The weight update is one GEMM with the kernel's SGD-step epilogue
// (W <- W - lr * dPre^T X), so no weight-gradient matrix exists at all;
// its bits equal accumulating the gradient into a zeroed buffer and then
// stepping. All per-batch buffers are reused members, so steady-state
// training allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.h"
#include "util/binary_io.h"

namespace fs::nn {

// Serialized as its integer value; Dense::load rejects anything past kTanh.
enum class Activation { kIdentity, kRelu, kSigmoid, kTanh };

/// Applies the activation / its derivative (as a function of the
/// pre-activation for ReLU, of the output for sigmoid/tanh).
double activate(Activation act, double x);

/// One dense layer: y = act(W x + b), batched over matrix rows.
class Dense {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, Activation act,
        util::Rng& rng);

  /// Reconstructs a layer from trained parameters (deserialization).
  Dense(Matrix weights, std::vector<double> bias, Activation act);

  std::size_t in_dim() const { return weights_.cols(); }
  std::size_t out_dim() const { return weights_.rows(); }
  Activation activation() const { return activation_; }

  /// Forward pass; caches input and output for backward_step(). The
  /// returned reference is into this layer and stays valid until the next
  /// forward.
  const Matrix& forward(const Matrix& input);

  /// Forward without caching (inference).
  Matrix infer(const Matrix& input) const;

  /// Backpropagates dL/d(output) through the cached forward and takes one
  /// SGD step: W -= lr * dPre^T X, b -= lr * colsum(dPre). dL/d(input) is
  /// computed from the pre-step W into *d_input (reusing its capacity), or
  /// skipped entirely when d_input is null — the bottom layer of a network
  /// whose input gradient nobody reads saves a GEMM. Requires a preceding
  /// forward() on the same batch; may run again on the same cache.
  void backward_step(const Matrix& d_output, double learning_rate,
                     Matrix* d_input);

  void save(util::BinaryWriter& writer) const;
  static Dense load(util::BinaryReader& reader);

  const Matrix& weights() const { return weights_; }
  Matrix& mutable_weights() { return weights_; }
  const std::vector<double>& bias() const { return bias_; }

 private:
  Matrix weights_;  // out_dim x in_dim
  std::vector<double> bias_;
  Activation activation_;

  // Forward caches and backward scratch (all capacity-reusing).
  Matrix cached_input_;
  Matrix cached_output_;  // post-activation
  Matrix d_pre_;
};

/// A plain MLP: a stack of Dense layers trained with SGD.
class Mlp {
 public:
  /// dims = {in, h1, ..., out}; `hidden` activation on all but the last
  /// layer, `output` activation on the last.
  Mlp(const std::vector<std::size_t>& dims, Activation hidden,
      Activation output, util::Rng& rng);

  /// Reconstructs a network from trained layers (deserialization).
  explicit Mlp(std::vector<Dense> layers);

  /// Returns a reference into the last layer's cache, valid until the
  /// next forward — activations chain layer to layer without copies.
  const Matrix& forward(const Matrix& input);
  Matrix infer(const Matrix& input) const;

  /// Backpropagates dL/d(output) top-down, each layer stepping its own
  /// parameters with `learning_rate` after computing its input gradient
  /// from the pre-step weights (so the result equals computing every
  /// gradient first and then applying them all). Returns dL/d(input) (a
  /// reference into this network, valid until the next backward_step).
  /// With need_input_grad false the bottom layer's input gradient is never
  /// computed and the returned matrix is empty.
  const Matrix& backward_step(const Matrix& d_output, double learning_rate,
                              bool need_input_grad = true);

  std::size_t layer_count() const { return layers_.size(); }
  const Dense& layer(std::size_t i) const { return layers_.at(i); }
  Dense& mutable_layer(std::size_t i) { return layers_.at(i); }

  std::size_t in_dim() const { return layers_.front().in_dim(); }
  std::size_t out_dim() const { return layers_.back().out_dim(); }

  void save(util::BinaryWriter& writer) const;
  static Mlp load(util::BinaryReader& reader);

 private:
  std::vector<Dense> layers_;
  // d_input_[i] = dL/d(input of layer i); reused every backward pass.
  std::vector<Matrix> d_input_;
};

}  // namespace fs::nn
