// Sequential model container with named weight variables.
//
// Matches the paper's `build_model` abstraction (§4.2): a model is a list of
// named weight variables plus forward/backward machinery; everything the
// distributed layer does (gradient exchange, Max N selection, DKT weight
// merging) addresses variables by name/index.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/loss.h"

namespace dlion::nn {

/// A flat snapshot of all variable values (or gradients), aligned with
/// Model::variables() order. Used for weight exchange (DKT) and tests.
struct Snapshot {
  std::vector<tensor::Tensor> values;

  std::size_t num_params() const;
};

class Model {
 public:
  Model() = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Append a layer. Returns *this for chaining.
  Model& add(LayerPtr layer);

  /// Initialize all layer weights from the generator.
  void init(common::Rng& rng);

  /// Forward through all layers.
  tensor::Tensor forward(const tensor::Tensor& input, bool train = false);

  /// One training evaluation: zeroes grads, runs forward, computes softmax
  /// cross-entropy against labels, backpropagates into variable grads.
  LossResult compute_gradients(const tensor::Tensor& input,
                               std::span<const std::int32_t> labels);

  /// Forward-only loss/accuracy (no gradient accumulation).
  LossResult evaluate(const tensor::Tensor& input,
                      std::span<const std::int32_t> labels);

  /// All trainable variables in deterministic (layer, declaration) order.
  const std::vector<Variable*>& variables() const { return variables_; }
  std::vector<Variable*>& variables() { return variables_; }
  std::size_t num_variables() const { return variables_.size(); }
  std::size_t num_params() const;

  void zero_grads();

  Snapshot weights() const;
  void set_weights(const Snapshot& snapshot);
  Snapshot gradients() const;

  /// Plain SGD step on local gradients: w -= lr * g (used by
  /// single-machine training in tests/examples).
  void sgd_step(float lr);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::vector<LayerPtr> layers_;
  std::vector<Variable*> variables_;
  // Index of the first layer with variables: backward stops there, since
  // nothing below it has a gradient anyone reads.
  std::size_t first_trainable_ = 0;
};

}  // namespace dlion::nn
