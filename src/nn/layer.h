// Layer interface for the sequential model container.
//
// Layers own their Variables; a training forward caches whatever the
// matching backward call needs. A layer instance trains on one minibatch at
// a time (forward immediately followed by backward), which is the access
// pattern of the training loop; evaluation forwards may come in between.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/variable.h"
#include "tensor/tensor.h"

namespace dlion::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` marks a training pass. Backward pairs with the
  /// last training forward: an evaluation forward (`train == false`) returns
  /// the same output but stores nothing (no input copy, no mask) and leaves
  /// that training state intact.
  virtual tensor::Tensor forward(const tensor::Tensor& input, bool train) = 0;

  /// Backward pass: consumes dL/d(output), accumulates dL/d(variables) into
  /// the layer's Variable grads, and returns dL/d(input). When
  /// `need_input_grad` is false the caller discards dL/d(input) (the layer
  /// sits on the model input), so layers may skip computing it and return an
  /// empty tensor; the variable grads must not change either way.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output,
                                  bool need_input_grad) = 0;

  /// Trainable variables (possibly empty). Pointers remain valid for the
  /// layer's lifetime.
  virtual std::vector<Variable*> variables() { return {}; }

  /// Initialize weights (no-op for parameterless layers).
  virtual void init_weights(common::Rng& /*rng*/) {}

  /// Human-readable layer name for diagnostics.
  virtual const char* kind() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace dlion::nn
