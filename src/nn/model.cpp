#include "nn/model.h"

#include <stdexcept>

namespace dlion::nn {

std::size_t Snapshot::num_params() const {
  std::size_t n = 0;
  for (const auto& t : values) n += t.size();
  return n;
}

Model& Model::add(LayerPtr layer) {
  if (variables_.empty()) first_trainable_ = layers_.size();
  for (Variable* v : layer->variables()) variables_.push_back(v);
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::init(common::Rng& rng) {
  for (auto& layer : layers_) layer->init_weights(rng);
}

tensor::Tensor Model::forward(const tensor::Tensor& input, bool train) {
  if (layers_.empty()) return input;
  tensor::Tensor x = layers_.front()->forward(input, train);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x, train);
  }
  return x;
}

LossResult Model::compute_gradients(const tensor::Tensor& input,
                                    std::span<const std::int32_t> labels) {
  zero_grads();
  tensor::Tensor logits = forward(input, /*train=*/true);
  LossResult res = softmax_cross_entropy(logits, labels);
  // Backpropagate down to the first layer with variables. Its input
  // gradient (w.r.t. the model input) is never read, so it is not computed,
  // and the parameterless layers below it are not visited at all.
  tensor::Tensor grad = res.grad_logits;
  for (std::size_t i = layers_.size(); i-- > first_trainable_;) {
    grad = layers_[i]->backward(grad, /*need_input_grad=*/i > first_trainable_);
  }
  return res;
}

LossResult Model::evaluate(const tensor::Tensor& input,
                           std::span<const std::int32_t> labels) {
  tensor::Tensor logits = forward(input, /*train=*/false);
  LossResult res = softmax_cross_entropy(logits, labels);
  res.grad_logits = tensor::Tensor();  // not meaningful for evaluation
  return res;
}

std::size_t Model::num_params() const {
  std::size_t n = 0;
  for (const Variable* v : variables_) n += v->size();
  return n;
}

void Model::zero_grads() {
  for (Variable* v : variables_) v->zero_grad();
}

Snapshot Model::weights() const {
  Snapshot s;
  s.values.reserve(variables_.size());
  for (const Variable* v : variables_) s.values.push_back(v->value());
  return s;
}

void Model::set_weights(const Snapshot& snapshot) {
  if (snapshot.values.size() != variables_.size()) {
    throw std::invalid_argument("Model::set_weights: variable count mismatch");
  }
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (!(snapshot.values[i].shape() == variables_[i]->value().shape())) {
      throw std::invalid_argument("Model::set_weights: shape mismatch at " +
                                  variables_[i]->name());
    }
    variables_[i]->value() = snapshot.values[i];
  }
}

Snapshot Model::gradients() const {
  Snapshot s;
  s.values.reserve(variables_.size());
  for (const Variable* v : variables_) s.values.push_back(v->grad());
  return s;
}

void Model::sgd_step(float lr) {
  for (Variable* v : variables_) {
    float* w = v->value().data();
    const float* g = v->grad().data();
    for (std::size_t i = 0; i < v->size(); ++i) w[i] -= lr * g[i];
  }
}

}  // namespace dlion::nn
