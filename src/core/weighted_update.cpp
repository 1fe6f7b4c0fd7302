#include "core/weighted_update.h"

#include <cstring>
#include <stdexcept>

#include "common/check.h"

namespace dlion::core {

double normalized_batching_weight(std::size_t lbs_sender, std::size_t gbs,
                                  std::size_t n_workers, bool enabled) {
  if (!enabled) return 1.0;
  if (lbs_sender == 0 || gbs == 0 || n_workers == 0) {
    throw std::invalid_argument("normalized_batching_weight: zero input");
  }
  return static_cast<double>(n_workers) * static_cast<double>(lbs_sender) /
         static_cast<double>(gbs);
}

void apply_gradient_update(nn::Model& model, const comm::GradientUpdate& update,
                           double eta, std::size_t n_workers, double db) {
  if (n_workers == 0) {
    throw std::invalid_argument("apply_gradient_update: zero workers");
  }
  const float scale = static_cast<float>(eta * db /
                                         static_cast<double>(n_workers));
  auto& vars = model.variables();
  for (const auto& vg : update.vars) {
    if (vg.var_index >= vars.size()) {
      throw std::out_of_range("apply_gradient_update: bad variable index");
    }
    nn::Variable& var = *vars[vg.var_index];
    if (vg.dense_size != var.size()) {
      throw std::invalid_argument("apply_gradient_update: size mismatch at " +
                                  var.name());
    }
    float* w = var.value().data();
    if (vg.is_dense()) {
      for (std::size_t i = 0; i < vg.values.size(); ++i) {
        w[i] -= scale * vg.values[i];
      }
    } else {
      for (std::size_t e = 0; e < vg.indices.size(); ++e) {
        const std::uint32_t i = vg.indices[e];
        if (i >= var.size()) {
          throw std::out_of_range("apply_gradient_update: bad entry index");
        }
        w[i] -= scale * vg.values[e];
      }
    }
  }
}

void apply_own_gradients(nn::Model& model, double eta, std::size_t n_workers,
                         double db) {
  if (n_workers == 0) {
    throw std::invalid_argument("apply_own_gradients: zero workers");
  }
  const float scale =
      static_cast<float>(eta * db / static_cast<double>(n_workers));
  for (nn::Variable* var : model.variables()) {
    // Shape agreement: value and gradient buffers are walked with one flat
    // index, so their shapes must be identical.
    DLION_CHECK_SHAPE(var->grad().shape(), var->value().shape());
    float* w = var->value().data();
    const float* g = var->grad().data();
    for (std::size_t i = 0; i < var->size(); ++i) w[i] -= scale * g[i];
  }
}

void assign_weights(nn::Model& model, const comm::WeightPayload& weights) {
  auto& vars = model.variables();
  if (weights.parts.size() != vars.size()) {
    throw std::invalid_argument("assign_weights: variable count mismatch");
  }
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const comm::Payload<float>& p = weights.parts[v];
    if (p.size() != vars[v]->size()) {
      throw std::invalid_argument("assign_weights: size mismatch at " +
                                  vars[v]->name());
    }
    if (p.size() > 0) {
      std::memcpy(vars[v]->value().data(), p.data(),
                  p.size() * sizeof(float));
    }
  }
}

}  // namespace dlion::core
