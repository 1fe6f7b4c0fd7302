#include "core/gbs_controller.h"

#include <cmath>
#include <stdexcept>

namespace dlion::core {

GbsController::GbsController(GbsConfig config)
    : config_(config), gbs_(config.initial_gbs) {
  if (config_.initial_gbs == 0 || config_.dataset_size == 0) {
    throw std::invalid_argument("GbsController: zero sizes");
  }
  if (config_.c_speedup <= 1.0) {
    throw std::invalid_argument("GbsController: c_speedup must exceed 1");
  }
}

bool GbsController::saturated() const {
  const double speedup_cap =
      config_.speedup_cap_frac * static_cast<double>(config_.dataset_size);
  return static_cast<double>(gbs_) > speedup_cap;
}

std::size_t GbsController::tick() {
  if (!config_.enabled) {
    ++ticks_;
    return gbs_;
  }
  const double warmup_cap =
      config_.warmup_cap_frac * static_cast<double>(config_.dataset_size);
  const double speedup_cap =
      config_.speedup_cap_frac * static_cast<double>(config_.dataset_size);
  if (in_warmup()) {
    // Arithmetic progression, stop once above the 1% cap.
    if (static_cast<double>(gbs_) <= warmup_cap) {
      gbs_ += config_.c_warmup;
    }
  } else {
    // Geometric progression, stop once above the 10% cap.
    if (static_cast<double>(gbs_) <= speedup_cap) {
      gbs_ = static_cast<std::size_t>(
          std::llround(static_cast<double>(gbs_) * config_.c_speedup));
    }
  }
  ++ticks_;
  return gbs_;
}

}  // namespace dlion::core
