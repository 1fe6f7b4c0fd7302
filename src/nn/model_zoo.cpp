#include "nn/model_zoo.h"

#include <memory>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"

namespace dlion::nn {

namespace {
// Nominal profiles from the paper (§5.1.1): Cipher is 5 MB, MobileNet 17 MB.
// FLOPs-per-sample values are representative forward+backward costs used by
// the simulator's compute model; see sim/compute_model.h for calibration.
constexpr std::uint64_t kCipherBytes = 5'000'000;
constexpr double kCipherFlops = 30e6;
constexpr std::uint64_t kMobileNetBytes = 17'000'000;
constexpr double kMobileNetFlops = 1.7e9;
}  // namespace

BuiltModel make_cipher_cnn(common::Rng& rng) {
  BuiltModel bm;
  // 28x28x1 -> conv5x5(10) -> pool2 -> conv5x5(20) -> pool2 -> conv3x3(100)
  // -> flatten -> FC 200 -> FC 10. Matches the paper's "3 convolutional and
  // 2 fully-connected layers ... 10, 20, 100 kernels and 200 neurons".
  // ReLUs are fused into the preceding conv/dense layers (bit-identical to
  // separate layers; see Dense/Conv2D fuse_relu docs).
  bm.model
      .add(std::make_unique<Conv2D>("conv1", 1, 10, 5, 1, 2, /*fuse_relu=*/true))
      .add(std::make_unique<MaxPool2D>(2))
      .add(std::make_unique<Conv2D>("conv2", 10, 20, 5, 1, 2,
                                    /*fuse_relu=*/true))
      .add(std::make_unique<MaxPool2D>(2))
      .add(std::make_unique<Conv2D>("conv3", 20, 100, 3, 1, 1,
                                    /*fuse_relu=*/true))
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>("fc1", 100 * 7 * 7, 200, /*fuse_relu=*/true))
      .add(std::make_unique<Dense>("fc2", 200, 10));
  bm.model.init(rng);
  bm.profile = {"cipher", kCipherBytes, kCipherFlops, 1, 28, 28, 10};
  return bm;
}

BuiltModel make_cipher_lite(common::Rng& rng) {
  BuiltModel bm;
  bm.model.add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>("fc1", 64, 64, /*fuse_relu=*/true))
      .add(std::make_unique<Dense>("fc2", 64, 48, /*fuse_relu=*/true))
      .add(std::make_unique<Dense>("fc3", 48, 10));
  bm.model.init(rng);
  // Lite math, Cipher-scale simulated cost profile.
  bm.profile = {"cipher-lite", kCipherBytes, kCipherFlops, 1, 8, 8, 10};
  return bm;
}

namespace {
void add_separable_block(Model& model, const std::string& name,
                         std::size_t in_c, std::size_t out_c,
                         std::size_t stride) {
  // Both convs apply their ReLU themselves: DepthwiseConv2D always does,
  // and the pointwise (1x1, stride 1, pad 0) conv fuses it. The pointwise
  // conv's GEMMs read its input in place instead of through im2col.
  model.add(std::make_unique<DepthwiseConv2D>(name + "/dw", in_c, 3, stride, 1))
      .add(std::make_unique<Conv2D>(name + "/pw", in_c, out_c, 1, 1, 0,
                                    /*fuse_relu=*/true));
}
}  // namespace

BuiltModel make_mobilenet_lite(common::Rng& rng, std::size_t classes) {
  BuiltModel bm;
  // Stem + 4 depthwise-separable blocks + GAP + classifier. Channel widths
  // are kept narrow so default-scale benches stay cheap in wall-clock time;
  // the simulator charges MobileNet's nominal 17 MB / ImageNet-scale FLOPs
  // regardless (see ModelProfile).
  bm.model.add(
      std::make_unique<Conv2D>("stem", 3, 12, 3, 2, 1, /*fuse_relu=*/true));
  add_separable_block(bm.model, "block1", 12, 24, 1);
  add_separable_block(bm.model, "block2", 24, 48, 2);
  add_separable_block(bm.model, "block3", 48, 48, 1);
  add_separable_block(bm.model, "block4", 48, 96, 2);
  bm.model.add(std::make_unique<GlobalAvgPool>())
      .add(std::make_unique<Dense>("classifier", 96, classes));
  bm.model.init(rng);
  bm.profile = {"mobilenet", kMobileNetBytes, kMobileNetFlops, 3, 32, 32,
                classes};
  return bm;
}

BuiltModel make_logistic_regression(common::Rng& rng, std::size_t features,
                                    std::size_t classes) {
  BuiltModel bm;
  bm.model.add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>("linear", features, classes));
  bm.model.init(rng);
  bm.profile = {"logreg",
                static_cast<std::uint64_t>(4 * features * classes),
                static_cast<double>(6 * features * classes),
                1,
                1,
                features,
                classes};
  return bm;
}

BuiltModel make_mlp(common::Rng& rng, std::size_t in, std::size_t hidden,
                    std::size_t classes) {
  BuiltModel bm;
  bm.model.add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>("fc1", in, hidden, /*fuse_relu=*/true))
      .add(std::make_unique<Dense>("fc2", hidden, hidden, /*fuse_relu=*/true))
      .add(std::make_unique<Dense>("fc3", hidden, classes));
  bm.model.init(rng);
  bm.profile = {"mlp",
                static_cast<std::uint64_t>(
                    4 * (in * hidden + hidden * hidden + hidden * classes)),
                static_cast<double>(
                    6 * (in * hidden + hidden * hidden + hidden * classes)),
                1,
                1,
                in,
                classes};
  return bm;
}

BuiltModel make_model(const std::string& name, common::Rng& rng) {
  if (name == "cipher") return make_cipher_cnn(rng);
  if (name == "cipher-lite") return make_cipher_lite(rng);
  if (name == "mobilenet") return make_mobilenet_lite(rng);
  if (name == "mobilenet-20") return make_mobilenet_lite(rng, 20);
  if (name == "logreg") return make_logistic_regression(rng, 16, 4);
  if (name == "mlp") return make_mlp(rng, 64, 64, 10);
  throw std::invalid_argument("make_model: unknown model '" + name + "'");
}

}  // namespace dlion::nn
