// End-to-end training determinism: the weights after K SGD steps on the
// cipher CNN must be bit-identical regardless of the thread-pool size and
// of whether the GEMM fan-out is enabled. This is the model-level half of
// the GEMM determinism contract (see tensor/gemm_conformance_test.cpp for
// the kernel-level half), and what lets DLION_THREADS be a pure wall-clock
// knob for experiments. A pinned MobileNet-20 golden catches any numeric
// drift in the conv path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/model_zoo.h"
#include "tensor/ops.h"

namespace dlion::nn {
namespace {

std::vector<float> train_weights(int steps) {
  common::Rng rng(17);
  auto bm = make_cipher_cnn(rng);
  const std::size_t batch = 8;
  tensor::Tensor images(tensor::Shape{batch, 1, 28, 28});
  std::vector<std::int32_t> labels(batch);
  for (auto& x : images.span()) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(rng.uniform_int(0, 9));
  }
  for (int i = 0; i < steps; ++i) {
    bm.model.compute_gradients(images, labels);
    bm.model.sgd_step(0.05f);
  }
  std::vector<float> flat;
  for (auto* var : bm.model.variables()) {
    const auto s = var->value().span();
    flat.insert(flat.end(), s.begin(), s.end());
  }
  return flat;
}

void expect_same_weights(const std::vector<float>& a,
                         const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

TEST(TrainDeterminism, BitIdenticalAcrossThreadPoolSizes) {
  constexpr int kSteps = 3;
  common::ThreadPool::reset_global_for_testing(1);
  const auto serial = train_weights(kSteps);
  common::ThreadPool::reset_global_for_testing(4);
  const auto four = train_weights(kSteps);
  common::ThreadPool::reset_global_for_testing(0);  // pool default
  const auto pool_default = train_weights(kSteps);
  expect_same_weights(serial, four, "1 vs 4 threads");
  expect_same_weights(serial, pool_default, "1 vs default threads");
}

TEST(TrainDeterminism, BitIdenticalWithGemmFanOutDisabled) {
  constexpr int kSteps = 2;
  const bool prev = tensor::set_gemm_parallel(false);
  const auto serial = train_weights(kSteps);
  tensor::set_gemm_parallel(true);
  const auto pooled = train_weights(kSteps);
  tensor::set_gemm_parallel(prev);
  expect_same_weights(serial, pooled, "gemm fan-out off vs on");
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// FNV-1a over every bit of a MobileNet-20 run on 12x12 images: three SGD
// steps (batch 32), then an evaluation (batch 256). Hashes each step's loss
// and gradients, the evaluation's loss and accuracy, and the final weights.
std::uint64_t mobilenet_trajectory_hash() {
  common::Rng rng(23);
  BuiltModel bm = make_model("mobilenet-20", rng);
  std::uint64_t h = 14695981039346656037ULL;
  auto batch = [&rng](std::size_t n, tensor::Tensor& images,
                      std::vector<std::int32_t>& labels) {
    images = tensor::Tensor(tensor::Shape{n, 3, 12, 12});
    for (float& x : images.span()) x = static_cast<float>(rng.normal());
    labels.resize(n);
    for (auto& l : labels) {
      l = static_cast<std::int32_t>(rng.uniform_int(0, 19));
    }
  };
  tensor::Tensor images;
  std::vector<std::int32_t> labels;
  for (int step = 0; step < 3; ++step) {
    batch(32, images, labels);
    const LossResult res = bm.model.compute_gradients(images, labels);
    h = fnv1a(&res.loss, sizeof res.loss, h);
    for (const Variable* v : bm.model.variables()) {
      h = fnv1a(v->grad().data(), v->size() * sizeof(float), h);
    }
    bm.model.sgd_step(0.05f);
  }
  batch(256, images, labels);
  const LossResult eval = bm.model.evaluate(images, labels);
  h = fnv1a(&eval.loss, sizeof eval.loss, h);
  h = fnv1a(&eval.accuracy, sizeof eval.accuracy, h);
  for (const Variable* v : bm.model.variables()) {
    h = fnv1a(v->value().data(), v->size() * sizeof(float), h);
  }
  return h;
}

// Recorded before the depthwise kernel, the pointwise shortcut and the
// cache-free evaluation forward replaced the scalar layers; all three keep
// every bit. Every GEMM of the run stays below the packing cutoff (the
// 256 x 20 x 96 classifier forward is the largest), so the hash holds on
// every ISA and under both DLION_GEMM_KERNEL values (CI's sanitizer job
// runs it once per kernel).
constexpr std::uint64_t kMobileNetGolden = 0x9e5034feadfb03bbULL;

TEST(TrainDeterminism, MobileNet20MatchesPinnedGolden) {
  common::ThreadPool::reset_global_for_testing(1);
  const std::uint64_t serial = mobilenet_trajectory_hash();
  common::ThreadPool::reset_global_for_testing(4);
  const std::uint64_t four = mobilenet_trajectory_hash();
  common::ThreadPool::reset_global_for_testing(0);
  EXPECT_EQ(serial, kMobileNetGolden)
      << std::hex << "0x" << serial << " under " << tensor::gemm_kernel_name();
  EXPECT_EQ(four, kMobileNetGolden) << std::hex << "0x" << four;
}

}  // namespace
}  // namespace dlion::nn
