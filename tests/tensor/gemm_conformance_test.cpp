// Conformance and determinism suite for tensor::gemm.
//
// Below the packing cutoff gemm() must equal the naive reference
// (tensor::reference_gemm) bit for bit: the small-GEMM kernels are checked
// over every below-cutoff shape of the end-to-end benchmark's GEMM census
// plus an odd-shape grid, with operand kinds on both sides of the nn/tn
// kernels' guard (the reference's zero-skip is dropped only where it cannot
// change a bit), through gemm() and through the portable and (where the CPU
// has it) AVX2 instantiations directly. Above the cutoff the packed kernel
// accumulates in another order, so it is checked to a tolerance across all
// four transpose variants, odd shapes that exercise every edge-tile path of
// the blocking (m/n/k of 1, 3, tile +/- 1, and above the MC/KC/NC
// blocking), and alpha/beta edge cases. The determinism tests assert the
// contract documented in ops.h: results are bit-identical with the
// thread-pool fan-out on or off, and across thread-pool sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernel.h"
#include "tensor/gemm_ref.h"
#include "tensor/ops.h"

namespace dlion::tensor {
namespace {

std::vector<float> random_vec(std::size_t n, common::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Tolerance scaled to the dot-product length: the packed kernel and the
/// reference accumulate in different orders, so they agree to float
/// rounding, not bitwise.
double tol_for(std::size_t k) { return 1e-5 * static_cast<double>(k + 16); }

void expect_conformance(bool ta, bool tb, std::size_t m, std::size_t n,
                        std::size_t k, float alpha, float beta,
                        std::uint64_t seed) {
  common::Rng rng(seed);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);

  std::vector<float> c_packed = c0, c_ref = c0;
  gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c_packed.data());
  reference_gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
                 c_ref.data());
  const double tol = tol_for(k) * (std::abs(alpha) + std::abs(beta) + 1.0);
  for (std::size_t i = 0; i < c_packed.size(); ++i) {
    ASSERT_NEAR(c_packed[i], c_ref[i], tol)
        << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
        << " k=" << k << " alpha=" << alpha << " beta=" << beta << " i=" << i;
  }
}

class GemmConformance
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmConformance, OddShapesMatchReference) {
  const auto [ta, tb] = GetParam();
  // 1 and 3: degenerate panels. 5/7/9/15/17: around the 4x8 / 6x16 register
  // tiles. 121/127: above the MC=120 row blocking. 257: above KC=NC=256, so
  // the k- and n-loops take more than one block.
  const std::size_t dims[] = {1, 3, 5, 7, 9, 15, 17, 121};
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) {
        expect_conformance(ta, tb, m, n, k, 1.0f, 0.0f,
                           m * 10007 + n * 101 + k);
      }
    }
  }
}

TEST_P(GemmConformance, BlockingBoundariesMatchReference) {
  const auto [ta, tb] = GetParam();
  // Shapes straddling the MC/KC/NC cache blocking and forcing the packed
  // path past the small-problem cutoff.
  expect_conformance(ta, tb, 119, 64, 257, 1.0f, 0.0f, 11);
  expect_conformance(ta, tb, 121, 257, 64, 1.0f, 1.0f, 12);
  expect_conformance(ta, tb, 127, 255, 129, 1.0f, 0.0f, 13);
}

TEST_P(GemmConformance, AlphaBetaEdges) {
  const auto [ta, tb] = GetParam();
  const std::size_t m = 33, n = 65, k = 97;
  for (float alpha : {0.0f, 1.0f, 0.5f, -2.0f}) {
    for (float beta : {0.0f, 1.0f, 0.5f, -1.0f}) {
      expect_conformance(ta, tb, m, n, k, alpha, beta, 100 + ta * 2 + tb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmConformance,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// --- Bitwise conformance below the packing cutoff --------------------------

constexpr std::size_t kPackedCutoff = std::size_t{1} << 19;  // ops.cpp

struct Shape5 {
  int ta, tb;
  std::size_t m, n, k;
};

// Every below-cutoff (trans_a, trans_b, m, n, k) in the GEMM censuses of the
// four end-to-end workloads (bench/e2e/anchor): the cipher-lite dense layers
// at every local batch size and the MobileNet per-sample conv GEMMs.
constexpr Shape5 kCensusShapes[] = {
    {0, 0, 3, 10, 48}, {0, 0, 3, 48, 64}, {0, 0, 3, 64, 64},
    {0, 0, 9, 20, 96}, {0, 0, 10, 20, 96}, {0, 0, 12, 36, 27},
    {0, 0, 14, 10, 48}, {0, 0, 14, 48, 64}, {0, 0, 14, 64, 64},
    {0, 0, 24, 36, 12}, {0, 0, 27, 10, 48}, {0, 0, 27, 48, 64},
    {0, 0, 27, 64, 64}, {0, 0, 32, 10, 48}, {0, 0, 32, 20, 96},
    {0, 0, 32, 48, 64}, {0, 0, 32, 64, 64}, {0, 0, 46, 10, 48},
    {0, 0, 46, 48, 64}, {0, 0, 46, 64, 64}, {0, 0, 48, 9, 24},
    {0, 0, 48, 9, 48}, {0, 0, 55, 10, 48}, {0, 0, 55, 48, 64},
    {0, 0, 55, 64, 64}, {0, 0, 64, 10, 48}, {0, 0, 64, 48, 64},
    {0, 0, 64, 64, 64}, {0, 0, 77, 20, 96}, {0, 0, 96, 4, 48},
    {0, 0, 110, 10, 48}, {0, 0, 110, 48, 64}, {0, 0, 110, 64, 64},
    {0, 0, 128, 10, 48}, {0, 0, 128, 48, 64}, {0, 0, 144, 10, 48},
    {0, 0, 144, 48, 64}, {0, 0, 165, 10, 48}, {0, 0, 165, 48, 64},
    {0, 0, 177, 10, 48}, {0, 0, 177, 20, 96}, {0, 0, 187, 20, 96},
    {0, 0, 512, 10, 48}, {0, 1, 3, 48, 10}, {0, 1, 3, 64, 48},
    {0, 1, 3, 64, 64}, {0, 1, 9, 96, 20}, {0, 1, 10, 96, 20},
    {0, 1, 12, 27, 36}, {0, 1, 14, 48, 10}, {0, 1, 14, 64, 48},
    {0, 1, 14, 64, 64}, {0, 1, 24, 12, 36}, {0, 1, 27, 48, 10},
    {0, 1, 27, 64, 48}, {0, 1, 27, 64, 64}, {0, 1, 32, 48, 10},
    {0, 1, 32, 64, 48}, {0, 1, 32, 64, 64}, {0, 1, 32, 96, 20},
    {0, 1, 46, 48, 10}, {0, 1, 46, 64, 48}, {0, 1, 46, 64, 64},
    {0, 1, 48, 24, 9}, {0, 1, 48, 48, 9}, {0, 1, 55, 48, 10},
    {0, 1, 55, 64, 48}, {0, 1, 55, 64, 64}, {0, 1, 64, 48, 10},
    {0, 1, 64, 64, 48}, {0, 1, 64, 64, 64}, {0, 1, 77, 96, 20},
    {0, 1, 96, 48, 4}, {0, 1, 110, 48, 10}, {0, 1, 110, 64, 48},
    {0, 1, 110, 64, 64}, {0, 1, 128, 48, 10}, {0, 1, 128, 64, 48},
    {0, 1, 144, 48, 10}, {0, 1, 144, 64, 48}, {0, 1, 165, 48, 10},
    {0, 1, 165, 64, 48}, {0, 1, 177, 48, 10}, {0, 1, 177, 96, 20},
    {0, 1, 187, 96, 20}, {1, 0, 12, 36, 24}, {1, 0, 24, 9, 48},
    {1, 0, 27, 36, 12}, {1, 0, 48, 4, 96}, {1, 0, 48, 9, 48},
    {1, 0, 48, 10, 3}, {1, 0, 48, 10, 14}, {1, 0, 48, 10, 27},
    {1, 0, 48, 10, 32}, {1, 0, 48, 10, 46}, {1, 0, 48, 10, 55},
    {1, 0, 48, 10, 64}, {1, 0, 48, 10, 110}, {1, 0, 48, 10, 128},
    {1, 0, 48, 10, 144}, {1, 0, 48, 10, 165}, {1, 0, 48, 10, 177},
    {1, 0, 64, 48, 3}, {1, 0, 64, 48, 14}, {1, 0, 64, 48, 27},
    {1, 0, 64, 48, 32}, {1, 0, 64, 48, 46}, {1, 0, 64, 48, 55},
    {1, 0, 64, 48, 64}, {1, 0, 64, 48, 110}, {1, 0, 64, 48, 128},
    {1, 0, 64, 48, 144}, {1, 0, 64, 48, 165}, {1, 0, 64, 64, 3},
    {1, 0, 64, 64, 14}, {1, 0, 64, 64, 27}, {1, 0, 64, 64, 32},
    {1, 0, 64, 64, 46}, {1, 0, 64, 64, 55}, {1, 0, 64, 64, 64},
    {1, 0, 64, 64, 110}, {1, 0, 96, 20, 9}, {1, 0, 96, 20, 10},
    {1, 0, 96, 20, 32}, {1, 0, 96, 20, 77}, {1, 0, 96, 20, 177},
    {1, 0, 96, 20, 187},
};

constexpr float kAlphas[] = {1.0f, 0.5f, -2.0f};
constexpr float kBetas[] = {0.0f, 1.0f, 0.5f};

// Operand kinds. The nn/tn kernels add every term av * B(p,j), even where
// the reference skips av == 0, and that is exact only when B is finite and C
// holds no -0.0 (see gemm_small.inl); otherwise, and whenever alpha != 1,
// they decline and small_gemm runs the reference. Each kind exercises one
// side of that guard.
enum class Kind {
  // A holds +0.0 and -0.0 entries (the reference skips av == 0) and C
  // holds -0.0 (a dropped skip would turn it into +0.0).
  kMixedZeros,
  // The same, and B also holds +inf, -inf and NaN, so a dropped skip turns
  // 0 * inf into NaN.
  kMixedSpecials,
  // No zero in A, finite B, no -0.0 in C.
  kZeroFree,
  // ReLU-like A: about half +0.0 or -0.0, plus an all-zero row and an
  // all-zero column of op(A); finite B and no -0.0 in C. Every skipped term
  // adds +-0 to a C element that is not -0.0.
  kRelu,
  // kRelu with one +inf, -inf or NaN in B.
  kReluNonFiniteB,
  // kRelu with -0.0 in C and nowhere else.
  kReluNegZeroC,
};
constexpr Kind kKinds[] = {Kind::kMixedZeros,    Kind::kMixedSpecials,
                           Kind::kZeroFree,      Kind::kRelu,
                           Kind::kReluNonFiniteB, Kind::kReluNegZeroC};
constexpr std::size_t kNumKinds = sizeof(kKinds) / sizeof(kKinds[0]);

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kMixedZeros: return "mixed-zeros";
    case Kind::kMixedSpecials: return "mixed-specials";
    case Kind::kZeroFree: return "zero-free";
    case Kind::kRelu: return "relu";
    case Kind::kReluNonFiniteB: return "relu-nonfinite-b";
    case Kind::kReluNegZeroC: return "relu-negzero-c";
  }
  return "?";
}

struct Operands {
  std::vector<float> a, b, c;
};

Operands make_operands(const Shape5& s, Kind kind, std::uint64_t seed) {
  common::Rng rng(seed);
  const float kSpecial[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  Operands o{random_vec(s.m * s.k, rng), random_vec(s.k * s.n, rng),
             random_vec(s.m * s.n, rng)};
  // A(i,p) of op(A).
  const auto a_at = [&](std::size_t i, std::size_t p) -> float& {
    return s.ta ? o.a[p * s.m + i] : o.a[i * s.k + p];
  };
  switch (kind) {
    case Kind::kMixedZeros:
    case Kind::kMixedSpecials:
      for (auto& x : o.a) {
        const auto r = rng.uniform_int(0, 7);
        if (r == 0) x = 0.0f;
        if (r == 1) x = -0.0f;
      }
      for (auto& x : o.c) {
        if (rng.uniform_int(0, 3) == 0) x = -0.0f;
      }
      if (kind == Kind::kMixedSpecials) {
        for (auto& x : o.b) {
          if (rng.uniform_int(0, 31) == 0) x = kSpecial[rng.uniform_int(0, 2)];
        }
      }
      break;
    case Kind::kZeroFree:
      for (auto& x : o.a) {
        if (x == 0.0f) x = 1.0f;
      }
      break;
    case Kind::kRelu:
    case Kind::kReluNonFiniteB:
    case Kind::kReluNegZeroC:
      for (auto& x : o.a) {
        if (rng.uniform_int(0, 1) == 0) {
          x = rng.uniform_int(0, 1) == 0 ? 0.0f : -0.0f;
        }
      }
      for (std::size_t p = 0; p < s.k; ++p) a_at(s.m / 2, p) = 0.0f;
      for (std::size_t i = 0; i < s.m; ++i) a_at(i, s.k / 2) = -0.0f;
      if (kind == Kind::kReluNonFiniteB) {
        const auto last = static_cast<std::int64_t>(o.b.size()) - 1;
        o.b[static_cast<std::size_t>(rng.uniform_int(0, last))] =
            kSpecial[rng.uniform_int(0, 2)];
      }
      if (kind == Kind::kReluNegZeroC) {
        for (auto& x : o.c) {
          if (rng.uniform_int(0, 3) == 0) x = -0.0f;
        }
      }
      break;
  }
  return o;
}

// Whether the select-free nn/tn tiles may run: every B element finite and
// every C element (after beta) finite and not -0.0.
bool axpy_exact(const std::vector<float>& b, const std::vector<float>& c) {
  for (float x : b) {
    if (!std::isfinite(x)) return false;
  }
  for (float x : c) {
    if (!std::isfinite(x) || (x == 0.0f && std::signbit(x))) return false;
  }
  return true;
}

// Bitwise equality, except that any NaN matches any NaN: IEEE 754 leaves
// the sign and payload of a NaN result unspecified, and compilers commute
// the operands of + and * freely, which picks a different input NaN when
// both are NaN.
::testing::AssertionResult bits_equal(const std::vector<float>& got,
                                      const std::vector<float>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) == 0) continue;
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    return ::testing::AssertionFailure()
           << "element " << i << ": " << got[i] << " vs reference " << want[i];
  }
  return ::testing::AssertionSuccess();
}

// Runs gemm() and each small-GEMM instantiation on one problem and expects
// every result to equal reference_gemm bit for bit. Each kernel's own entry
// point must also take the select-free nn/tn tiles exactly when alpha == 1
// and the guard allows them, and leave C untouched when it declines.
void expect_bitwise(const Shape5& s, float alpha, float beta, Kind kind,
                    std::uint64_t seed) {
  ASSERT_LT(s.m * s.n * s.k, kPackedCutoff);
  const Operands o = make_operands(s, kind, seed);
  std::vector<float> want = o.c;
  reference_gemm(s.ta, s.tb, s.m, s.n, s.k, alpha, o.a.data(), o.b.data(),
                 beta, want.data());
  const auto where = [&] {
    return ::testing::Message()
           << "ta=" << s.ta << " tb=" << s.tb << " m=" << s.m << " n=" << s.n
           << " k=" << s.k << " alpha=" << alpha << " beta=" << beta
           << " kind=" << kind_name(kind);
  };

  std::vector<float> got = o.c;
  gemm(s.ta, s.tb, s.m, s.n, s.k, alpha, o.a.data(), o.b.data(), beta,
       got.data());
  EXPECT_TRUE(bits_equal(got, want)) << "gemm() " << where();

  // small_gemm expects beta already applied, as gemm() does.
  std::vector<float> scaled = o.c;
  for (float& x : scaled) x = beta == 0.0f ? 0.0f : x * beta;
  const bool exact = axpy_exact(o.b, scaled);
  if (kind == Kind::kZeroFree || kind == Kind::kRelu) {
    ASSERT_TRUE(exact) << where();
  }
  if (kind == Kind::kReluNonFiniteB) {
    ASSERT_FALSE(exact) << where();
  }

  const detail::MicroKernel* kernels[] = {
      &detail::portable_micro_kernel(), detail::supported_avx2_micro_kernel()};
  for (const detail::MicroKernel* kernel : kernels) {
    if (kernel == nullptr) continue;
    const std::size_t strip = kernel->small.strip;
    std::vector<float> panel((std::max(s.m, s.n) + strip - 1) / strip * strip *
                             s.k);
    got = scaled;
    const bool ran = kernel->small.gemm(s.ta, s.tb, s.m, s.n, s.k, alpha,
                                        o.a.data(), o.b.data(), got.data(),
                                        panel.data());
    EXPECT_EQ(ran, s.tb || (alpha == 1.0f && exact))
        << kernel->name << " " << where();
    EXPECT_TRUE(bits_equal(got, ran ? want : scaled))
        << kernel->name << " kernel " << where();

    got = scaled;
    detail::small_gemm(*kernel, s.ta, s.tb, s.m, s.n, s.k, alpha, o.a.data(),
                       o.b.data(), got.data());
    EXPECT_TRUE(bits_equal(got, want)) << kernel->name << " " << where();
  }
}

TEST(GemmBitwise, CensusShapesMatchReference) {
  std::uint64_t seed = 1;
  for (const Shape5& s : kCensusShapes) {
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        for (Kind kind : kKinds) {
          expect_bitwise(s, alpha, beta, kind, seed++);
        }
      }
    }
  }
}

TEST_P(GemmConformance, OddShapesBitwiseBelowCutoff) {
  const auto [ta, tb] = GetParam();
  // Every tile edge of both lane orientations: 1..17 straddle the 4-line
  // tiles and the 8/16-wide strips, 121 spans many strips.
  const std::size_t dims[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 121};
  std::size_t index = 0;
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) {
        if (m * n * k >= kPackedCutoff) continue;
        const Shape5 s{ta, tb, m, n, k};
        const float alpha = kAlphas[index % 3];
        const float beta = kBetas[(index / 3) % 3];
        // The cycled call may go to the reference (alpha != 1, or operands
        // the guard rejects); the kRelu call at alpha 1 always passes the
        // guard, so every shape reaches the nn/tn tiles.
        expect_bitwise(s, 1.0f, beta, Kind::kRelu, 2 * index);
        expect_bitwise(s, alpha, beta, kKinds[(index / 9) % kNumKinds],
                       2 * index + 1);
        ++index;
      }
    }
  }
}

TEST(GemmConformance, KZeroScalesByBeta) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// --- Determinism -----------------------------------------------------------

std::vector<float> run_gemm_once(std::size_t m, std::size_t n, std::size_t k,
                                 bool ta, bool tb) {
  common::Rng rng(99);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(m * n, 0.25f);
  gemm(ta, tb, m, n, k, 1.0f, a.data(), b.data(), 1.0f, c.data());
  return c;
}

TEST(GemmDeterminism, SerialAndPooledBitIdentical) {
  // Large enough to clear both the packed-path and the parallel cutoffs.
  const std::size_t m = 320, n = 192, k = 288;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const bool prev = set_gemm_parallel(false);
      const auto serial = run_gemm_once(m, n, k, ta, tb);
      set_gemm_parallel(true);
      const auto pooled = run_gemm_once(m, n, k, ta, tb);
      set_gemm_parallel(prev);
      ASSERT_EQ(0, std::memcmp(serial.data(), pooled.data(),
                               serial.size() * sizeof(float)))
          << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(GemmDeterminism, BitIdenticalAcrossThreadCounts) {
  const std::size_t m = 320, n = 192, k = 288;
  std::vector<float> baseline;
  for (std::size_t total_threads : {1u, 2u, 4u}) {
    common::ThreadPool::reset_global_for_testing(total_threads);
    const auto c = run_gemm_once(m, n, k, false, false);
    if (baseline.empty()) {
      baseline = c;
    } else {
      ASSERT_EQ(0, std::memcmp(baseline.data(), c.data(),
                               c.size() * sizeof(float)))
          << "threads=" << total_threads;
    }
  }
  common::ThreadPool::reset_global_for_testing(0);  // restore default
}

TEST(GemmDeterminism, RepeatRunsIdentical) {
  const auto c1 = run_gemm_once(130, 257, 70, false, false);
  const auto c2 = run_gemm_once(130, 257, 70, false, false);
  ASSERT_EQ(0,
            std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

TEST(GemmKernel, NameIsReported) {
  const char* name = gemm_kernel_name();
  ASSERT_NE(name, nullptr);
  EXPECT_GT(std::strlen(name), 0u);
}

}  // namespace
}  // namespace dlion::tensor
