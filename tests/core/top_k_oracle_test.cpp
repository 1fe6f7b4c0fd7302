// Bit-exact oracle tests for the top-k selectors. select_top_k_mags finds
// the k-th largest magnitude and keeps entries by threshold; these tests pin
// it, select_top_k and equivalent_n to a naive full sort by (|g| descending,
// index ascending) and to reference_select_top_k_mags, the routine the
// threshold pass replaced. Inputs with NaN magnitudes have no such order;
// there the selectors must reproduce the reference route exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "comm/payload.h"
#include "common/rng.h"
#include "core/gradient_select.h"

namespace dlion::core {
namespace {

enum class Kind {
  kNormal,
  kHeavyTies,
  kAllEqual,
  kSignedZeros,
  kSubnormals,
  kInfinities,
  kNaN,
};

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kNormal: return "normal";
    case Kind::kHeavyTies: return "heavy-ties";
    case Kind::kAllEqual: return "all-equal";
    case Kind::kSignedZeros: return "signed-zeros";
    case Kind::kSubnormals: return "subnormals";
    case Kind::kInfinities: return "infinities";
    case Kind::kNaN: return "nan";
  }
  return "?";
}

std::vector<float> make_input(Kind kind, std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto sign = [&rng] { return rng.uniform() < 0.5 ? -1.0f : 1.0f; };
  std::vector<float> g(n);
  for (auto& x : g) {
    const double u = rng.uniform();
    switch (kind) {
      case Kind::kNormal:
        x = static_cast<float>(rng.normal(0.0, 0.5));
        break;
      case Kind::kHeavyTies: {
        static constexpr float kLevels[] = {0.125f, 0.25f, 0.5f, 1.0f};
        x = sign() * kLevels[rng.uniform_int(0, 3)];
        break;
      }
      case Kind::kAllEqual:
        x = sign() * 0.75f;
        break;
      case Kind::kSignedZeros:
        x = u < 0.7 ? sign() * 0.0f : static_cast<float>(rng.normal());
        break;
      case Kind::kSubnormals:
        x = u < 0.6 ? sign() * std::numeric_limits<float>::denorm_min() *
                          static_cast<float>(rng.uniform_int(1, 1 << 22))
            : u < 0.8 ? sign() * 0.0f
                      : static_cast<float>(rng.normal(0.0, 1e-37));
        break;
      case Kind::kInfinities:
        x = u < 0.05 ? sign() * std::numeric_limits<float>::infinity()
                     : static_cast<float>(rng.normal());
        break;
      case Kind::kNaN:
        x = u < 0.05 ? sign() * std::numeric_limits<float>::quiet_NaN()
                     : static_cast<float>(rng.normal());
        break;
    }
  }
  if (kind == Kind::kNaN && n > 0) {
    g[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(n) - 1))] =
        std::numeric_limits<float>::quiet_NaN();
  }
  return g;
}

std::vector<float> mags_of(std::span<const float> grad) {
  std::vector<float> mags;
  magnitudes(grad, mags);
  return mags;
}

std::vector<std::uint32_t> bits_of(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return out;
}

/// What a top-k selection must produce.
struct Expected {
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  float kth_mag = -1.0f;  ///< untouched (the sentinel) for k = 0 or k >= n
};

/// The naive oracle for NaN-free input: sort every index by (|g|
/// descending, index ascending), keep the first k, emit them by index.
Expected full_sort(std::span<const float> grad, std::size_t k) {
  Expected e;
  if (k >= grad.size()) {
    e.values.assign(grad.begin(), grad.end());
    return e;
  }
  if (k == 0) return e;
  std::vector<std::uint32_t> order(grad.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const float fa = std::fabs(grad[a]), fb = std::fabs(grad[b]);
    if (fa != fb) return fa > fb;
    return a < b;
  });
  e.kth_mag = std::fabs(grad[order[k - 1]]);
  e.indices.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(e.indices.begin(), e.indices.end());
  for (std::uint32_t i : e.indices) e.values.push_back(grad[i]);
  return e;
}

Expected from_vg(const comm::VariableGrad& v, float kth_mag = -1.0f) {
  Expected e;
  e.indices.assign(v.indices.span().begin(), v.indices.span().end());
  e.values.assign(v.values.span().begin(), v.values.span().end());
  e.kth_mag = kth_mag;
  return e;
}

/// Run a selector that reports kth_mag through the pointer it is given.
template <typename Select>
Expected with_kth(Select select) {
  float kth = -1.0f;
  const comm::VariableGrad v = select(&kth);
  return from_vg(v, kth);
}

void expect_same(const Expected& want, const Expected& got,
                 const std::string& what) {
  EXPECT_EQ(want.indices, got.indices) << what;
  EXPECT_EQ(bits_of(want.values), bits_of(got.values)) << what;
  EXPECT_EQ(std::bit_cast<std::uint32_t>(want.kth_mag),
            std::bit_cast<std::uint32_t>(got.kth_mag))
      << what;
}

/// equivalent_n before the threshold pass: nth_element on the magnitudes.
double reference_equivalent_n(std::span<const float> grad, std::size_t k) {
  if (grad.empty() || k >= grad.size()) return 100.0;
  if (k == 0) return 0.0;
  std::vector<float> mags;
  const float mx = magnitudes(grad, mags);
  if (mx == 0.0f) return 100.0;
  std::nth_element(mags.begin(),
                   mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   mags.end(), std::greater<>());
  return equivalent_n_from_threshold(mx, mags[k - 1]);
}

std::vector<std::size_t> test_sizes() {
  return {1, 2, 10, 15, 16, 17, 48, 64, 480, 3072, 4096, 5000};
}

std::vector<std::size_t> test_ks(std::size_t n) {
  std::vector<std::size_t> ks = {0, 1, 2, n / 20, n / 2, n - 1, n};
  std::erase_if(ks, [n](std::size_t k) { return k > n; });
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

/// Every top-k selector on (grad, k) must equal `want`; equivalent_n must
/// equal `want_n`, bit for bit.
void check_selectors(std::span<const float> grad, std::size_t k,
                     const Expected& want, double want_n,
                     const std::string& what) {
  const std::vector<float> mags = mags_of(grad);
  comm::PayloadArena arena;
  comm::PayloadWriter writer(arena);

  expect_same(want, with_kth([&](float* kth) {
                return select_top_k_mags(grad, mags, 3, k, kth);
              }),
              what + " select_top_k_mags");
  expect_same(want, with_kth([&](float* kth) {
                return select_top_k_mags(grad, mags, 3, k, writer, kth);
              }),
              what + " select_top_k_mags/writer");
  expect_same(want, with_kth([&](float* kth) {
                return reference_select_top_k_mags(grad, mags, 3, k, kth);
              }),
              what + " reference_select_top_k_mags");

  Expected no_kth = want;
  no_kth.kth_mag = -1.0f;
  expect_same(no_kth, from_vg(select_top_k(grad, 3, k)),
              what + " select_top_k");
  expect_same(no_kth, from_vg(select_top_k(grad, 3, k, writer)),
              what + " select_top_k/writer");

  const double n = equivalent_n(grad, k);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want_n), std::bit_cast<std::uint64_t>(n))
      << what << " equivalent_n " << want_n << " vs " << n;
}

TEST(TopKOracle, MatchesFullSortAndReference) {
  int cases = 0;
  for (Kind kind : {Kind::kNormal, Kind::kHeavyTies, Kind::kAllEqual,
                    Kind::kSignedZeros, Kind::kSubnormals, Kind::kInfinities}) {
    for (std::size_t n : test_sizes()) {
      const std::vector<float> grad =
          make_input(kind, n, n * 131 + static_cast<std::uint64_t>(kind));
      for (std::size_t k : test_ks(n)) {
        const std::string what = std::string(kind_name(kind)) +
                                 " n=" + std::to_string(n) +
                                 " k=" + std::to_string(k);
        const Expected want = full_sort(grad, k);
        double want_n = 100.0;
        if (k == 0) {
          want_n = 0.0;
        } else if (k < n) {
          float mx = 0.0f;
          for (float x : grad) mx = std::max(mx, std::fabs(x));
          if (mx != 0.0f) want_n = equivalent_n_from_threshold(mx, want.kth_mag);
        }
        check_selectors(grad, k, want, want_n, what);
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 300);
}

TEST(TopKOracle, TiesGoToTheLowestIndices) {
  // Nine entries share the k-th magnitude; the selection takes the ones at
  // the lowest indices.
  for (std::size_t n : {std::size_t{64}, std::size_t{4096}}) {
    std::vector<float> grad(n, 0.1f);
    for (std::size_t i = 0; i < 9; ++i) grad[n - 1 - 7 * i] = -0.5f;
    grad[n / 2] = 2.0f;
    const Expected want = full_sort(grad, 5);
    std::vector<std::uint32_t> lowest;
    for (std::size_t i : {n / 2, n - 57, n - 50, n - 43, n - 36}) {
      lowest.push_back(static_cast<std::uint32_t>(i));
    }
    std::sort(lowest.begin(), lowest.end());
    ASSERT_EQ(want.indices, lowest);
    check_selectors(grad, 5, want, reference_equivalent_n(grad, 5),
                    "ties n=" + std::to_string(n));
  }
}

TEST(TopKOracle, NanInputsMatchTheReferenceRoute) {
  int nan_selected = 0;
  for (std::size_t n : test_sizes()) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const std::vector<float> grad = make_input(Kind::kNaN, n, seed * 977 + n);
      const std::vector<float> mags = mags_of(grad);
      for (std::size_t k : test_ks(n)) {
        const std::string what =
            "nan n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
            " k=" + std::to_string(k);
        const Expected want = with_kth([&](float* kth) {
          return reference_select_top_k_mags(grad, mags, 3, k, kth);
        });
        for (float v : want.values) nan_selected += std::isnan(v) ? 1 : 0;
        check_selectors(grad, k, want, reference_equivalent_n(grad, k), what);
      }
    }
  }
  // The reference's pick is arbitrary here, and often includes a NaN.
  EXPECT_GT(nan_selected, 0);
}

}  // namespace
}  // namespace dlion::core
