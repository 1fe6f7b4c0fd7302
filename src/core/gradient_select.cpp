#include "core/gradient_select.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "tensor/ops.h"

namespace dlion::core {

namespace {
void check_n(double n) {
  if (!(n > 0.0) || n > 100.0) {
    throw std::invalid_argument("Max N: N must be in (0, 100]");
  }
}

/// Thread-local buffers shared by all selectors: the (indices, values)
/// staging vectors, the top-k search's histogram and, for the selectors that
/// take no magnitudes, the magnitudes. The top-k search keeps its candidate
/// bit patterns in `idx` until the selected indices replace them.
/// Selection runs here, then the result is packed into payload storage in
/// one production write - steady-state selection touches the heap only
/// until the workspace capacity has warmed up.
struct SelectWorkspace {
  std::vector<std::uint32_t> idx;
  std::vector<float> vals;
  std::vector<float> mags;
  std::array<std::uint32_t, 2048> hist{};

  static SelectWorkspace& tls() {
    thread_local SelectWorkspace ws;
    return ws;
  }
};

/// Pack the staged selection into `v`: through the caller's writer (arena
/// block) when one is given, into a standalone exact-size block otherwise.
void emit_selection(comm::VariableGrad& v,
                    std::span<const std::uint32_t> idx,
                    std::span<const float> vals, comm::PayloadWriter* writer) {
  if (writer != nullptr) {
    v.indices = writer->copy(idx);
    v.values = writer->copy(vals);
  } else {
    v.indices = comm::make_payload(idx);
    v.values = comm::make_payload(vals);
  }
}

comm::VariableGrad dense_grad_impl(std::span<const float> grad,
                                   std::uint32_t var_index,
                                   comm::PayloadWriter* writer) {
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  v.values = writer != nullptr ? writer->copy(grad) : comm::make_payload(grad);
  return v;
}

/// Drop candidate (index, value) pairs whose magnitude fell below `thr`
/// after the running max rose. Order-preserving in-place filter.
void compact_candidates(std::vector<std::uint32_t>& idx,
                        std::vector<float>& vals, double thr) {
  std::size_t kept = 0;
  for (std::size_t j = 0; j < vals.size(); ++j) {
    if (static_cast<double>(std::fabs(vals[j])) >= thr) {
      idx[kept] = idx[j];
      vals[kept] = vals[j];
      ++kept;
    }
  }
  idx.resize(kept);
  vals.resize(kept);
}
}  // namespace

double max_n_threshold(double n, float max_abs) {
  check_n(n);
  return (1.0 - n / 100.0) * static_cast<double>(max_abs);
}

namespace {
comm::VariableGrad select_max_n_impl(std::span<const float> grad,
                                     std::uint32_t var_index, double n,
                                     comm::PayloadWriter* writer) {
  check_n(n);
  if (n == 100.0) return dense_grad_impl(grad, var_index, writer);
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  if (grad.empty()) return v;

  // Single fused pass: track the running max-abs and collect candidates
  // against the threshold it implies so far. The threshold only grows as
  // the max grows, so the candidate set is always a superset of the final
  // selection; stale candidates are pruned lazily (when the buffer doubles
  // past its last compaction) and once more at the end against the final
  // threshold. This selects exactly the entries the two-pass version did -
  // same threshold arithmetic, same index order - in one traversal.
  const double keep = 1.0 - n / 100.0;
  float running_max = 0.0f;
  double thr = 0.0;
  SelectWorkspace& ws = SelectWorkspace::tls();
  auto& idx = ws.idx;
  auto& vals = ws.vals;
  idx.clear();
  vals.clear();
  std::size_t compact_limit = 256;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float g = grad[i];
    const float mag = std::fabs(g);
    if (mag > running_max) {
      running_max = mag;
      thr = keep * static_cast<double>(running_max);
    }
    if (static_cast<double>(mag) >= thr) {
      idx.push_back(static_cast<std::uint32_t>(i));
      vals.push_back(g);
      if (idx.size() >= compact_limit) {
        compact_candidates(idx, vals, thr);
        compact_limit = std::max<std::size_t>(256, idx.size() * 2);
      }
    }
  }
  compact_candidates(idx, vals, thr);
  emit_selection(v, idx, vals, writer);
  return v;
}
}  // namespace

comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n) {
  return select_max_n_impl(grad, var_index, n, nullptr);
}

comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n,
                                comm::PayloadWriter& writer) {
  return select_max_n_impl(grad, var_index, n, &writer);
}

comm::VariableGrad dense_grad(std::span<const float> grad,
                              std::uint32_t var_index) {
  return dense_grad_impl(grad, var_index, nullptr);
}

comm::VariableGrad dense_grad(std::span<const float> grad,
                              std::uint32_t var_index,
                              comm::PayloadWriter& writer) {
  return dense_grad_impl(grad, var_index, &writer);
}

std::size_t count_max_n(std::span<const float> grad, double n) {
  check_n(n);
  if (n == 100.0) return grad.size();
  const float mx = tensor::max_abs(grad);
  const double thr = max_n_threshold(n, mx);
  // Branchless comparison loop: vectorizes cleanly (compare + widen + add).
  std::size_t count = 0;
  const float* __restrict p = grad.data();
  const std::size_t size = grad.size();
  for (std::size_t i = 0; i < size; ++i) {
    count += static_cast<double>(std::fabs(p[i])) >= thr ? 1u : 0u;
  }
  return count;
}

float magnitudes(std::span<const float> grad, std::vector<float>& mags) {
  mags.resize(grad.size());
  const float* __restrict src = grad.data();
  float* __restrict dst = mags.data();
  float mx = 0.0f;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float m = std::fabs(src[i]);
    dst[i] = m;
    mx = m > mx ? m : mx;
  }
  return mx;
}

std::size_t count_max_n_mags(std::span<const float> mags, float max_abs,
                             double n) {
  check_n(n);
  if (n == 100.0) return mags.size();
  const double thr = max_n_threshold(n, max_abs);
  std::size_t count = 0;
  const float* __restrict p = mags.data();
  const std::size_t size = mags.size();
  for (std::size_t i = 0; i < size; ++i) {
    count += static_cast<double>(p[i]) >= thr ? 1u : 0u;
  }
  return count;
}

namespace {
/// Bit pattern of +inf. A non-negative float that is not NaN has a pattern
/// at most this, and such floats order like their patterns, so the
/// selection can compare magnitudes as unsigned integers.
constexpr std::uint32_t kInfBits = 0x7F800000u;

std::uint32_t mag_bits(float m) { return std::bit_cast<std::uint32_t>(m); }

template <typename T>
T* at_least(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// Where the k-th largest magnitude lies: its bit pattern, and how many of
/// the entries equal to it are among the first k in (|g| descending, index
/// ascending) order.
struct KthMag {
  std::uint32_t bits = 0;
  std::size_t ties = 0;
};

/// Walk `hist` down from bucket `top` to the bucket holding the `rank`-th
/// largest key (1-based), leaving in `rank` the key's rank inside it.
std::uint32_t walk_down(const std::uint32_t* hist, std::uint32_t top,
                        std::size_t& rank) {
  std::uint32_t d = top;
  while (hist[d] < rank) rank -= hist[d--];
  return d;
}

/// Where the k-th largest of `mags` lies, for 0 < k <= mags.size(), found
/// by a radix select over the magnitudes' bit patterns. Level one histograms
/// bits 30..20 (exponent and three mantissa bits) over all n; the entries in
/// the bucket holding the k-th largest are gathered, and three more levels
/// (bits 19..12, 11..4, 3..0) narrow them to one pattern. The rank left over
/// by the last walk is the number of ties to take. Returns false, after the
/// first pass, when a magnitude is NaN (or negative): those have no order
/// to select by.
bool kth_largest(std::span<const float> mags, std::size_t k,
                 SelectWorkspace& ws, KthMag& out) {
  std::uint32_t* hist = ws.hist.data();
  std::fill_n(hist, ws.hist.size(), 0u);
  const float* __restrict m = mags.data();
  const std::size_t n = mags.size();
  std::uint32_t max_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = mag_bits(m[i]);
    ++hist[(b >> 20) & 0x7FFu];  // the mask only matters for a set sign bit
    max_bits = b > max_bits ? b : max_bits;
  }
  if (max_bits > kInfBits) return false;
  std::size_t rank = k;
  const std::uint32_t d1 = walk_down(hist, max_bits >> 20, rank);
  // The loop below writes one slot past the last candidate.
  std::uint32_t* __restrict cand = at_least(ws.idx, n + 1);
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = mag_bits(m[i]);
    cand[c] = b;
    c += (b >> 20) == d1;
  }
  std::uint32_t key = d1 << 20;
  constexpr struct { unsigned shift, mask; } kLevels[] = {
      {12, 0xFF}, {4, 0xFF}, {0, 0xF}};
  for (const auto& lv : kLevels) {
    std::fill_n(hist, lv.mask + 1, 0u);
    std::uint32_t top = 0;
    for (std::size_t j = 0; j < c; ++j) {
      const std::uint32_t d = (cand[j] >> lv.shift) & lv.mask;
      ++hist[d];
      top = d > top ? d : top;
    }
    const std::uint32_t d = walk_down(hist, top, rank);
    key |= d << lv.shift;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < c; ++j) {
      cand[kept] = cand[j];
      kept += ((cand[j] >> lv.shift) & lv.mask) == d;
    }
    c = kept;
  }
  out = {key, rank};
  return true;
}

/// Stage the top-k selection in ws.idx / ws.vals, by ascending index: one
/// branch-free pass keeps every entry above the k-th largest magnitude and
/// the first `ties` entries equal to it.
void gather_top_k(std::span<const float> grad, std::span<const float> mags,
                  std::size_t k, KthMag t, SelectWorkspace& ws) {
  // Every entry is written at the cursor before the cursor decides whether
  // to advance, so the buffers need one slot past the k kept entries.
  std::uint32_t* __restrict idx = at_least(ws.idx, k + 1);
  float* __restrict vals = at_least(ws.vals, k + 1);
  const float* __restrict g = grad.data();
  const float* __restrict m = mags.data();
  std::size_t ties = t.ties;
  std::size_t out = 0;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const std::uint32_t b = mag_bits(m[i]);
    const std::size_t tie = (b == t.bits) & (ties != 0);
    ties -= tie;
    idx[out] = static_cast<std::uint32_t>(i);
    vals[out] = g[i];
    out += (b > t.bits) | tie;
  }
}

/// The selection before the threshold pass, kept verbatim: an indirect
/// nth_element by (|g| descending, index ascending), then an index sort.
/// Stages the result in ws.idx / ws.vals.
void stage_reference_top_k(std::span<const float> grad,
                           std::span<const float> mags, std::size_t k,
                           float* kth_mag, SelectWorkspace& ws) {
  // Partial sort of indices by |g| descending, index ascending on ties.
  // The comparator reads the precomputed magnitudes: nth_element invokes it
  // O(n log n) times in the worst case, so hoisting fabs out of it matters.
  auto& idx = ws.idx;
  idx.resize(grad.size());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
  }
  const float* m = mags.data();
  auto cmp = [m](std::uint32_t a, std::uint32_t b) {
    const float fa = m[a], fb = m[b];
    if (fa != fb) return fa > fb;
    return a < b;
  };
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                   idx.end(), cmp);
  idx.resize(k);
  if (kth_mag != nullptr) {
    // The selected set holds the top-k magnitude multiset, so its minimum
    // is exactly the k-th largest magnitude (the effective threshold).
    float mn = m[idx[0]];
    for (std::uint32_t i : idx) mn = m[i] < mn ? m[i] : mn;
    *kth_mag = mn;
  }
  std::sort(idx.begin(), idx.end());
  auto& vals = ws.vals;
  vals.resize(k);
  for (std::size_t i = 0; i < k; ++i) vals[i] = grad[idx[i]];
}

comm::VariableGrad select_top_k_mags_impl(std::span<const float> grad,
                                          std::span<const float> mags,
                                          std::uint32_t var_index,
                                          std::size_t k, float* kth_mag,
                                          comm::PayloadWriter* writer,
                                          bool reference = false) {
  if (k >= grad.size()) return dense_grad_impl(grad, var_index, writer);
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  if (k == 0) return v;
  SelectWorkspace& ws = SelectWorkspace::tls();
  KthMag t;
  if (!reference && kth_largest(mags, k, ws, t)) {
    gather_top_k(grad, mags, k, t, ws);
    if (kth_mag != nullptr) *kth_mag = std::bit_cast<float>(t.bits);
  } else {
    stage_reference_top_k(grad, mags, k, kth_mag, ws);
  }
  emit_selection(v, {ws.idx.data(), k}, {ws.vals.data(), k}, writer);
  return v;
}
}  // namespace

comm::VariableGrad select_top_k_mags(std::span<const float> grad,
                                     std::span<const float> mags,
                                     std::uint32_t var_index, std::size_t k,
                                     float* kth_mag) {
  return select_top_k_mags_impl(grad, mags, var_index, k, kth_mag, nullptr);
}

comm::VariableGrad select_top_k_mags(std::span<const float> grad,
                                     std::span<const float> mags,
                                     std::uint32_t var_index, std::size_t k,
                                     comm::PayloadWriter& writer,
                                     float* kth_mag) {
  return select_top_k_mags_impl(grad, mags, var_index, k, kth_mag, &writer);
}

comm::VariableGrad reference_select_top_k_mags(std::span<const float> grad,
                                               std::span<const float> mags,
                                               std::uint32_t var_index,
                                               std::size_t k,
                                               float* kth_mag) {
  return select_top_k_mags_impl(grad, mags, var_index, k, kth_mag, nullptr,
                                /*reference=*/true);
}

comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k) {
  if (k >= grad.size()) return dense_grad(grad, var_index);
  std::vector<float>& mags = SelectWorkspace::tls().mags;
  magnitudes(grad, mags);
  return select_top_k_mags_impl(grad, mags, var_index, k, nullptr, nullptr);
}

comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k,
                                comm::PayloadWriter& writer) {
  if (k >= grad.size()) return dense_grad(grad, var_index, writer);
  std::vector<float>& mags = SelectWorkspace::tls().mags;
  magnitudes(grad, mags);
  return select_top_k_mags_impl(grad, mags, var_index, k, nullptr, &writer);
}

double equivalent_n_from_threshold(float max_abs, float kth_mag) {
  return (1.0 - static_cast<double>(kth_mag) / static_cast<double>(max_abs)) *
         100.0;
}

double equivalent_n(std::span<const float> grad, std::size_t k) {
  if (grad.empty() || k >= grad.size()) return 100.0;
  if (k == 0) return 0.0;
  SelectWorkspace& ws = SelectWorkspace::tls();
  const float mx = magnitudes(grad, ws.mags);
  if (mx == 0.0f) return 100.0;
  // k-th largest magnitude is the effective threshold.
  KthMag t;
  if (kth_largest(ws.mags, k, ws, t)) {
    return equivalent_n_from_threshold(mx, std::bit_cast<float>(t.bits));
  }
  // A NaN magnitude: the partial sort this replaced, whose pick is arbitrary.
  std::nth_element(ws.mags.begin(),
                   ws.mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   ws.mags.end(), std::greater<>());
  return equivalent_n_from_threshold(mx, ws.mags[k - 1]);
}

}  // namespace dlion::core
