#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "common/scratch.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernel.h"

namespace dlion::tensor {

namespace {
// ---------------------------------------------------------------------------
// Blocked, packed GEMM (GotoBLAS/BLIS decomposition).
//
//   for jc (NC columns of C)            - B panel selection
//     for pc (KC of the k dimension)    - FIXED serial order => determinism
//       pack B(kc x nc) into NR strips  - L2/L3-resident, shared, read-only
//       for ic (MC rows, PARALLEL)      - disjoint C rows per task
//         pack A(mc x kc) into MR strips (thread-local arena)
//         for jr (NR strips)            - B strip stays L1-resident
//           for ir (MR strips)          - micro-kernel: registers only
//
// Each C element is accumulated by exactly one task per (jc, pc) step, the
// pc loop runs in a fixed serial order with a barrier (parallel_for joins),
// and the micro-kernel's p-loop order is fixed, so the floating-point
// addition order per C element never depends on the thread count. That is
// the whole determinism argument - see DESIGN.md "Numeric kernels".
// ---------------------------------------------------------------------------

// Cache blocking. KC*NR floats of B strip (16 KiB at NR=16) stay L1 while a
// full A panel streams; MC*KC floats of packed A (~120 KiB) target L2; the
// packed B panel (KC*NC = 256 KiB) targets L2/L3. MC is a multiple of both
// micro-kernel MR values (4 and 6), NC of both NR values (8 and 16).
constexpr std::size_t kKC = 256;
constexpr std::size_t kMC = 120;
constexpr std::size_t kNC = 256;

// Below this many multiply-adds the cache blocking is not worth it; the
// small-GEMM kernels (detail::small_gemm) run serially instead and
// reproduce reference_gemm bit for bit. The cutoff depends only on the
// problem shape, never on the thread count, so it cannot break determinism.
constexpr std::size_t kPackedMulAddThreshold = 1u << 19;  // 512K mul-adds

// Above this many FLOPs the packed driver fans out row blocks over the
// global thread pool (kept from the pre-blocking kernels).
constexpr double kParallelFlopThreshold = 8e6;

std::atomic<bool> g_gemm_parallel{true};

inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// Pack the A block rows [i0, i0+mc) x k-cols [p0, p0+kc) into MR strips:
// dst[strip][(p * MR) + i] = A(i0 + strip*MR + i, p0 + p), zero-padded to a
// full strip. A is (m x k) row-major, or (k x m) when trans_a.
void pack_a(const float* a, bool trans_a, std::size_t m, std::size_t k,
            std::size_t i0, std::size_t mc, std::size_t p0, std::size_t kc,
            std::size_t mr_tile, float* dst) {
  for (std::size_t strip = 0; strip < mc; strip += mr_tile) {
    const std::size_t mr = std::min(mr_tile, mc - strip);
    if (!trans_a) {
      // Rows of A are contiguous in p: copy row by row into the strided
      // strip layout (write stride = mr_tile, a small constant).
      for (std::size_t i = 0; i < mr; ++i) {
        const float* src = a + (i0 + strip + i) * k + p0;
        for (std::size_t p = 0; p < kc; ++p) dst[p * mr_tile + i] = src[p];
      }
    } else {
      // A is (k x m): for fixed p the i-run is contiguous in memory.
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * m + i0 + strip;
        float* d = dst + p * mr_tile;
        for (std::size_t i = 0; i < mr; ++i) d[i] = src[i];
      }
    }
    if (mr < mr_tile) {
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t i = mr; i < mr_tile; ++i) dst[p * mr_tile + i] = 0.0f;
      }
    }
    dst += kc * mr_tile;
  }
}

// Pack the B block k-rows [p0, p0+kc) x cols [j0, j0+nc) into NR strips:
// dst[strip][(p * NR) + j] = B(p0 + p, j0 + strip*NR + j), zero-padded.
// B is (k x n) row-major, or (n x k) when trans_b.
void pack_b(const float* b, bool trans_b, std::size_t k, std::size_t n,
            std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
            std::size_t nr_tile, float* dst) {
  for (std::size_t strip = 0; strip < nc; strip += nr_tile) {
    const std::size_t nr = std::min(nr_tile, nc - strip);
    if (!trans_b) {
      // Contiguous j-runs for fixed p: contiguous reads AND writes.
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * n + j0 + strip;
        float* d = dst + p * nr_tile;
        for (std::size_t j = 0; j < nr; ++j) d[j] = src[j];
        for (std::size_t j = nr; j < nr_tile; ++j) d[j] = 0.0f;
      }
    } else {
      // B is (n x k): rows of B are contiguous in p.
      for (std::size_t j = 0; j < nr; ++j) {
        const float* src = b + (j0 + strip + j) * k + p0;
        for (std::size_t p = 0; p < kc; ++p) dst[p * nr_tile + j] = src[p];
      }
      if (nr < nr_tile) {
        for (std::size_t p = 0; p < kc; ++p) {
          for (std::size_t j = nr; j < nr_tile; ++j) {
            dst[p * nr_tile + j] = 0.0f;
          }
        }
      }
    }
    dst += kc * nr_tile;
  }
}

// Packed driver. beta has already been applied to C by gemm().
void gemm_packed(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, const float* b,
                 float* c) {
  const detail::MicroKernel& mk = detail::active_micro_kernel();
  const std::size_t mr_tile = mk.mr;
  const std::size_t nr_tile = mk.nr;
  // Blocking geometry contract: the MC/NC blocks must be whole multiples of
  // the active micro-tile, or partial strips would overlap across blocks
  // and the fixed k-ordered accumulation (the determinism argument above)
  // would no longer hold per C element.
  DLION_DCHECK(mr_tile > 0 && nr_tile > 0 && kMC % mr_tile == 0 &&
                   kNC % nr_tile == 0,
               "cache blocks must be multiples of the micro-tile");

  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const bool parallel = g_gemm_parallel.load(std::memory_order_relaxed) &&
                        flops > kParallelFlopThreshold;

  common::ScratchArena& arena = common::ScratchArena::tls();
  const std::size_t num_ic = ceil_div(m, kMC);

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t b_strips = ceil_div(nc, nr_tile);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      common::ScratchArena::Scope scope(arena);
      float* bpanel = arena.alloc_floats(b_strips * kc * nr_tile);
      pack_b(b, trans_b, k, n, pc, kc, jc, nc, nr_tile, bpanel);

      auto process_row_block = [&](std::size_t ic_index) {
        const std::size_t ic = ic_index * kMC;
        const std::size_t mc = std::min(kMC, m - ic);
        // Row blocks tile [0, m) disjointly - the packed panels and the C
        // writes below must stay inside the operand extents.
        DLION_DCHECK(ic < m && ic + mc <= m && pc + kc <= k && jc + nc <= n,
                     "GEMM block escaped its operand");
        const std::size_t a_strips = ceil_div(mc, mr_tile);
        // Each executing thread packs into its own arena, so parallel row
        // blocks never contend (the caller's arena simply nests a scope).
        common::ScratchArena& task_arena = common::ScratchArena::tls();
        common::ScratchArena::Scope task_scope(task_arena);
        float* apanel = task_arena.alloc_floats(a_strips * kc * mr_tile);
        pack_a(a, trans_a, m, k, ic, mc, pc, kc, mr_tile, apanel);

        for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
          const float* bstrip = bpanel + (jr / nr_tile) * kc * nr_tile;
          const std::size_t nr_eff = std::min(nr_tile, nc - jr);
          for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
            const float* astrip = apanel + (ir / mr_tile) * kc * mr_tile;
            mk.tile(kc, astrip, bstrip, alpha, c + (ic + ir) * n + jc + jr, n,
                    std::min(mr_tile, mc - ir), nr_eff);
          }
        }
      };

      if (parallel && num_ic > 1) {
        common::ThreadPool::global().parallel_for(0, num_ic,
                                                  process_row_block,
                                                  /*grain=*/1);
      } else {
        for (std::size_t i = 0; i < num_ic; ++i) process_row_block(i);
      }
    }
  }
}
}  // namespace

namespace detail {
void small_gemm(const MicroKernel& kernel, bool trans_a, bool trans_b,
                std::size_t m, std::size_t n, std::size_t k, float alpha,
                const float* a, const float* b, float* c) {
  const std::size_t strip = kernel.small.strip;
  common::ScratchArena& arena = common::ScratchArena::tls();
  common::ScratchArena::Scope scope(arena);
  float* panel =
      arena.alloc_floats(ceil_div(std::max(m, n), strip) * strip * k);
  kernel.small.gemm(trans_a, trans_b, m, n, k, alpha, a, b, c, panel);
}
}  // namespace detail

bool set_gemm_parallel(bool enabled) {
  return g_gemm_parallel.exchange(enabled, std::memory_order_relaxed);
}

const char* gemm_kernel_name() { return detail::active_micro_kernel().name; }

void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  if (m == 0 || n == 0) return;
  if (beta == 0.0f) {
    std::memset(c, 0, m * n * sizeof(float));
  } else if (beta != 1.0f) {
    scale(beta, std::span<float>(c, m * n));
  }
  if (k == 0 || alpha == 0.0f) return;

  if (m * n * k < kPackedMulAddThreshold) {
    detail::small_gemm(detail::active_micro_kernel(), trans_a, trans_b, m, n,
                       k, alpha, a, b, c);
    return;
  }
  gemm_packed(trans_a, trans_b, m, n, k, alpha, a, b, c);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2 ||
      a.shape()[1] != b.shape()[0]) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                a.shape().to_string() + " x " +
                                b.shape().to_string());
  }
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c(Shape{m, n});
  gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

// ---------------------------------------------------------------------------
// Vector kernels. These run over full model-sized vectors every training
// step (weighted_update, the optimizers, Max-N selection), so they are
// written restrict-qualified with 4-way unrolling to keep the
// auto-vectorizer engaged even at moderate optimization levels. Partial
// accumulators are combined in a fixed order, so results are deterministic
// (though not bit-identical to the pre-unroll single-accumulator loops).
// ---------------------------------------------------------------------------

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  const float* __restrict xp = x.data();
  float* __restrict yp = y.data();
  const std::size_t n = x.size();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    yp[i + 0] += alpha * xp[i + 0];
    yp[i + 1] += alpha * xp[i + 1];
    yp[i + 2] += alpha * xp[i + 2];
    yp[i + 3] += alpha * xp[i + 3];
  }
  for (std::size_t i = n4; i < n; ++i) yp[i] += alpha * xp[i];
}

void scale(float alpha, std::span<float> x) {
  float* __restrict xp = x.data();
  const std::size_t n = x.size();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    xp[i + 0] *= alpha;
    xp[i + 1] *= alpha;
    xp[i + 2] *= alpha;
    xp[i + 3] *= alpha;
  }
  for (std::size_t i = n4; i < n; ++i) xp[i] *= alpha;
}

double sum(std::span<const float> x) {
  const float* __restrict xp = x.data();
  const std::size_t n = x.size();
  const std::size_t n4 = n & ~std::size_t{3};
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::size_t i = 0; i < n4; i += 4) {
    s0 += xp[i + 0];
    s1 += xp[i + 1];
    s2 += xp[i + 2];
    s3 += xp[i + 3];
  }
  double s = (s0 + s2) + (s1 + s3);
  for (std::size_t i = n4; i < n; ++i) s += xp[i];
  return s;
}

double dot(std::span<const float> x, std::span<const float> y) {
  if (x.size() != y.size()) throw std::invalid_argument("dot: size mismatch");
  const float* __restrict xp = x.data();
  const float* __restrict yp = y.data();
  const std::size_t n = x.size();
  const std::size_t n4 = n & ~std::size_t{3};
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::size_t i = 0; i < n4; i += 4) {
    s0 += static_cast<double>(xp[i + 0]) * yp[i + 0];
    s1 += static_cast<double>(xp[i + 1]) * yp[i + 1];
    s2 += static_cast<double>(xp[i + 2]) * yp[i + 2];
    s3 += static_cast<double>(xp[i + 3]) * yp[i + 3];
  }
  double s = (s0 + s2) + (s1 + s3);
  for (std::size_t i = n4; i < n; ++i) {
    s += static_cast<double>(xp[i]) * yp[i];
  }
  return s;
}

double l2_norm(std::span<const float> x) { return std::sqrt(dot(x, x)); }

float max_abs(std::span<const float> x) {
  const float* __restrict xp = x.data();
  const std::size_t n = x.size();
  const std::size_t n4 = n & ~std::size_t{3};
  float m0 = 0.0f, m1 = 0.0f, m2 = 0.0f, m3 = 0.0f;
  for (std::size_t i = 0; i < n4; i += 4) {
    m0 = std::max(m0, std::fabs(xp[i + 0]));
    m1 = std::max(m1, std::fabs(xp[i + 1]));
    m2 = std::max(m2, std::fabs(xp[i + 2]));
    m3 = std::max(m3, std::fabs(xp[i + 3]));
  }
  float m = std::max(std::max(m0, m2), std::max(m1, m3));
  for (std::size_t i = n4; i < n; ++i) m = std::max(m, std::fabs(xp[i]));
  return m;
}

void add_bias_rows(Tensor& m_by_n, const Tensor& bias) {
  if (m_by_n.shape().rank() != 2 || bias.size() != m_by_n.shape()[1]) {
    throw std::invalid_argument("add_bias_rows: shape mismatch");
  }
  const std::size_t rows = m_by_n.shape()[0], cols = m_by_n.shape()[1];
  const float* __restrict bp = bias.data();
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict row = m_by_n.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += bp[c];
  }
}

void add_bias_rows_relu(float* data, std::size_t rows, std::size_t cols,
                        const float* bias, float* mask) {
  const float* __restrict bp = bias;
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict row = data + r * cols;
    float* __restrict mrow = mask + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      const float v = row[c] + bp[c];
      const bool pos = v > 0.0f;
      row[c] = pos ? v : 0.0f;
      mrow[c] = pos ? 1.0f : 0.0f;
    }
  }
}

void add_bias_rows_relu(float* data, std::size_t rows, std::size_t cols,
                        const float* bias) {
  const float* __restrict bp = bias;
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      const float v = row[c] + bp[c];
      row[c] = v > 0.0f ? v : 0.0f;
    }
  }
}

void add_bias_channels(float* data, std::size_t images, std::size_t channels,
                       std::size_t plane, const float* bias) {
  for (std::size_t i = 0; i < images; ++i) {
    for (std::size_t ch = 0; ch < channels; ++ch) {
      float* __restrict p = data + (i * channels + ch) * plane;
      const float b = bias[ch];
      for (std::size_t x = 0; x < plane; ++x) p[x] += b;
    }
  }
}

void add_bias_channels_relu(float* data, std::size_t images,
                            std::size_t channels, std::size_t plane,
                            const float* bias, float* mask) {
  for (std::size_t i = 0; i < images; ++i) {
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const std::size_t off = (i * channels + ch) * plane;
      float* __restrict p = data + off;
      float* __restrict mp = mask + off;
      const float b = bias[ch];
      for (std::size_t x = 0; x < plane; ++x) {
        const float v = p[x] + b;
        const bool pos = v > 0.0f;
        p[x] = pos ? v : 0.0f;
        mp[x] = pos ? 1.0f : 0.0f;
      }
    }
  }
}

void apply_mask(const float* grad, const float* mask, float* dst,
                std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    dst[i + 0] = grad[i + 0] * mask[i + 0];
    dst[i + 1] = grad[i + 1] * mask[i + 1];
    dst[i + 2] = grad[i + 2] * mask[i + 2];
    dst[i + 3] = grad[i + 3] * mask[i + 3];
  }
  for (std::size_t i = n4; i < n; ++i) dst[i] = grad[i] * mask[i];
}

void im2col(const float* img, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw,
            std::size_t stride, std::size_t pad, float* col) {
  const std::size_t out_h = conv_out_dim(height, kh, stride, pad);
  const std::size_t out_w = conv_out_dim(width, kw, stride, pad);
  std::size_t idx = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx) {
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            const bool inside = iy >= 0 &&
                                iy < static_cast<std::ptrdiff_t>(height) &&
                                ix >= 0 &&
                                ix < static_cast<std::ptrdiff_t>(width);
            col[idx++] =
                inside
                    ? img[(c * height + static_cast<std::size_t>(iy)) * width +
                          static_cast<std::size_t>(ix)]
                    : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw,
            std::size_t stride, std::size_t pad, float* img) {
  const std::size_t out_h = conv_out_dim(height, kh, stride, pad);
  const std::size_t out_w = conv_out_dim(width, kw, stride, pad);
  std::size_t idx = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx) {
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            const float v = col[idx++];
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(height) &&
                ix >= 0 && ix < static_cast<std::ptrdiff_t>(width)) {
              img[(c * height + static_cast<std::size_t>(iy)) * width +
                  static_cast<std::size_t>(ix)] += v;
            }
          }
        }
      }
    }
  }
}

}  // namespace dlion::tensor
