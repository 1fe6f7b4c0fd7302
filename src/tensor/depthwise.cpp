// Depthwise convolution + ReLU with the channels in the vector lanes:
// tensor::depthwise_conv_relu and its backward (ops.h). Built at the
// baseline ISA with -ffp-contract=off (see src/tensor/CMakeLists.txt); the
// plain loops over the channels auto-vectorise.
//
// MobileNet's depthwise planes are tiny (6x6 down to 2x2 outputs on the
// bench images), so vectorising across output columns would fill at most a
// few lanes. Its channel counts (12 to 48) fill them instead: each sample is
// staged channels-last (H*W x C), every (output pixel, tap) step becomes one
// loop over the channels, and the result goes back to NCHW through the ReLU.
//
// Every lane is an independent accumulator that performs exactly the scalar
// loop's sequence of separately rounded multiplies and adds, so nothing
// reassociates and the results are bit for bit those of a scalar depthwise
// conv followed by a ReLU layer:
//   * forward (i, c, oy, ox): bias, then + w*x over the valid taps in
//     ascending (ky, kx); then v > 0 ? v : 0 with mask 1/0;
//   * upstream gradient: dy * mask first, as a ReLU layer's backward does;
//   * dW (c, ky, kx): from the gradient already in memory, + g*x over
//     samples, then output pixels, ascending;
//   * db (c): per sample from 0.0f over the output pixels, then added to the
//     gradient;
//   * dX (i, c, y, x): from 0.0f, + g*w over the output pixels that read it,
//     ascending (a scatter in output-pixel order keeps that order).

#include <algorithm>

#include "common/scratch.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace dlion::tensor {
namespace {

// dst[p * c + ch] = src[ch * plane + p]: one NCHW sample to channels-last.
void to_channels_last(const float* __restrict src, std::size_t channels,
                      std::size_t plane, float* __restrict dst) {
  for (std::size_t p = 0; p < plane; ++p) {
    for (std::size_t ch = 0; ch < channels; ++ch) {
      dst[p * channels + ch] = src[ch * plane + p];
    }
  }
}

// Valid taps [lo, hi) along one axis for output coordinate `o`: those whose
// input coordinate o*stride + t - pad lies in [0, in).
struct TapRange {
  std::size_t lo, hi;
};

TapRange valid_taps(std::size_t o, std::size_t in, std::size_t k,
                    std::size_t stride, std::size_t pad) {
  const std::size_t start = o * stride;  // padded coordinate of tap 0
  const std::size_t end = in + pad;      // one past the last valid one
  const std::size_t lo = start < pad ? pad - start : 0;
  const std::size_t hi = start >= end ? 0 : std::min(k, end - start);
  return {lo, std::max(lo, hi)};
}

// Tap-major copy of a (channels, k*k) filter bank: dst[t * c + ch].
void taps_channels_last(const float* __restrict src, std::size_t channels,
                        std::size_t taps, float* __restrict dst) {
  for (std::size_t ch = 0; ch < channels; ++ch) {
    for (std::size_t t = 0; t < taps; ++t) {
      dst[t * channels + ch] = src[ch * taps + t];
    }
  }
}

// One sample of the forward: stages `input` (c, height, width) channels-last
// into `x`, accumulates every output pixel's channels in `acc`, then writes
// the ReLU to `out` (c, out_h, out_w) and, when non-null, its mask.
void forward_sample(const float* input, const ConvGeometry& g,
                    const float* wt, const float* bias, float* acc, float* x,
                    float* __restrict out, float* __restrict mask) {
  const std::size_t c = g.channels, k = g.kernel;
  const std::size_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  to_channels_last(input, c, g.height * g.width, x);
  for (std::size_t oy = 0; oy < oh; ++oy) {
    const TapRange ry = valid_taps(oy, g.height, k, g.stride, g.pad);
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const TapRange rx = valid_taps(ox, g.width, k, g.stride, g.pad);
      float* __restrict a = acc + (oy * ow + ox) * c;
      for (std::size_t ch = 0; ch < c; ++ch) a[ch] = bias[ch];
      for (std::size_t ky = ry.lo; ky < ry.hi; ++ky) {
        const std::size_t iy = oy * g.stride + ky - g.pad;
        for (std::size_t kx = rx.lo; kx < rx.hi; ++kx) {
          const std::size_t ix = ox * g.stride + kx - g.pad;
          const float* __restrict wp = wt + (ky * k + kx) * c;
          const float* __restrict xp = x + (iy * g.width + ix) * c;
          for (std::size_t ch = 0; ch < c; ++ch) a[ch] += wp[ch] * xp[ch];
        }
      }
    }
  }
  // ReLU epilogue, back to NCHW.
  if (mask != nullptr) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t p = 0; p < ohw; ++p) {
        const float v = acc[p * c + ch];
        const bool pos = v > 0.0f;
        out[ch * ohw + p] = pos ? v : 0.0f;
        mask[ch * ohw + p] = pos ? 1.0f : 0.0f;
      }
    }
  } else {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t p = 0; p < ohw; ++p) {
        const float v = acc[p * c + ch];
        out[ch * ohw + p] = v > 0.0f ? v : 0.0f;
      }
    }
  }
}

}  // namespace

void depthwise_conv_relu(const float* input, std::size_t n,
                         const ConvGeometry& g, const float* weight,
                         const float* bias, float* out, float* mask,
                         float* staged) {
  DLION_DCHECK((mask == nullptr) == (staged == nullptr),
               "a training forward keeps both mask and staged input");
  const std::size_t c = g.channels, k = g.kernel;
  const std::size_t hw = g.height * g.width;
  const std::size_t ohw = g.out_h() * g.out_w();
  common::ScratchArena& arena = common::ScratchArena::tls();
  common::ScratchArena::Scope scope(arena);
  float* wt = arena.alloc_floats(k * k * c);
  taps_channels_last(weight, c, k * k, wt);

  if (staged == nullptr) {
    // An evaluation keeps nothing per sample, so the samples split over the
    // pool; each task stages through its own thread's arena and shares the
    // tap-major weights read-only.
    common::ThreadPool::global().parallel_for(0, n, [&](std::size_t i) {
      common::ScratchArena& task_arena = common::ScratchArena::tls();
      common::ScratchArena::Scope task_scope(task_arena);
      float* acc = task_arena.alloc_floats(ohw * c);
      float* x = task_arena.alloc_floats(hw * c);
      forward_sample(input + i * c * hw, g, wt, bias, acc, x,
                     out + i * c * ohw, nullptr);
    });
    return;
  }
  float* acc = arena.alloc_floats(ohw * c);
  for (std::size_t i = 0; i < n; ++i) {
    forward_sample(input + i * c * hw, g, wt, bias, acc, staged + i * hw * c,
                   out + i * c * ohw, mask + i * c * ohw);
  }
}

void depthwise_conv_relu_backward(const float* grad_out, const float* mask,
                                  const float* staged, std::size_t n,
                                  const ConvGeometry& g,
                                  const float* weight, float* weight_grad,
                                  float* bias_grad, float* grad_in) {
  const std::size_t c = g.channels, k = g.kernel, taps = k * k;
  const std::size_t hw = g.height * g.width;
  const std::size_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  common::ScratchArena& arena = common::ScratchArena::tls();
  common::ScratchArena::Scope scope(arena);
  float* wt = arena.alloc_floats(taps * c);
  taps_channels_last(weight, c, taps, wt);
  float* dwt = arena.alloc_floats(taps * c);
  taps_channels_last(weight_grad, c, taps, dwt);
  float* gy = arena.alloc_floats(ohw * c);
  float* db = arena.alloc_floats(c);
  float* dx = grad_in != nullptr ? arena.alloc_floats(hw * c) : nullptr;

  for (std::size_t i = 0; i < n; ++i) {
    // ReLU backward, staged channels-last: gy = dy * mask.
    const float* dy = grad_out + i * c * ohw;
    const float* m = mask + i * c * ohw;
    for (std::size_t p = 0; p < ohw; ++p) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        gy[p * c + ch] = dy[ch * ohw + p] * m[ch * ohw + p];
      }
    }
    std::fill(db, db + c, 0.0f);
    for (std::size_t p = 0; p < ohw; ++p) {
      const float* __restrict gp = gy + p * c;
      for (std::size_t ch = 0; ch < c; ++ch) db[ch] += gp[ch];
    }
    for (std::size_t ch = 0; ch < c; ++ch) bias_grad[ch] += db[ch];

    const float* x = staged + i * hw * c;
    if (dx != nullptr) std::fill(dx, dx + hw * c, 0.0f);
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const TapRange ry = valid_taps(oy, g.height, k, g.stride, g.pad);
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const TapRange rx = valid_taps(ox, g.width, k, g.stride, g.pad);
        const float* __restrict gp = gy + (oy * ow + ox) * c;
        for (std::size_t ky = ry.lo; ky < ry.hi; ++ky) {
          const std::size_t iy = oy * g.stride + ky - g.pad;
          for (std::size_t kx = rx.lo; kx < rx.hi; ++kx) {
            const std::size_t ix = ox * g.stride + kx - g.pad;
            const std::size_t pix = (iy * g.width + ix) * c;
            float* __restrict dwp = dwt + (ky * k + kx) * c;
            const float* __restrict xp = x + pix;
            for (std::size_t ch = 0; ch < c; ++ch) dwp[ch] += gp[ch] * xp[ch];
            if (dx != nullptr) {
              float* __restrict dxp = dx + pix;
              const float* __restrict wp = wt + (ky * k + kx) * c;
              for (std::size_t ch = 0; ch < c; ++ch) dxp[ch] += gp[ch] * wp[ch];
            }
          }
        }
      }
    }
    if (dx != nullptr) {
      float* __restrict dst = grad_in + i * c * hw;
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t p = 0; p < hw; ++p) dst[ch * hw + p] = dx[p * c + ch];
      }
    }
  }
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t t = 0; t < taps; ++t) {
      weight_grad[ch * taps + t] = dwt[t * c + ch];
    }
  }
}

}  // namespace dlion::tensor
