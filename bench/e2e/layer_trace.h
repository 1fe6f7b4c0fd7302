// Interface between dlion_bench.cpp and the link-time layer wrappers
// (layer_wraps.cpp). dlion_bench.cpp defines weak, empty versions of these
// functions, so dlion_bench records nothing; dlion_bench_traced links
// layer_wraps.cpp, whose strong definitions replace them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dlion::bench::e2e {

/// Totals of one wrapped boundary (one library symbol, or one GEMM shape
/// class) since trace_start().
struct BoundaryStats {
  std::string name;   ///< "tensor::gemm[small]", "sim::EventQueue::pop", ...
  std::string group;  ///< per-layer metric prefix: "tensor.gemm_small", ...
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;  ///< wall time inside the call
  std::uint64_t self_ns = 0;  ///< incl_ns minus wrapped calls made beneath it
  double work = 0.0;          ///< GEMM flops; selector elements scanned
  std::uint64_t kept = 0;     ///< selector entries returned
};

/// GEMM shape census row.
struct GemmShape {
  bool trans_a = false;
  bool trans_b = false;
  std::size_t m = 0, n = 0, k = 0;
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
};

/// Clears all totals and starts recording calls made on the calling
/// thread. Returns false in the untraced build.
bool trace_start();

/// Every wrapped boundary, including those with zero calls.
std::vector<BoundaryStats> trace_boundaries();

std::vector<GemmShape> trace_gemm_shapes();

/// Wrapped calls made on a thread other than the one that called
/// trace_start(); they are not timed, and any is a self-check failure.
std::uint64_t trace_foreign_calls();

}  // namespace dlion::bench::e2e
