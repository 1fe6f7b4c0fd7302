// Max N gradient selection (§3.3, data quality assurance module).
//
// Max N keeps the entries of a gradient vector whose absolute value is
// within N% of the vector's maximum absolute value, i.e. |g| >=
// (1 - N/100) * max|g|. N = 100 keeps everything (dense exchange); small N
// keeps only the statistically most significant sliver. The paper's text
// ("greater than or equal to N% of the maximum") reads ambiguously, but its
// two anchors fix the semantics: N=1 sends only values within 1% of the max,
// N=100 sends whole gradients - hence the (1 - N/100) threshold.
//
// Selection is applied per weight variable because "each weight variable has
// their own value distribution and convergence speed".
#pragma once

#include <span>
#include <vector>

#include "comm/message.h"
#include "comm/payload.h"

namespace dlion::core {

/// Threshold implied by Max N for a vector whose max-abs is `max_abs`.
double max_n_threshold(double n, float max_abs);

// Every selector below exists in two forms. The writer form packs the
// selected (indices, values) arrays into the caller's PayloadWriter - the
// strategies' hot path, one production write into an arena block, zero heap
// allocations once the thread-local selection workspace is warm. The
// writer-less form packs into a standalone exact-size block instead
// (tests / callers without an arena); both produce identical entries - the
// selection runs in a shared workspace and the output cannot depend on
// where its bytes land.

// ---------------------------------------------------------------------------
// Fused magnitude workspace.
//
// A link generation needs several statistics of the same gradient vector
// (its Max N floor, its top-k set, the equivalent N of that set). The naive
// composition scans the gradient 4-5x, recomputing |g| each time. The
// *_mags variants below share one magnitude pass: call magnitudes() once
// per variable (reusing the caller's vector across variables so steady-state
// link generation allocates nothing), then feed the result to the others.
// ---------------------------------------------------------------------------

/// Fill `mags[i] = |grad[i]|` (resizing as needed) and return max|grad|.
/// Single fused pass over the gradient.
float magnitudes(std::span<const float> grad, std::vector<float>& mags);

/// count_max_n on precomputed magnitudes (no rescan of the gradient).
std::size_t count_max_n_mags(std::span<const float> mags, float max_abs,
                             double n);

/// select_top_k on precomputed magnitudes. When k is in (0, grad.size()),
/// also reports the k-th largest magnitude - the effective selection
/// threshold - via `kth_mag`, letting callers derive equivalent_n without
/// a second partial sort.
///
/// The selection is the first k entries in (|g| descending, index
/// ascending) order, emitted by ascending index. It is found by threshold,
/// not by sorting: first the k-th largest magnitude t, then one branch-free
/// pass that keeps every entry with |g| > t and the first (k - #above)
/// entries with |g| == t. Non-negative floats order like their IEEE-754 bit
/// patterns, so t comes from a radix select over those patterns; the rank
/// its last digit leaves over is the number of ties to take. One radix
/// select serves every size. On one AMD EPYC core over fresh N(0, 0.01)
/// vectors (none repeated, so branch prediction cannot memorise a path) it
/// takes 7.5 us at n = 4096 and k from 5% to 50% of n, against 33-89 us
/// for the indirect nth_element plus index sort it replaced.
///
/// For NaN-free magnitudes the output - indices, values and kth_mag = t -
/// is bit for bit reference_select_top_k_mags'. A variable with a NaN
/// magnitude has no such order (the reference comparator is then no strict
/// weak order and its pick is arbitrary); it takes the reference route, so
/// its output is unchanged too.
comm::VariableGrad select_top_k_mags(std::span<const float> grad,
                                     std::span<const float> mags,
                                     std::uint32_t var_index, std::size_t k,
                                     float* kth_mag = nullptr);
comm::VariableGrad select_top_k_mags(std::span<const float> grad,
                                     std::span<const float> mags,
                                     std::uint32_t var_index, std::size_t k,
                                     comm::PayloadWriter& writer,
                                     float* kth_mag = nullptr);

/// The top-k selection before the threshold pass, kept verbatim: an
/// indirect nth_element over indices by (|g| descending, index ascending),
/// then an index sort. It is select_top_k_mags' route for NaN magnitudes and
/// the tests' oracle for everything else. Do not optimize it.
comm::VariableGrad reference_select_top_k_mags(std::span<const float> grad,
                                               std::span<const float> mags,
                                               std::uint32_t var_index,
                                               std::size_t k,
                                               float* kth_mag = nullptr);

/// equivalent_n given a precomputed effective threshold (the k-th largest
/// magnitude) and max-abs. Matches equivalent_n() bit-for-bit.
double equivalent_n_from_threshold(float max_abs, float kth_mag);

/// Select entries of `grad` with |g| >= (1 - n/100) * max|g|. n in (0, 100].
/// n == 100 returns a dense VariableGrad.
comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n);
comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n,
                                comm::PayloadWriter& writer);

/// Select the k largest-magnitude entries (ties broken by lower index).
/// k >= grad.size() returns a dense VariableGrad.
comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k);
comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k,
                                comm::PayloadWriter& writer);

/// Dense VariableGrad over all of `grad` (what Max N = 100 selects).
comm::VariableGrad dense_grad(std::span<const float> grad,
                              std::uint32_t var_index);
comm::VariableGrad dense_grad(std::span<const float> grad,
                              std::uint32_t var_index,
                              comm::PayloadWriter& writer);

/// Number of entries Max N would select, without materializing them.
std::size_t count_max_n(std::span<const float> grad, double n);

/// The N value whose Max N threshold equals selecting the top-k entries of
/// `grad` (for reporting the "equivalent N" of a size-driven selection).
double equivalent_n(std::span<const float> grad, std::size_t k);

}  // namespace dlion::core
