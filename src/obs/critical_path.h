// Critical-path attribution over a recorded trace.
//
// Reconstructs the causal DAG a run's spans and flow events imply —
// program order within each lane, Chrome flow links across lanes (worker
// send → link transmission → worker apply) — walks it backwards from the
// last thing that finished, and reports where the end-to-end time went:
// {compute, transfer, queueing, stall, DKT}, per worker and per directed
// link, overall and per fixed-length epoch window.
//
// The walk is exact, not sampled: consecutive path nodes produce
// *contiguous* segments [pred.t1, node.t1], so category seconds sum to the
// path's total length and per-window fractions sum to 1 by construction.
// Everything is derived from the tracer's already-recorded, deterministic
// events; computing a report never touches the simulation.
//
// Lane conventions (what the instrumented components record):
//  - workers:  process "workers", thread "worker <i>" — spans compute,
//    stall, dkt_pull, and zero-duration apply (gradient application at
//    delivery time, the flow-end anchor).
//  - links:    process "network", thread "link <i>-><j>" — tx spans, with
//    a flow step at each tx start.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace dlion::obs {

/// Where a slice of critical-path time is charged.
enum class PathCategory : std::uint8_t {
  kCompute = 0,   ///< gradient compute + application (worker lanes)
  kTransfer = 1,  ///< link transmission + propagation latency
  kQueue = 2,     ///< waiting for a busy link / handler gaps / retries
  kStall = 3,     ///< synchronization waits (bounded-staleness barrier)
  kDkt = 4,       ///< direct-knowledge-transfer weight pulls
};
inline constexpr std::size_t kNumPathCategories = 5;
const char* path_category_name(PathCategory c);

/// One contiguous slice of the critical path (chronological in the
/// report; slices tile [t_start, t_end] exactly).
struct PathSegment {
  double t0 = 0.0;
  double t1 = 0.0;
  PathCategory category = PathCategory::kCompute;
  std::string lane;       ///< "worker 3" or "link 0->1"
  std::string span_name;  ///< originating span name, or "(gap)"
  double seconds() const { return t1 - t0; }
};

/// On-path seconds one lane contributed, split by category.
struct LaneAttribution {
  std::string lane;
  std::array<double, kNumPathCategories> seconds{};
  double total() const;
};

/// Category totals inside one fixed-length time window.
struct EpochWindow {
  double t0 = 0.0;
  double t1 = 0.0;
  std::array<double, kNumPathCategories> seconds{};
  double total() const;
  /// seconds[c] / total(); the five fractions sum to 1 (0 if empty).
  double fraction(PathCategory c) const;
};

struct CriticalPathReport {
  /// False when the trace held no spans (every other field is empty).
  bool valid = false;
  double t_start = 0.0;  ///< first path node's start
  double t_end = 0.0;    ///< last span's completion
  double total_seconds() const { return t_end - t_start; }

  std::array<double, kNumPathCategories> category_seconds{};
  double category_fraction(PathCategory c) const;

  /// Chronological path slices tiling [t_start, t_end].
  std::vector<PathSegment> segments;
  /// Per-lane attribution, sorted by total seconds descending (ties by
  /// lane name); workers and links reported separately.
  std::vector<LaneAttribution> workers;
  std::vector<LaneAttribution> links;

  /// Worker lane with the most on-path seconds (the straggler the paper's
  /// techniques chase); empty when no worker lane is on the path.
  std::string straggler;
  /// Link lane with the most on-path transfer+queue seconds.
  std::string bottleneck_link;

  /// Fixed-length windows (CriticalPathOptions::epoch_seconds); empty when
  /// windowing was disabled.
  std::vector<EpochWindow> epochs;

  /// Deterministic single-object JSON (categories, lanes, epochs,
  /// segments).
  std::string to_json() const;
  /// Human-readable attribution table (the trace_explain output).
  std::string attribution_table() const;
};

struct CriticalPathOptions {
  /// Split the run into fixed windows of this many simulated seconds and
  /// report per-window category fractions. 0 disables windowing.
  double epoch_seconds = 0.0;
};

/// Analyze a finished run's tracer. Read-only; callable any number of
/// times. Returns an invalid report when the tracer recorded no spans.
CriticalPathReport compute_critical_path(const Tracer& tracer,
                                         const CriticalPathOptions& options =
                                             {});

}  // namespace dlion::obs
