// MetricsRegistry: labeled counters, gauges, fixed-bucket histograms, and
// time-windowed series with snapshot/export to JSON and CSV.
//
// Design constraints (see DESIGN.md "Observability layer"):
//  - *Deterministic*: no clocks, no RNG, no iteration-order dependence in
//    exports (rows are sorted by metric name, then canonical label string).
//  - *Hot-path cheap*: `counter()/gauge()/histogram()/windowed()` return
//    stable references that stay valid for the registry's lifetime, so call
//    sites resolve the (name, labels) key once and keep the handle. An
//    increment is then a single add on a cached pointer.
//  - *No dependencies* beyond the standard library: exports are written by
//    a tiny built-in JSON/CSV emitter.
//
// Histograms use fixed bucket upper bounds (default: log-spaced seconds
// from 1 µs to ~1000 s) and estimate quantiles by linear interpolation
// inside the bucket containing the target rank — the same estimator
// Prometheus' `histogram_quantile` uses, clamped to the observed min/max.
//
// Scale mode (DESIGN.md "Observability at scale"): RollupConfig collapses
// per-worker label cardinality into per-micro-cloud groups at registration
// time, and Windowed series aggregate observations into fixed time windows
// (per-window count/sum/min/max). Both default off; an unconfigured
// registry behaves exactly as before.
//
// Export schemas: JSON snapshots carry "schema":"dlion-metrics-v2"
// (v1 = PR 2's shape without the schema key or windowed rows); the CSV
// header row is the dlion-metrics-csv-v1 contract, unchanged — windowed
// rows reuse the count/sum/min/max columns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_affinity.h"

namespace dlion::obs {

/// Metric labels as (key, value) pairs. Order is irrelevant: keys are
/// sorted when forming the canonical identity of a series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical "k1=v1,k2=v2" form (keys sorted). Two label sets naming the
/// same series always canonicalize identically.
std::string canonical_labels(Labels labels);

class Counter {
 public:
  void inc(double d = 1.0) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  /// `bounds` are strictly increasing bucket upper limits; an implicit
  /// overflow bucket catches everything above the last bound.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Observed extremes (quantiles are clamped into [min, max]).
  double observed_min() const;  // NaN when empty
  double observed_max() const;  // NaN when empty
  double mean() const;          // NaN when empty

  /// Quantile estimate for q in [0, 1]: linear interpolation within the
  /// bucket holding rank q*count. NaN when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Log-spaced duration buckets: 1 µs .. ~1000 s, 4 buckets per decade.
  static std::vector<double> default_time_bounds();
  /// Log-spaced size buckets: 1 .. ~1e9, 3 buckets per decade.
  static std::vector<double> default_size_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One window's aggregate of a Windowed series.
struct WindowStats {
  std::uint64_t window = 0;  ///< index = floor(t / window_s)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Time-windowed aggregation: observations carry their (simulated) time
/// and land in fixed windows of `window_s` seconds, each keeping
/// count/sum/min/max. Memory is O(active windows), not O(observations) —
/// the per-epoch rollup primitive for large-N runs. Storage is sparse:
/// windows nothing was observed in are absent.
class Windowed {
 public:
  explicit Windowed(double window_s);

  /// Record value `v` observed at time `t` (t < 0 clamps to window 0).
  /// Observations normally arrive in nondecreasing t, making this O(1);
  /// out-of-order times fall back to a search.
  void observe(double t, double v);

  double window_s() const { return window_s_; }
  /// Sparse per-window stats, sorted by window index.
  const std::vector<WindowStats>& windows() const { return windows_; }

  /// Totals across every window.
  std::uint64_t count() const;
  double sum() const;
  double observed_min() const;  // NaN when empty
  double observed_max() const;  // NaN when empty

 private:
  WindowStats& at_window(std::uint64_t w);

  double window_s_;
  std::vector<WindowStats> windows_;  // sorted by window index
};

/// Scale-mode knobs (all off by default). Configure before any component
/// caches series handles (i.e. before set_obs wiring), because labels are
/// rewritten at series creation.
struct RollupConfig {
  /// When > 1, a {"worker", "<i>"} label is rewritten at registration to
  /// {"mc", "<i / worker_group>"} — per-worker series collapse into
  /// per-micro-cloud groups, cutting label cardinality by the group size.
  std::size_t worker_group = 0;
  /// Default window size for windowed() calls that don't pass their own.
  double window_s = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Install the rollup policy (see RollupConfig). Call before handles are
  /// created; existing series are not rewritten retroactively.
  void set_rollup(const RollupConfig& cfg) { rollup_ = cfg; }
  const RollupConfig& rollup() const { return rollup_; }

  /// Find-or-create. References stay valid for the registry's lifetime
  /// (cells are heap-allocated and never moved) — cache them on hot paths.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// `bounds` is only used on first creation; later lookups of the same
  /// series ignore it.
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> bounds = {});
  /// Windowed series; `window_s` is used on first creation (0 falls back to
  /// RollupConfig::window_s, then 1 s).
  Windowed& windowed(const std::string& name, const Labels& labels = {},
                     double window_s = 0.0);

  /// Series registered so far (all kinds).
  std::size_t size() const;

  /// Sum of every counter series with this name (any labels); 0 if absent.
  double counter_total(const std::string& name) const;
  /// First histogram series with this name (any labels); nullptr if absent.
  const Histogram* find_histogram(const std::string& name) const;
  /// First windowed series with this name (any labels); nullptr if absent.
  const Windowed* find_windowed(const std::string& name) const;

  /// One exported row per series, sorted by (name, canonical labels).
  struct Row {
    std::string type;  // "counter" | "gauge" | "histogram" | "windowed"
    std::string name;
    Labels labels;             // sorted by key
    double value = 0.0;        // counter/gauge value; histogram/windowed sum
    const Histogram* hist = nullptr;  // non-null for histogram rows
    const Windowed* win = nullptr;    // non-null for windowed rows
  };
  std::vector<Row> rows() const;

  /// {"schema":"dlion-metrics-v2","metrics":[{...}, ...]} — see DESIGN.md
  /// for the exact shape.
  std::string to_json() const;
  /// Header: type,name,labels,value,count,sum,min,max,p50,p90,p99
  /// (dlion-metrics-csv-v1; windowed rows fill count/sum/min/max).
  std::string to_csv() const;

 private:
  template <typename T>
  using SeriesMap =
      std::map<std::pair<std::string, std::string>,  // (name, canonical)
               std::pair<Labels, std::unique_ptr<T>>>;

  /// Apply the rollup label rewrite (worker -> micro-cloud group).
  Labels resolve_labels(const Labels& labels) const;

  RollupConfig rollup_;
  /// Series creation is single-threaded by contract (handles are
  /// cached by recorders; the registry itself takes no lock). Checked in
  /// debug/sanitize builds.
  common::ThreadAffinity affinity_;
  SeriesMap<Counter> counters_;
  SeriesMap<Gauge> gauges_;
  SeriesMap<Histogram> histograms_;
  SeriesMap<Windowed> windowed_;
};

}  // namespace dlion::obs
