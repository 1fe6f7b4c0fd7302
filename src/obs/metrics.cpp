#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "obs/json_util.h"
#include "obs/track_names.h"

namespace dlion::obs {

namespace {

/// Shortest-faithful double formatting (round-trippable, locale-free).
std::string fmt_double(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  // Integers (the common case for counters) print without a fraction.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = std::strtod(buf, nullptr);
  if (parsed == v) {
    // Try shorter forms for readability.
    for (int prec = 6; prec < 17; ++prec) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    out += json_escape(labels[i].first);
    out += "\":\"";
    out += json_escape(labels[i].second);
    out += '"';
  }
  out += "}";
  return out;
}

}  // namespace

std::string canonical_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ",";
    out += labels[i].first + "=" + labels[i].second;
  }
  return out;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_time_bounds();
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i] > bounds_[i - 1])) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  sum_ += v;
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
}

double Histogram::observed_min() const {
  return count_ == 0 ? std::nan("") : min_;
}

double Histogram::observed_max() const {
  return count_ == 0 ? std::nan("") : max_;
}

double Histogram::mean() const {
  return count_ == 0 ? std::nan("") : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return std::nan("");
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (cum + c < rank || c == 0.0) {
      cum += c;
      continue;
    }
    // Target rank falls inside bucket b: interpolate linearly between the
    // bucket's edges. The first bucket's lower edge is the observed min;
    // the overflow bucket's upper edge is the observed max.
    const double lo = b == 0 ? min_ : bounds_[b - 1];
    const double hi = b == counts_.size() - 1 ? max_ : bounds_[b];
    const double frac = c > 0.0 ? (rank - cum) / c : 0.0;
    return std::clamp(lo + (hi - lo) * frac, min_, max_);
  }
  return max_;
}

std::vector<double> Histogram::default_time_bounds() {
  // 1 µs .. 1000 s, four log-spaced buckets per decade.
  std::vector<double> b;
  for (int decade = -6; decade <= 2; ++decade) {
    const double base = std::pow(10.0, decade);
    for (double m : {1.0, 1.778, 3.162, 5.623}) b.push_back(base * m);
  }
  b.push_back(1e3);
  return b;
}

std::vector<double> Histogram::default_size_bounds() {
  // 1 .. 1e9, three log-spaced buckets per decade.
  std::vector<double> b;
  for (int decade = 0; decade <= 8; ++decade) {
    const double base = std::pow(10.0, decade);
    for (double m : {1.0, 2.154, 4.642}) b.push_back(base * m);
  }
  b.push_back(1e9);
  return b;
}

// ----------------------------------------------------------------- Windowed

Windowed::Windowed(double window_s)
    : window_s_(window_s > 0.0 ? window_s : 1.0) {}

WindowStats& Windowed::at_window(std::uint64_t w) {
  // Fast path: observations arrive in nondecreasing time, so the target is
  // almost always the last (or a brand-new) window.
  if (!windows_.empty() && windows_.back().window == w) {
    return windows_.back();
  }
  if (windows_.empty() || windows_.back().window < w) {
    windows_.push_back(WindowStats{w, 0, 0.0, 0.0, 0.0});
    return windows_.back();
  }
  const auto it = std::lower_bound(
      windows_.begin(), windows_.end(), w,
      [](const WindowStats& s, std::uint64_t x) { return s.window < x; });
  if (it != windows_.end() && it->window == w) return *it;
  return *windows_.insert(it, WindowStats{w, 0, 0.0, 0.0, 0.0});
}

void Windowed::observe(double t, double v) {
  const std::uint64_t w =
      t <= 0.0 ? 0 : static_cast<std::uint64_t>(t / window_s_);
  WindowStats& s = at_window(w);
  if (s.count == 0 || v < s.min) s.min = v;
  if (s.count == 0 || v > s.max) s.max = v;
  s.sum += v;
  ++s.count;
}

std::uint64_t Windowed::count() const {
  std::uint64_t n = 0;
  for (const WindowStats& s : windows_) n += s.count;
  return n;
}

double Windowed::sum() const {
  double total = 0.0;
  for (const WindowStats& s : windows_) total += s.sum;
  return total;
}

double Windowed::observed_min() const {
  double m = 0.0;
  bool any = false;
  for (const WindowStats& s : windows_) {
    if (s.count == 0) continue;
    if (!any || s.min < m) m = s.min;
    any = true;
  }
  return any ? m : std::nan("");
}

double Windowed::observed_max() const {
  double m = 0.0;
  bool any = false;
  for (const WindowStats& s : windows_) {
    if (s.count == 0) continue;
    if (!any || s.max > m) m = s.max;
    any = true;
  }
  return any ? m : std::nan("");
}

// ---------------------------------------------------------- MetricsRegistry

Labels MetricsRegistry::resolve_labels(const Labels& labels) const {
  if (rollup_.worker_group <= 1) return labels;
  Labels out = labels;
  for (auto& [key, value] : out) {
    if (key != "worker" || value.empty()) continue;
    bool digits = true;
    std::size_t id = 0;
    for (char c : value) {
      if (c < '0' || c > '9') {
        digits = false;
        break;
      }
      id = id * 10 + static_cast<std::size_t>(c - '0');
    }
    if (!digits) continue;
    key = "mc";
    value = id_str(id / rollup_.worker_group);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& raw_labels) {
  DLION_AFFINITY_DCHECK(affinity_);
  const Labels labels = resolve_labels(raw_labels);
  auto key = std::make_pair(name, canonical_labels(labels));
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it = counters_
             .emplace(std::move(key), std::make_pair(std::move(sorted),
                                                     std::make_unique<Counter>()))
             .first;
  }
  return *it->second.second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const Labels& raw_labels) {
  DLION_AFFINITY_DCHECK(affinity_);
  const Labels labels = resolve_labels(raw_labels);
  auto key = std::make_pair(name, canonical_labels(labels));
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it = gauges_
             .emplace(std::move(key), std::make_pair(std::move(sorted),
                                                     std::make_unique<Gauge>()))
             .first;
  }
  return *it->second.second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& raw_labels,
                                      std::vector<double> bounds) {
  DLION_AFFINITY_DCHECK(affinity_);
  const Labels labels = resolve_labels(raw_labels);
  auto key = std::make_pair(name, canonical_labels(labels));
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it = histograms_
             .emplace(std::move(key),
                      std::make_pair(std::move(sorted),
                                     std::make_unique<Histogram>(
                                         std::move(bounds))))
             .first;
  }
  return *it->second.second;
}

Windowed& MetricsRegistry::windowed(const std::string& name,
                                    const Labels& raw_labels,
                                    double window_s) {
  DLION_AFFINITY_DCHECK(affinity_);
  const Labels labels = resolve_labels(raw_labels);
  auto key = std::make_pair(name, canonical_labels(labels));
  auto it = windowed_.find(key);
  if (it == windowed_.end()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    const double w = window_s > 0.0
                         ? window_s
                         : (rollup_.window_s > 0.0 ? rollup_.window_s : 1.0);
    it = windowed_
             .emplace(std::move(key),
                      std::make_pair(std::move(sorted),
                                     std::make_unique<Windowed>(w)))
             .first;
  }
  return *it->second.second;
}

std::size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size() +
         windowed_.size();
}

double MetricsRegistry::counter_total(const std::string& name) const {
  double total = 0.0;
  for (auto it = counters_.lower_bound({name, std::string()});
       it != counters_.end() && it->first.first == name; ++it) {
    total += it->second.second->value();
  }
  return total;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.lower_bound({name, std::string()});
  if (it != histograms_.end() && it->first.first == name) {
    return it->second.second.get();
  }
  return nullptr;
}

const Windowed* MetricsRegistry::find_windowed(const std::string& name) const {
  auto it = windowed_.lower_bound({name, std::string()});
  if (it != windowed_.end() && it->first.first == name) {
    return it->second.second.get();
  }
  return nullptr;
}

std::vector<MetricsRegistry::Row> MetricsRegistry::rows() const {
  std::vector<Row> out;
  out.reserve(size());
  for (const auto& [key, entry] : counters_) {
    out.push_back({"counter", key.first, entry.first,
                   entry.second->value(), nullptr});
  }
  for (const auto& [key, entry] : gauges_) {
    out.push_back({"gauge", key.first, entry.first, entry.second->value(),
                   nullptr});
  }
  for (const auto& [key, entry] : histograms_) {
    out.push_back({"histogram", key.first, entry.first,
                   entry.second->sum(), entry.second.get(), nullptr});
  }
  for (const auto& [key, entry] : windowed_) {
    out.push_back({"windowed", key.first, entry.first, entry.second->sum(),
                   nullptr, entry.second.get()});
  }
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    if (a.name != b.name) return a.name < b.name;
    if (a.type != b.type) return a.type < b.type;
    return canonical_labels(a.labels) < canonical_labels(b.labels);
  });
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"schema\":\"dlion-metrics-v2\",\"metrics\":[";
  bool first = true;
  for (const Row& r : rows()) {
    if (!first) out += ",";
    first = false;
    out += "{\"type\":\"" + json_escape(r.type) + "\",\"name\":\"" +
           json_escape(r.name) + "\",\"labels\":" + labels_json(r.labels);
    if (r.win != nullptr) {
      const Windowed& w = *r.win;
      out += ",\"window_s\":" + fmt_double(w.window_s());
      out += ",\"count\":" + fmt_double(static_cast<double>(w.count()));
      out += ",\"sum\":" + fmt_double(w.sum());
      out += ",\"windows\":[";
      bool wfirst = true;
      for (const WindowStats& s : w.windows()) {
        if (s.count == 0) continue;  // sparse export
        if (!wfirst) out += ",";
        wfirst = false;
        out += "{\"w\":" + fmt_double(static_cast<double>(s.window)) +
               ",\"count\":" + fmt_double(static_cast<double>(s.count)) +
               ",\"sum\":" + fmt_double(s.sum) +
               ",\"min\":" + fmt_double(s.min) +
               ",\"max\":" + fmt_double(s.max) + "}";
      }
      out += "]";
    } else if (r.hist == nullptr) {
      out += ",\"value\":" + fmt_double(r.value);
    } else {
      const Histogram& h = *r.hist;
      out += ",\"count\":" + fmt_double(static_cast<double>(h.count()));
      out += ",\"sum\":" + fmt_double(h.sum());
      out += ",\"min\":" + fmt_double(h.observed_min());
      out += ",\"max\":" + fmt_double(h.observed_max());
      out += ",\"p50\":" + fmt_double(h.quantile(0.50));
      out += ",\"p90\":" + fmt_double(h.quantile(0.90));
      out += ",\"p99\":" + fmt_double(h.quantile(0.99));
      out += ",\"buckets\":[";
      bool bfirst = true;
      for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
        if (h.bucket_counts()[b] == 0) continue;  // sparse export
        if (!bfirst) out += ",";
        bfirst = false;
        const double le = b < h.bounds().size()
                              ? h.bounds()[b]
                              : std::numeric_limits<double>::infinity();
        out += "{\"le\":" + fmt_double(le) + ",\"count\":" +
               fmt_double(static_cast<double>(h.bucket_counts()[b])) + "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace dlion::obs
