#include "obs/critical_path.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/json_util.h"

namespace dlion::obs {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::string fmt(double v) {
  if (std::isnan(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Lane classification parsed from the track's (process, thread) names.
struct Lane {
  enum Kind { kWorker, kLink, kOther } kind = kOther;
  std::size_t worker = kNone;            // kWorker
  std::size_t from = kNone, to = kNone;  // kLink
  std::string name;                      // thread name ("worker 3", ...)
  std::vector<std::size_t> by_t1;        // span indices sorted by (t1,t0,i)
  std::vector<std::size_t> by_t0;        // span indices sorted by (t0,i)
};

Lane::Kind classify(const std::string& process, const std::string& thread,
                    std::size_t* worker, std::size_t* from, std::size_t* to) {
  if (process == "workers") {
    unsigned w = 0;
    if (std::sscanf(thread.c_str(), "worker %u", &w) == 1) {
      *worker = w;
      return Lane::kWorker;
    }
  }
  if (process == "network") {
    unsigned a = 0, b = 0;
    if (std::sscanf(thread.c_str(), "link %u->%u", &a, &b) == 2) {
      *from = a;
      *to = b;
      return Lane::kLink;
    }
  }
  return Lane::kOther;
}

PathCategory body_category(const std::string& span_name, Lane::Kind kind) {
  if (span_name == "compute" || span_name == "apply") {
    return PathCategory::kCompute;
  }
  if (span_name == "tx") return PathCategory::kTransfer;
  if (span_name == "stall") return PathCategory::kStall;
  if (span_name == "dkt_pull") return PathCategory::kDkt;
  return kind == Lane::kLink ? PathCategory::kTransfer
                             : PathCategory::kCompute;
}

/// Tie-break priority when candidate predecessors finish simultaneously:
/// real work beats waiting.
int span_priority(const std::string& name) {
  if (name == "tx" || name == "compute" || name == "apply") return 3;
  if (name == "dkt_pull") return 2;
  if (name == "stall") return 1;
  return 0;
}

struct Candidate {
  std::size_t span = kNone;
  bool causal = false;  ///< reached via a flow link (not program order)
};

}  // namespace

const char* path_category_name(PathCategory c) {
  switch (c) {
    case PathCategory::kCompute: return "compute";
    case PathCategory::kTransfer: return "transfer";
    case PathCategory::kQueue: return "queue";
    case PathCategory::kStall: return "stall";
    case PathCategory::kDkt: return "dkt";
  }
  return "?";
}

double LaneAttribution::total() const {
  double s = 0.0;
  for (double v : seconds) s += v;
  return s;
}

double EpochWindow::total() const {
  double s = 0.0;
  for (double v : seconds) s += v;
  return s;
}

double EpochWindow::fraction(PathCategory c) const {
  const double t = total();
  return t > 0.0 ? seconds[static_cast<std::size_t>(c)] / t : 0.0;
}

double CriticalPathReport::category_fraction(PathCategory c) const {
  const double t = total_seconds();
  return t > 0.0 ? category_seconds[static_cast<std::size_t>(c)] / t : 0.0;
}

CriticalPathReport compute_critical_path(const Tracer& tracer,
                                         const CriticalPathOptions& options) {
  CriticalPathReport report;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  if (spans.empty()) return report;

  // --- Lanes ---
  const std::size_t n_tracks = tracer.track_count();
  std::vector<Lane> lanes(n_tracks + 1);  // index = TrackId (1-based)
  for (TrackId id = 1; id <= n_tracks; ++id) {
    Lane& lane = lanes[id];
    lane.name = tracer.track_thread(id);
    lane.kind = classify(tracer.track_process(id), lane.name, &lane.worker,
                         &lane.from, &lane.to);
  }
  // Sanitize at the ingestion boundary: a trace loaded from disk (or a
  // tracer driven by buggy instrumentation) can hold spans that run
  // backwards, carry non-finite endpoints, or reference tracks that don't
  // exist. Such spans cannot be placed on any causal path — admitting one
  // would let t_end precede t_start in a "valid" report (found by
  // fuzz/fuzz_critical_path.cpp; regression seed
  // fuzz/corpus/critical_path/inverted_times). They are skipped wholesale:
  // the analysis sees only well-formed spans.
  std::vector<std::size_t> usable;
  usable.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (!(s.t1 >= s.t0) || !std::isfinite(s.t0) || !std::isfinite(s.t1)) {
      continue;  // backwards or NaN/inf span: corrupt
    }
    if (s.track < 1 || s.track > n_tracks) continue;  // unknown lane
    usable.push_back(i);
    lanes[s.track].by_t1.push_back(i);
    lanes[s.track].by_t0.push_back(i);
  }
  if (usable.empty()) return report;  // nothing well-formed: invalid
  for (Lane& lane : lanes) {
    std::sort(lane.by_t1.begin(), lane.by_t1.end(),
              [&spans](std::size_t a, std::size_t b) {
                if (spans[a].t1 != spans[b].t1) return spans[a].t1 < spans[b].t1;
                if (spans[a].t0 != spans[b].t0) return spans[a].t0 < spans[b].t0;
                return a < b;
              });
    std::sort(lane.by_t0.begin(), lane.by_t0.end(),
              [&spans](std::size_t a, std::size_t b) {
                if (spans[a].t0 != spans[b].t0) return spans[a].t0 < spans[b].t0;
                return a < b;
              });
  }

  // --- Flow indices ---
  // Per flow id: where it started, stepped (the link tx), and ended.
  struct FlowPoints {
    TrackId start_track = 0;
    double start_t = 0.0;
    TrackId step_track = 0;
    double step_t = 0.0;
    bool has_start = false, has_step = false;
  };
  std::map<std::uint64_t, FlowPoints> flow_points;
  // Delivery points: (receiver track, t) -> flow ids ending there.
  std::map<std::pair<TrackId, double>, std::vector<std::uint64_t>> ends_at;
  // Transmission points: (link track, t) -> flow ids stepping there.
  std::map<std::pair<TrackId, double>, std::vector<std::uint64_t>> steps_at;
  for (const Tracer::Flow& f : tracer.flows()) {
    FlowPoints& p = flow_points[f.id];
    switch (f.phase) {
      case Tracer::FlowPhase::kStart:
        if (!p.has_start) {
          p.start_track = f.track;
          p.start_t = f.t;
          p.has_start = true;
        }
        break;
      case Tracer::FlowPhase::kStep:
        if (!p.has_step) {
          p.step_track = f.track;
          p.step_t = f.t;
          p.has_step = true;
        }
        steps_at[{f.track, f.t}].push_back(f.id);
        break;
      case Tracer::FlowPhase::kEnd:
        ends_at[{f.track, f.t}].push_back(f.id);
        break;
    }
  }

  // Latest span on `track` finishing at or before `t` (program order).
  auto lane_pred = [&](TrackId track, double t) -> std::size_t {
    const Lane& lane = lanes[track];
    // Last index in by_t1 with t1 <= t.
    std::size_t lo = 0, hi = lane.by_t1.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (spans[lane.by_t1[mid]].t1 <= t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) return kNone;
    // Among equal-t1 spans, prefer real work over waiting (then recording
    // order) so ties break deterministically.
    std::size_t best = lane.by_t1[lo - 1];
    const double t1 = spans[best].t1;
    for (std::size_t k = lo; k-- > 0;) {
      const std::size_t cand = lane.by_t1[k];
      if (spans[cand].t1 != t1) break;
      if (span_priority(spans[cand].name) > span_priority(spans[best].name) ||
          (span_priority(spans[cand].name) ==
               span_priority(spans[best].name) &&
           cand > best)) {
        best = cand;
      }
    }
    return best;
  };

  // The tx span starting exactly at (track, t) — the slice a flow step
  // points into.
  auto tx_at = [&](TrackId track, double t) -> std::size_t {
    const Lane& lane = lanes[track];
    std::size_t lo = 0, hi = lane.by_t0.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (spans[lane.by_t0[mid]].t0 < t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < lane.by_t0.size() && spans[lane.by_t0[lo]].t0 == t) {
      return lane.by_t0[lo];
    }
    return kNone;
  };

  // --- Terminal node: the last span to finish (prefer worker lanes, then
  // later start, then recording order). ---
  std::size_t terminal = usable.front();
  for (const std::size_t i : usable) {
    const Tracer::Span& a = spans[i];
    const Tracer::Span& b = spans[terminal];
    const bool a_worker = lanes[a.track].kind == Lane::kWorker;
    const bool b_worker = lanes[b.track].kind == Lane::kWorker;
    if (a.t1 != b.t1 ? a.t1 > b.t1
                     : (a_worker != b_worker ? a_worker
                                             : (a.t0 != b.t0 ? a.t0 > b.t0
                                                             : i > terminal))) {
      terminal = i;
    }
  }

  // --- Backward walk ---
  std::vector<std::size_t> chain;
  std::size_t cur = terminal;
  const std::size_t guard = spans.size() + tracer.flows().size() + 8;
  for (std::size_t step = 0; step < guard; ++step) {
    chain.push_back(cur);
    const Tracer::Span& x = spans[cur];

    // A usable predecessor finished by the time x started and is not a
    // same-instant zero-duration twin (two deliveries at one timestamp
    // must not make the walk ping-pong between their apply spans).
    auto acceptable = [&](std::size_t p) {
      return p != kNone && p != cur && spans[p].t1 <= x.t0 &&
             !(spans[p].t0 == x.t0 && spans[p].t1 == x.t1);
    };

    std::vector<Candidate> cands;
    // 1. Program-order predecessor on the same lane.
    if (std::size_t p = lane_pred(x.track, x.t0); acceptable(p)) {
      cands.push_back(Candidate{p, false});
    }
    // 2. Causal predecessors: flows delivered exactly at this span's start
    //    (the fabric records flow-end just before the handler runs, so an
    //    "apply" span — or a compute span the delivery unblocked — starts
    //    at the delivery timestamp). Each maps to the link tx slice that
    //    carried it.
    if (auto it = ends_at.find({x.track, x.t0}); it != ends_at.end()) {
      for (std::uint64_t id : it->second) {
        auto fp = flow_points.find(id);
        if (fp == flow_points.end() || !fp->second.has_step) continue;
        const std::size_t tx =
            tx_at(fp->second.step_track, fp->second.step_t);
        if (acceptable(tx)) cands.push_back(Candidate{tx, true});
      }
    }
    // 3. A tx slice's causal predecessor: the sender-side span enclosing
    //    the flow start (program-order latest at the transmit instant).
    if (lanes[x.track].kind == Lane::kLink) {
      if (auto it = steps_at.find({x.track, x.t0}); it != steps_at.end()) {
        for (std::uint64_t id : it->second) {
          auto fp = flow_points.find(id);
          if (fp == flow_points.end() || !fp->second.has_start) continue;
          const std::size_t p =
              lane_pred(fp->second.start_track, fp->second.start_t);
          if (acceptable(p)) cands.push_back(Candidate{p, true});
        }
      }
    }
    if (cands.empty()) break;

    // A stall ends *because* something arrived: when a causal candidate
    // exists, waiting never wins over the transfer that released it.
    bool any_causal = false;
    for (const Candidate& c : cands) any_causal |= c.causal;
    std::size_t best = kNone;
    for (const Candidate& c : cands) {
      if (any_causal && !c.causal && spans[c.span].name == "stall") continue;
      if (best == kNone) {
        best = c.span;
        continue;
      }
      const Tracer::Span& a = spans[c.span];
      const Tracer::Span& b = spans[best];
      if (a.t1 != b.t1
              ? a.t1 > b.t1
              : (span_priority(a.name) != span_priority(b.name)
                     ? span_priority(a.name) > span_priority(b.name)
                     : c.span > best)) {
        best = c.span;
      }
    }
    if (best == kNone) break;
    cur = best;
  }
  std::reverse(chain.begin(), chain.end());

  // --- Segments (contiguous: they tile [t_start, t_end] exactly) ---
  report.valid = true;
  report.t_start = spans[chain.front()].t0;
  report.t_end = spans[chain.back()].t1;

  auto push_segment = [&report](double t0, double t1, PathCategory cat,
                                const std::string& lane,
                                const std::string& name) {
    if (t1 <= t0) return;
    report.segments.push_back(PathSegment{t0, t1, cat, lane, name});
  };

  // Does [g0, g1] intersect a stall span on this lane?
  auto gap_is_stall = [&](TrackId track, double g0, double g1) {
    for (std::size_t i : lanes[track].by_t1) {
      const Tracer::Span& s = spans[i];
      if (s.name == "stall" && s.t0 < g1 && s.t1 > g0) return true;
    }
    return false;
  };

  for (std::size_t k = 0; k < chain.size(); ++k) {
    const Tracer::Span& x = spans[chain[k]];
    const Lane& xl = lanes[x.track];
    if (k > 0) {
      const Tracer::Span& p = spans[chain[k - 1]];
      const Lane& pl = lanes[p.track];
      if (x.t0 > p.t1) {
        // The causally-unexplained gap between the predecessor's finish
        // and this node's start.
        if (pl.kind == Lane::kLink && xl.kind == Lane::kWorker) {
          // Transmission done, handler not yet run: propagation latency.
          push_segment(p.t1, x.t0, PathCategory::kTransfer, pl.name,
                       "(latency)");
        } else if (xl.kind == Lane::kLink) {
          // Waiting for the link (FIFO queue / fair-share backlog).
          push_segment(p.t1, x.t0, PathCategory::kQueue, xl.name, "(queue)");
        } else if (gap_is_stall(x.track, p.t1, x.t0)) {
          push_segment(p.t1, x.t0, PathCategory::kStall, xl.name, "(stall)");
        } else {
          push_segment(p.t1, x.t0, PathCategory::kQueue, xl.name, "(queue)");
        }
      }
    }
    push_segment(x.t0, x.t1, body_category(x.name, xl.kind), xl.name, x.name);
  }

  // --- Attribution ---
  std::map<std::string, LaneAttribution> worker_attr, link_attr;
  for (const PathSegment& s : report.segments) {
    const double d = s.seconds();
    report.category_seconds[static_cast<std::size_t>(s.category)] += d;
    const bool is_link = s.lane.compare(0, 5, "link ") == 0;
    auto& attr = is_link ? link_attr : worker_attr;
    LaneAttribution& la = attr[s.lane];
    la.lane = s.lane;
    la.seconds[static_cast<std::size_t>(s.category)] += d;
  }
  auto flatten = [](std::map<std::string, LaneAttribution>& m) {
    std::vector<LaneAttribution> v;
    v.reserve(m.size());
    for (auto& [name, la] : m) v.push_back(std::move(la));
    std::sort(v.begin(), v.end(),
              [](const LaneAttribution& a, const LaneAttribution& b) {
                const double ta = a.total(), tb = b.total();
                if (ta != tb) return ta > tb;
                return a.lane < b.lane;
              });
    return v;
  };
  report.workers = flatten(worker_attr);
  report.links = flatten(link_attr);
  if (!report.workers.empty()) report.straggler = report.workers.front().lane;
  double best_link = -1.0;
  for (const LaneAttribution& la : report.links) {
    const double tq =
        la.seconds[static_cast<std::size_t>(PathCategory::kTransfer)] +
        la.seconds[static_cast<std::size_t>(PathCategory::kQueue)];
    if (tq > best_link) {
      best_link = tq;
      report.bottleneck_link = la.lane;
    }
  }

  // --- Epoch windows ---
  if (options.epoch_seconds > 0.0 && report.t_end > report.t_start) {
    const double e = options.epoch_seconds;
    const double w0 = std::floor(report.t_start / e) * e;
    for (double t = w0; t < report.t_end; t += e) {
      EpochWindow w;
      w.t0 = std::max(t, report.t_start);
      w.t1 = std::min(t + e, report.t_end);
      report.epochs.push_back(w);
    }
    for (const PathSegment& s : report.segments) {
      for (EpochWindow& w : report.epochs) {
        const double o0 = std::max(s.t0, w.t0);
        const double o1 = std::min(s.t1, w.t1);
        if (o1 > o0) {
          w.seconds[static_cast<std::size_t>(s.category)] += o1 - o0;
        }
      }
    }
  }
  return report;
}

std::string CriticalPathReport::to_json() const {
  std::string out = "{";
  out += "\"valid\":" + std::string(valid ? "true" : "false");
  out += ",\"t_start\":" + fmt(t_start);
  out += ",\"t_end\":" + fmt(t_end);
  out += ",\"total_seconds\":" + fmt(total_seconds());
  out += ",\"categories\":{";
  for (std::size_t c = 0; c < kNumPathCategories; ++c) {
    if (c != 0) out += ",";
    out += '"';
    out += path_category_name(static_cast<PathCategory>(c));
    out += "\":{\"seconds\":" + fmt(category_seconds[c]) + ",\"fraction\":" +
           fmt(category_fraction(static_cast<PathCategory>(c))) + "}";
  }
  out += "}";
  auto lanes_json = [](const std::vector<LaneAttribution>& lanes) {
    std::string s = "[";
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (i != 0) s += ",";
      s += "{\"lane\":\"" + json_escape(lanes[i].lane) + "\"";
      for (std::size_t c = 0; c < kNumPathCategories; ++c) {
        s += ",\"" + std::string(path_category_name(
                         static_cast<PathCategory>(c))) +
             "\":" + fmt(lanes[i].seconds[c]);
      }
      s += ",\"total\":" + fmt(lanes[i].total()) + "}";
    }
    return s + "]";
  };
  out += ",\"workers\":" + lanes_json(workers);
  out += ",\"links\":" + lanes_json(links);
  out += ",\"straggler\":\"" + json_escape(straggler) + "\"";
  out += ",\"bottleneck_link\":\"" + json_escape(bottleneck_link) + "\"";
  out += ",\"epochs\":[";
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (i != 0) out += ",";
    const EpochWindow& w = epochs[i];
    out += "{\"t0\":" + fmt(w.t0) + ",\"t1\":" + fmt(w.t1);
    out += ",\"total\":" + fmt(w.total());
    for (std::size_t c = 0; c < kNumPathCategories; ++c) {
      out += ",\"" + std::string(path_category_name(
                         static_cast<PathCategory>(c))) +
             "\":" + fmt(w.seconds[c]);
    }
    out += ",\"fractions\":{";
    for (std::size_t c = 0; c < kNumPathCategories; ++c) {
      if (c != 0) out += ",";
      out += "\"" + std::string(path_category_name(
                        static_cast<PathCategory>(c))) +
             "\":" + fmt(w.fraction(static_cast<PathCategory>(c)));
    }
    out += "}}";
  }
  out += "]";
  out += ",\"segments\":[";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i != 0) out += ",";
    const PathSegment& s = segments[i];
    out += "{\"t0\":" + fmt(s.t0) + ",\"t1\":" + fmt(s.t1);
    out += ",\"category\":\"" +
           std::string(path_category_name(s.category)) + "\"";
    out += ",\"lane\":\"" + json_escape(s.lane) + "\"";
    out += ",\"name\":\"" + json_escape(s.span_name) + "\"}";
  }
  out += "]}";
  return out;
}

std::string CriticalPathReport::attribution_table() const {
  if (!valid) return "critical path: (no spans recorded)\n";
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "critical path: %.3f s  (t = %.3f .. %.3f, %zu segments)\n",
                total_seconds(), t_start, t_end, segments.size());
  out += buf;
  for (std::size_t c = 0; c < kNumPathCategories; ++c) {
    std::snprintf(buf, sizeof(buf), "  %-9s %10.3f s  %5.1f%%\n",
                  path_category_name(static_cast<PathCategory>(c)),
                  category_seconds[c],
                  100.0 * category_fraction(static_cast<PathCategory>(c)));
    out += buf;
  }
  if (!straggler.empty()) {
    double s = 0.0;
    for (const LaneAttribution& la : workers) {
      if (la.lane == straggler) s = la.total();
    }
    std::snprintf(buf, sizeof(buf), "straggler: %s (%.3f s on path)\n",
                  straggler.c_str(), s);
    out += buf;
  }
  if (!bottleneck_link.empty()) {
    double tx = 0.0, q = 0.0;
    for (const LaneAttribution& la : links) {
      if (la.lane == bottleneck_link) {
        tx = la.seconds[static_cast<std::size_t>(PathCategory::kTransfer)];
        q = la.seconds[static_cast<std::size_t>(PathCategory::kQueue)];
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "bottleneck link: %s (%.3f s transfer + %.3f s queue)\n",
                  bottleneck_link.c_str(), tx, q);
    out += buf;
  }
  auto table = [&out, &buf](const char* title,
                            const std::vector<LaneAttribution>& lanes) {
    if (lanes.empty()) return;
    out += "\n";
    out += title;
    out += "\n  lane            compute   transfer      queue      stall"
           "        dkt      total\n";
    for (const LaneAttribution& la : lanes) {
      std::snprintf(buf, sizeof(buf),
                    "  %-12s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                    la.lane.c_str(), la.seconds[0], la.seconds[1],
                    la.seconds[2], la.seconds[3], la.seconds[4], la.total());
      out += buf;
    }
  };
  table("per-worker on-path seconds:", workers);
  table("per-link on-path seconds:", links);
  if (!epochs.empty()) {
    out += "\nper-epoch category fractions:\n"
           "  window                 compute transfer    queue    stall"
           "      dkt\n";
    for (const EpochWindow& w : epochs) {
      std::snprintf(buf, sizeof(buf),
                    "  [%8.1f, %8.1f)  %7.3f  %7.3f  %7.3f  %7.3f  %7.3f\n",
                    w.t0, w.t1, w.fraction(PathCategory::kCompute),
                    w.fraction(PathCategory::kTransfer),
                    w.fraction(PathCategory::kQueue),
                    w.fraction(PathCategory::kStall),
                    w.fraction(PathCategory::kDkt));
      out += buf;
    }
  }
  return out;
}

}  // namespace dlion::obs
