// Span tracer on simulated time.
//
// Records begin/end (or pre-measured complete) spans, instant events, and
// counter samples on named *tracks* — (process, thread) pairs that map to
// Chrome trace-event pid/tid — and exports Chrome trace-event JSON that
// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Timestamps are simulated seconds (common::SimTime); the exporter scales
// them to the format's microseconds. Recording never reads wall clocks,
// never draws randomness, and never schedules simulation events, so an
// attached tracer cannot perturb a run (the determinism contract in
// DESIGN.md). Storage is append-only vectors; one recorded span costs a
// push_back.
//
// Scale mode (DESIGN.md "Observability at scale"): for large-N runs the
// tracer can (a) stream admitted events to a ChromeStreamSink as they close
// instead of — or in addition to — retaining them, and (b) sample
// deterministically via TraceSampleConfig, keyed off track ids and flow
// sequence numbers, never entropy. Both default off: an unconfigured
// Tracer behaves exactly as before (retain everything, no sink).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_affinity.h"

namespace dlion::obs {

/// Opaque track handle; 0 is reserved as "invalid / not yet created".
using TrackId = std::uint32_t;

class ChromeStreamSink;  // obs/trace_sink.h

/// Deterministic sampling policy for large-N traces. Every decision is a
/// pure function of (track name, flow id, event time) — same run, same
/// sampled trace, at any DLION_THREADS.
struct TraceSampleConfig {
  /// Keep every event on tracks whose numeric id — the first digit run in
  /// the thread name ("worker 0012" -> 12, "link 0003->0004" -> 3) —
  /// satisfies id % track_stride == 0. Tracks without digits ("control",
  /// "tier") are always kept: they are low-volume by construction.
  /// 1 keeps every track (sampling off).
  std::uint64_t track_stride = 1;
  /// Per-track head budget: the first N span/instant/sample events of a
  /// sampled-out track are kept anyway, so every lane shows its startup
  /// shape. 0 = none.
  std::uint64_t head_events_per_track = 0;
  /// Keep flow chains whose sequence number — (id & flow_seq_mask) —
  /// satisfies seq % flow_stride == 0. The same decision applies to the
  /// s/t/f points of one chain (they share the id), so sampled chains stay
  /// whole. 1 keeps every flow.
  std::uint64_t flow_stride = 1;
  /// Low-bit mask isolating the per-source sequence counter inside a flow
  /// id. The default matches comm::make_flow_id's layout (kFlowSeqBits low
  /// bits are the deterministic per-sender sequence).
  std::uint64_t flow_seq_mask = (std::uint64_t{1} << 40) - 1;
  /// Full-fidelity window [full_t0, full_t1): every event overlapping it is
  /// admitted AND retained regardless of the strides, so critical-path
  /// attribution over the window sees an unsampled trace. Empty (t1 <= t0)
  /// by default. Flow chains straddling a window edge may be partial.
  double full_t0 = 0.0;
  double full_t1 = 0.0;

  bool track_sampling() const { return track_stride > 1; }
  bool flow_sampling() const { return flow_stride > 1; }
  bool window_active() const { return full_t1 > full_t0; }
};

class Tracer {
 public:
  /// One numeric span/instant argument (rendered in the trace viewer's
  /// detail pane).
  struct Arg {
    std::string key;
    double value = 0.0;
  };

  struct Span {
    TrackId track = 0;
    std::string name;
    double t0 = 0.0;  // seconds
    double t1 = 0.0;
    std::vector<Arg> args;
  };
  struct Instant {
    TrackId track = 0;
    std::string name;
    double t = 0.0;
    std::vector<Arg> args;
  };
  struct Sample {
    TrackId track = 0;
    std::string name;
    double t = 0.0;
    double value = 0.0;
  };

  /// One point of a cross-track causal flow (Chrome flow events). A flow id
  /// links a `kStart` point on the producing track, any number of `kStep`
  /// points (e.g. the network-link transmission), and a `kEnd` point on the
  /// consuming track; trace viewers render the chain as arrows.
  enum class FlowPhase : std::uint8_t { kStart, kStep, kEnd };
  struct Flow {
    TrackId track = 0;
    FlowPhase phase = FlowPhase::kStart;
    std::string name;
    double t = 0.0;
    std::uint64_t id = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Find-or-create the track for (process, thread). Processes group
  /// tracks in the viewer ("workers", "network", "fabric"); threads are
  /// the individual swim lanes ("worker 0", "link 0->1").
  TrackId track(const std::string& process, const std::string& thread);

  /// Begin/end spans nest per track (LIFO). `end` without a matching
  /// `begin` is ignored; spans still open at export time are dropped.
  void begin(TrackId track, std::string name, double t,
             std::vector<Arg> args = {});
  void end(TrackId track, double t);

  /// A span whose duration is already known (emitted once, at schedule or
  /// completion time).
  void complete(TrackId track, std::string name, double t0, double t1,
                std::vector<Arg> args = {});

  void instant(TrackId track, std::string name, double t,
               std::vector<Arg> args = {});

  /// An empty args vector for the next span or instant. It reuses the
  /// buffer of an event the tracer did not retain (streamed only, or
  /// sampled out), so a hot call site that fills it and passes it back
  /// records streamed events without allocating (the network's tx span).
  std::vector<Arg> recycled_args();

  /// Counter sample: rendered as a stepped chart track ("C" event).
  void counter(TrackId track, std::string name, double t, double value);

  /// Record one point of causal flow `id` on `track` at time `t`. Exported
  /// as Chrome flow events (`ph:"s"/"t"/"f"`); viewers draw arrows between
  /// the slices that enclose each point's (track, t). Ids must be non-zero
  /// and should be deterministic (see comm::make_flow_id).
  void flow(TrackId track, FlowPhase phase, std::string name, double t,
            std::uint64_t id);

  // ----------------------------------------------------------- scale mode

  /// Attach a streaming sink (non-owning; nullptr detaches). Admitted
  /// events are forwarded as they close; already-known tracks are replayed
  /// to the new sink immediately. Call finish() when the run ends so the
  /// sink can close its output.
  void set_sink(ChromeStreamSink* sink);
  /// Forwards to the sink's finish() (no-op without one).
  void finish();

  /// Install the deterministic sampling policy. Rejected events are
  /// counted (`sampled_out_events`) and never reach the sink or storage.
  /// Per-track head budgets reset to the new config.
  void set_sampling(const TraceSampleConfig& cfg);
  const TraceSampleConfig& sampling() const { return sample_; }

  /// When false, admitted events are forwarded to the sink but stored only
  /// if they overlap the sampling config's full-fidelity window — memory
  /// becomes O(window + head budgets) instead of O(events). Default true
  /// (retain everything; the pre-scale behavior).
  void set_retain_all(bool retain) { retain_all_ = retain; }
  bool retain_all() const { return retain_all_; }

  /// Events past the sampler (= forwarded to the sink, if any).
  std::uint64_t admitted_events() const { return admitted_; }
  /// Events rejected by the sampler.
  std::uint64_t sampled_out_events() const { return sampled_out_; }
  /// Approximate heap footprint of the *retained* events (struct +
  /// name/arg payload bytes; excludes vector slack and track metadata).
  std::size_t retained_bytes() const { return retained_bytes_; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Instant>& instants() const { return instants_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<Flow>& flows() const { return flows_; }
  std::size_t event_count() const {
    return spans_.size() + instants_.size() + samples_.size() + flows_.size();
  }
  std::size_t open_spans() const;
  std::size_t track_count() const { return tracks_.size(); }

  /// Track metadata lookup (1-based ids; empty strings for invalid ids).
  const std::string& track_process(TrackId id) const;
  const std::string& track_thread(TrackId id) const;
  std::uint32_t track_pid(TrackId id) const;
  std::uint32_t track_tid(TrackId id) const;

  void clear();

  /// Chrome trace-event JSON ({"traceEvents":[...]}), deterministic:
  /// metadata first (sorted by pid/tid), then spans, instants, and counter
  /// samples in recording order.
  std::string chrome_json() const;
  void write_chrome_json(std::ostream& out) const;

 private:
  struct Track {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::string process;
    std::string thread;
  };
  struct Open {
    std::string name;
    double t0 = 0.0;
    std::vector<Arg> args;
  };
  /// Per-track sampling state, recomputed by set_sampling().
  struct TrackSample {
    bool sampled = true;
    std::uint64_t head_left = 0;
  };

  /// Hot-path growth policy: pre-reserve a sizeable first block and then
  /// double, so a long run's recording cost is dominated by the push_back
  /// itself rather than early reallocation churn.
  template <typename T>
  static void reserve_growth(std::vector<T>& v) {
    if (v.size() == v.capacity()) {
      v.reserve(v.capacity() == 0 ? 1024 : v.capacity() * 2);
    }
  }

  TrackSample sample_state(const std::string& thread) const;
  bool in_window(double t0, double t1) const {
    return sample_.window_active() && t1 >= sample_.full_t0 &&
           t0 < sample_.full_t1;
  }
  /// Span/instant/sample admission; consumes head budget on sampled-out
  /// tracks.
  bool admit(TrackId track, double t0, double t1);
  void record_span(Span&& s);
  /// Keep the buffer of an event's args that will not be retained.
  void recycle(std::vector<Arg>&& args);

  std::vector<Track> tracks_;                      // index = TrackId - 1
  std::map<std::pair<std::string, std::string>, TrackId> track_index_;
  std::map<std::string, std::uint32_t> pids_;      // process -> pid
  std::vector<std::vector<Open>> open_;            // per-track span stacks
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::vector<Sample> samples_;
  std::vector<Flow> flows_;
  /// Cleared args buffers for recycled_args(); at most kSpareArgs.
  static constexpr std::size_t kSpareArgs = 16;
  std::vector<std::vector<Arg>> spare_args_;

  ChromeStreamSink* sink_ = nullptr;  // non-owning, optional
  /// Recording is single-threaded by contract (no lock on the hot path);
  /// debug/sanitize builds verify every mutating entry point stays on the
  /// binding thread (common/thread_affinity.h).
  common::ThreadAffinity affinity_;
  TraceSampleConfig sample_;
  std::vector<TrackSample> tsample_;  // index = TrackId - 1
  bool retain_all_ = true;
  std::uint64_t admitted_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::size_t retained_bytes_ = 0;
};

}  // namespace dlion::obs
