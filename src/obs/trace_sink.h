// Streaming trace sink: consumes admitted Tracer events as they are
// recorded (spans as they close) instead of letting them accumulate in the
// tracer's vectors — the memory story for 1,000-worker runs (DESIGN.md
// "Observability at scale").
//
// ChromeStreamSink is an incremental Chrome trace-event JSON writer. It
// emits the {"traceEvents":[ header up front, one event object per
// callback (track metadata interleaved as tracks appear, which Perfetto
// and chrome://tracing both accept), and the closing ]} on finish(). Event
// records are appended by obs/trace_format.h into one reused line buffer,
// so a streamed event is byte-identical to its batch-exported twin and a
// warmed sink formats records without allocating. It keeps a running FNV-1a
// checksum of everything written — the determinism fingerprint the scale
// tests compare across DLION_THREADS values.
//
// The sink is driven synchronously from the recording thread; like the
// tracer itself it never reads wall clocks or draws randomness.
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/tracer.h"

namespace dlion::obs {

/// Incremental Chrome-JSON writer. The output is a valid trace file once
/// finish() has run (and most viewers tolerate a truncated tail, so even
/// a crashed run's stream loads). Callbacks fire in recording order
/// (deterministic for a deterministic run).
class ChromeStreamSink {
 public:
  /// Stream to a caller-owned ostream (kept by reference; must outlive
  /// the sink).
  explicit ChromeStreamSink(std::ostream& out);
  /// Stream to a file (owned; truncated). Throws std::runtime_error when
  /// the file cannot be opened.
  explicit ChromeStreamSink(const std::string& path);
  ~ChromeStreamSink();

  /// A new track was registered (or replayed on attach). `id` is 1-based
  /// and dense; pid/tid match the batch exporter's numbering.
  void on_track(TrackId id, std::uint32_t pid, std::uint32_t tid,
                const std::string& process, const std::string& thread);
  void on_span(const Tracer::Span& s);
  void on_instant(const Tracer::Instant& i);
  void on_sample(const Tracer::Sample& c);
  void on_flow(const Tracer::Flow& f);
  /// The run is over: write the closing bracket and flush. Idempotent.
  void finish();

  std::uint64_t events_written() const { return events_; }
  std::uint64_t bytes_written() const { return bytes_; }
  /// FNV-1a 64 over every byte emitted (header and separators included).
  std::uint64_t checksum() const { return hash_; }

 private:
  /// Clear the reused line buffer, start it with the separator (or the
  /// file header) and return it for one record to be appended.
  std::string& begin_record();
  /// Write, count and hash the line buffer.
  void emit();
  std::pair<std::uint32_t, std::uint32_t> ids(TrackId id) const;

  std::ofstream file_;   // engaged only for the path constructor
  std::ostream* out_;    // points at file_ or the caller's stream
  bool first_ = true;
  bool finished_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::string line_;  // one record with its separator; reused
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tracks_;  // id-1 -> (pid,tid)
  std::vector<std::uint32_t> pids_named_;
  /// Driven synchronously from the recording thread (single-threaded by
  /// contract; checked in debug/sanitize builds).
  common::ThreadAffinity affinity_;
};

}  // namespace dlion::obs
