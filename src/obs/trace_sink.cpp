#include "obs/trace_sink.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace_format.h"

namespace dlion::obs {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv1a(std::uint64_t& hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
}

}  // namespace

ChromeStreamSink::ChromeStreamSink(std::ostream& out) : out_(&out) {}

ChromeStreamSink::ChromeStreamSink(const std::string& path)
    : file_(path, std::ios::trunc), out_(&file_) {
  if (!file_.is_open()) {
    throw std::runtime_error("ChromeStreamSink: cannot open '" + path + "'");
  }
}

ChromeStreamSink::~ChromeStreamSink() { finish(); }

void ChromeStreamSink::emit(const std::string& event_json) {
  DLION_AFFINITY_DCHECK(affinity_);
  std::string chunk;
  if (first_) {
    chunk = "{\"traceEvents\":[";
    first_ = false;
  } else {
    chunk = ",\n";
  }
  chunk += event_json;
  *out_ << chunk;
  bytes_ += chunk.size();
  fnv1a(hash_, chunk);
  ++events_;
}

std::pair<std::uint32_t, std::uint32_t> ChromeStreamSink::ids(
    TrackId id) const {
  if (id == 0 || id > tracks_.size()) return {0, 0};
  return tracks_[id - 1];
}

void ChromeStreamSink::on_track(TrackId id, std::uint32_t pid,
                                std::uint32_t tid, const std::string& process,
                                const std::string& thread) {
  if (tracks_.size() < id) tracks_.resize(id);
  tracks_[id - 1] = {pid, tid};
  if (std::find(pids_named_.begin(), pids_named_.end(), pid) ==
      pids_named_.end()) {
    pids_named_.push_back(pid);
    emit(trace_format::process_meta(pid, process));
  }
  emit(trace_format::thread_meta(pid, tid, thread));
}

void ChromeStreamSink::on_span(const Tracer::Span& s) {
  const auto [pid, tid] = ids(s.track);
  emit(trace_format::span_event(s, pid, tid));
}

void ChromeStreamSink::on_instant(const Tracer::Instant& i) {
  const auto [pid, tid] = ids(i.track);
  emit(trace_format::instant_event(i, pid, tid));
}

void ChromeStreamSink::on_sample(const Tracer::Sample& c) {
  const auto [pid, tid] = ids(c.track);
  emit(trace_format::sample_event(c, pid, tid));
}

void ChromeStreamSink::on_flow(const Tracer::Flow& f) {
  const auto [pid, tid] = ids(f.track);
  emit(trace_format::flow_event(f, pid, tid));
}

void ChromeStreamSink::finish() {
  if (finished_) return;
  finished_ = true;
  std::string tail = first_ ? std::string("{\"traceEvents\":[\n]}")
                            : std::string("\n]}");
  *out_ << tail;
  bytes_ += tail.size();
  fnv1a(hash_, tail);
  out_->flush();
}

}  // namespace dlion::obs
