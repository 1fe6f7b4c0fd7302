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

std::string& ChromeStreamSink::begin_record() {
  DLION_AFFINITY_DCHECK(affinity_);
  line_.assign(first_ ? "{\"traceEvents\":[" : ",\n");
  first_ = false;
  return line_;
}

void ChromeStreamSink::emit() {
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  bytes_ += line_.size();
  fnv1a(hash_, line_);
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
    trace_format::append_process_meta(begin_record(), pid, process);
    emit();
  }
  trace_format::append_thread_meta(begin_record(), pid, tid, thread);
  emit();
}

void ChromeStreamSink::on_span(const Tracer::Span& s) {
  const auto [pid, tid] = ids(s.track);
  trace_format::append_span(begin_record(), s, pid, tid);
  emit();
}

void ChromeStreamSink::on_instant(const Tracer::Instant& i) {
  const auto [pid, tid] = ids(i.track);
  trace_format::append_instant(begin_record(), i, pid, tid);
  emit();
}

void ChromeStreamSink::on_sample(const Tracer::Sample& c) {
  const auto [pid, tid] = ids(c.track);
  trace_format::append_sample(begin_record(), c, pid, tid);
  emit();
}

void ChromeStreamSink::on_flow(const Tracer::Flow& f) {
  const auto [pid, tid] = ids(f.track);
  trace_format::append_flow(begin_record(), f, pid, tid);
  emit();
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
