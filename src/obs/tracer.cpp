#include "obs/tracer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <ostream>

#include "obs/json_util.h"
#include "obs/trace_format.h"
#include "obs/trace_sink.h"

namespace dlion::obs {

namespace trace_format {

namespace {

/// Longest number the trace format prints untruncated (trace_format.h).
constexpr std::ptrdiff_t kMaxNumber = 47;

/// `v` as printf's "%.*f" (fixed) or "%.*g" (general) prints it into
/// kMaxNumber + 1 bytes: a longer number goes through that snprintf, which
/// truncates it.
void append_double(std::string& out, double v, std::chars_format fmt,
                   int precision) {
  char buf[kMaxNumber + 1];
  const auto r = std::to_chars(buf, buf + kMaxNumber, v, fmt, precision);
  if (r.ec == std::errc{}) {
    out.append(buf, r.ptr);
    return;
  }
  std::snprintf(buf, sizeof(buf),
                fmt == std::chars_format::fixed ? "%.*f" : "%.*g", precision,
                v);
  out += buf;
}

void append_uint(std::string& out, std::uint64_t v, int base = 10) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v, base);
  out.append(buf, r.ptr);
}

void append_ids(std::string& out, std::uint32_t pid, std::uint32_t tid) {
  out += ",\"pid\":";
  append_uint(out, pid);
  out += ",\"tid\":";
  append_uint(out, tid);
}

void append_args(std::string& out, const std::vector<Tracer::Arg>& args) {
  out += ",\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    append_escaped(out, args[i].key);
    out += "\":";
    append_value(out, args[i].value);
  }
  out += '}';
}

}  // namespace

void append_us(std::string& out, double seconds) {
  append_double(out, seconds * 1e6, std::chars_format::fixed, 3);
}

void append_value(std::string& out, double v) {
  append_double(out, v, std::chars_format::general, 9);
}

void append_hex(std::string& out, std::uint64_t id) {
  out += "0x";
  append_uint(out, id, 16);
}

void append_escaped(std::string& out, const std::string& s) {
  const bool plain = std::none_of(s.begin(), s.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  if (plain) {
    out += s;
  } else {
    out += json_escape(s);
  }
}

void append_process_meta(std::string& out, std::uint32_t pid,
                         const std::string& process) {
  out += "{\"ph\":\"M\",\"name\":\"process_name\"";
  append_ids(out, pid, 0);
  out += ",\"args\":{\"name\":\"";
  append_escaped(out, process);
  out += "\"}}";
}

void append_thread_meta(std::string& out, std::uint32_t pid,
                        std::uint32_t tid, const std::string& thread) {
  out += "{\"ph\":\"M\",\"name\":\"thread_name\"";
  append_ids(out, pid, tid);
  out += ",\"args\":{\"name\":\"";
  append_escaped(out, thread);
  out += "\"}}";
}

void append_span(std::string& out, const Tracer::Span& s, std::uint32_t pid,
                 std::uint32_t tid) {
  out += "{\"ph\":\"X\",\"name\":\"";
  append_escaped(out, s.name);
  out += "\",\"ts\":";
  append_us(out, s.t0);
  out += ",\"dur\":";
  append_us(out, s.t1 - s.t0);
  append_ids(out, pid, tid);
  append_args(out, s.args);
  out += '}';
}

void append_instant(std::string& out, const Tracer::Instant& i,
                    std::uint32_t pid, std::uint32_t tid) {
  out += "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"";
  append_escaped(out, i.name);
  out += "\",\"ts\":";
  append_us(out, i.t);
  append_ids(out, pid, tid);
  append_args(out, i.args);
  out += '}';
}

void append_sample(std::string& out, const Tracer::Sample& c,
                   std::uint32_t pid, std::uint32_t tid) {
  out += "{\"ph\":\"C\",\"name\":\"";
  append_escaped(out, c.name);
  out += "\",\"ts\":";
  append_us(out, c.t);
  append_ids(out, pid, tid);
  out += ",\"args\":{\"value\":";
  append_value(out, c.value);
  out += "}}";
}

void append_flow(std::string& out, const Tracer::Flow& f, std::uint32_t pid,
                 std::uint32_t tid) {
  out += "{\"ph\":\"";
  out += f.phase == Tracer::FlowPhase::kStart  ? 's'
         : f.phase == Tracer::FlowPhase::kStep ? 't'
                                               : 'f';
  out += "\",\"cat\":\"flow\",\"name\":\"";
  append_escaped(out, f.name);
  // The 64-bit flow id goes out as a hex string: JSON numbers are doubles
  // in most viewers and would silently round ids above 2^53.
  out += "\",\"id\":\"";
  append_hex(out, f.id);
  out += "\",\"ts\":";
  append_us(out, f.t);
  append_ids(out, pid, tid);
  // Bind the finish point to its enclosing slice (Chrome flow semantics).
  if (f.phase == Tracer::FlowPhase::kEnd) out += ",\"bp\":\"e\"";
  out += '}';
}

}  // namespace trace_format

namespace {

/// First digit run in a lane name ("worker 0012" -> 12, "link 3->4" -> 3);
/// false when the name has no digits.
bool parse_first_uint(const std::string& s, std::uint64_t& out) {
  std::size_t i = 0;
  while (i < s.size() &&
         !std::isdigit(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  if (i == s.size()) return false;
  out = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    out = out * 10 + static_cast<std::uint64_t>(s[i] - '0');
    ++i;
  }
  return true;
}

std::size_t args_bytes(const std::vector<Tracer::Arg>& args) {
  std::size_t n = args.size() * sizeof(Tracer::Arg);
  for (const Tracer::Arg& a : args) n += a.key.size();
  return n;
}

}  // namespace

Tracer::TrackSample Tracer::sample_state(const std::string& thread) const {
  TrackSample ts;
  if (!sample_.track_sampling()) return ts;  // everything sampled
  std::uint64_t id = 0;
  if (!parse_first_uint(thread, id)) return ts;  // non-numeric lanes kept
  ts.sampled = (id % sample_.track_stride) == 0;
  ts.head_left = ts.sampled ? 0 : sample_.head_events_per_track;
  return ts;
}

bool Tracer::admit(TrackId track, double t0, double t1) {
  if (!sample_.track_sampling()) return true;
  if (in_window(t0, t1)) return true;
  TrackSample& ts = tsample_[track - 1];
  if (ts.sampled) return true;
  if (ts.head_left > 0) {
    --ts.head_left;
    return true;
  }
  return false;
}

TrackId Tracer::track(const std::string& process, const std::string& thread) {
  DLION_AFFINITY_DCHECK(affinity_);
  const auto key = std::make_pair(process, thread);
  auto it = track_index_.find(key);
  if (it != track_index_.end()) return it->second;

  auto pid_it = pids_.find(process);
  if (pid_it == pids_.end()) {
    pid_it = pids_.emplace(process,
                           static_cast<std::uint32_t>(pids_.size() + 1))
                 .first;
  }
  Track t;
  t.pid = pid_it->second;
  t.tid = static_cast<std::uint32_t>(tracks_.size() + 1);
  t.process = process;
  t.thread = thread;
  tracks_.push_back(std::move(t));
  open_.emplace_back();
  tsample_.push_back(sample_state(thread));
  const TrackId id = static_cast<TrackId>(tracks_.size());  // 1-based
  track_index_.emplace(key, id);
  if (sink_ != nullptr) {
    const Track& nt = tracks_.back();
    sink_->on_track(id, nt.pid, nt.tid, nt.process, nt.thread);
  }
  return id;
}

void Tracer::set_sink(ChromeStreamSink* sink) {
  sink_ = sink;
  if (sink_ == nullptr) return;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const Track& t = tracks_[i];
    sink_->on_track(static_cast<TrackId>(i + 1), t.pid, t.tid, t.process,
                    t.thread);
  }
}

void Tracer::finish() {
  if (sink_ != nullptr) sink_->finish();
}

void Tracer::set_sampling(const TraceSampleConfig& cfg) {
  sample_ = cfg;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    tsample_[i] = sample_state(tracks_[i].thread);
  }
}

void Tracer::begin(TrackId track, std::string name, double t,
                   std::vector<Arg> args) {
  if (track == 0 || track > tracks_.size()) return;
  open_[track - 1].push_back(Open{std::move(name), t, std::move(args)});
}

std::vector<Tracer::Arg> Tracer::recycled_args() {
  DLION_AFFINITY_DCHECK(affinity_);
  if (spare_args_.empty()) return {};
  std::vector<Arg> args = std::move(spare_args_.back());
  spare_args_.pop_back();
  return args;
}

void Tracer::recycle(std::vector<Arg>&& args) {
  if (args.capacity() == 0 || spare_args_.size() >= kSpareArgs) return;
  args.clear();
  spare_args_.push_back(std::move(args));
}

void Tracer::record_span(Span&& s) {
  DLION_AFFINITY_DCHECK(affinity_);
  if (!admit(s.track, s.t0, s.t1)) {
    ++sampled_out_;
    recycle(std::move(s.args));
    return;
  }
  ++admitted_;
  if (sink_ != nullptr) sink_->on_span(s);
  if (retain_all_ || in_window(s.t0, s.t1)) {
    retained_bytes_ += sizeof(Span) + s.name.size() + args_bytes(s.args);
    reserve_growth(spans_);
    spans_.push_back(std::move(s));
  } else {
    recycle(std::move(s.args));
  }
}

void Tracer::end(TrackId track, double t) {
  if (track == 0 || track > tracks_.size()) return;
  auto& stack = open_[track - 1];
  if (stack.empty()) return;  // unmatched end: ignore
  Open span = std::move(stack.back());
  stack.pop_back();
  record_span(
      Span{track, std::move(span.name), span.t0, t, std::move(span.args)});
}

void Tracer::complete(TrackId track, std::string name, double t0, double t1,
                      std::vector<Arg> args) {
  if (track == 0 || track > tracks_.size()) return;
  record_span(Span{track, std::move(name), t0, t1, std::move(args)});
}

void Tracer::instant(TrackId track, std::string name, double t,
                     std::vector<Arg> args) {
  DLION_AFFINITY_DCHECK(affinity_);
  if (track == 0 || track > tracks_.size()) return;
  if (!admit(track, t, t)) {
    ++sampled_out_;
    recycle(std::move(args));
    return;
  }
  ++admitted_;
  Instant i{track, std::move(name), t, std::move(args)};
  if (sink_ != nullptr) sink_->on_instant(i);
  if (retain_all_ || in_window(t, t)) {
    retained_bytes_ += sizeof(Instant) + i.name.size() + args_bytes(i.args);
    reserve_growth(instants_);
    instants_.push_back(std::move(i));
  } else {
    recycle(std::move(i.args));
  }
}

void Tracer::counter(TrackId track, std::string name, double t, double value) {
  DLION_AFFINITY_DCHECK(affinity_);
  if (track == 0 || track > tracks_.size()) return;
  if (!admit(track, t, t)) {
    ++sampled_out_;
    return;
  }
  ++admitted_;
  Sample c{track, std::move(name), t, value};
  if (sink_ != nullptr) sink_->on_sample(c);
  if (retain_all_ || in_window(t, t)) {
    retained_bytes_ += sizeof(Sample) + c.name.size();
    reserve_growth(samples_);
    samples_.push_back(std::move(c));
  }
}

void Tracer::flow(TrackId track, FlowPhase phase, std::string name, double t,
                  std::uint64_t id) {
  DLION_AFFINITY_DCHECK(affinity_);
  if (track == 0 || track > tracks_.size() || id == 0) return;
  // Flow admission keys off the chain's deterministic sequence number so
  // the s/t/f points of one chain live or die together (track sampling
  // would strand arrows between kept and dropped lanes).
  if (sample_.flow_sampling() && !in_window(t, t) &&
      (flow_seq(id) % sample_.flow_stride) != 0) {
    ++sampled_out_;
    return;
  }
  ++admitted_;
  Flow f{track, phase, std::move(name), t, id};
  if (sink_ != nullptr) sink_->on_flow(f);
  if (retain_all_ || in_window(t, t)) {
    retained_bytes_ += sizeof(Flow) + f.name.size();
    reserve_growth(flows_);
    flows_.push_back(std::move(f));
  }
}

const std::string& Tracer::track_process(TrackId id) const {
  static const std::string kEmpty;
  if (id == 0 || id > tracks_.size()) return kEmpty;
  return tracks_[id - 1].process;
}

const std::string& Tracer::track_thread(TrackId id) const {
  static const std::string kEmpty;
  if (id == 0 || id > tracks_.size()) return kEmpty;
  return tracks_[id - 1].thread;
}

std::uint32_t Tracer::track_pid(TrackId id) const {
  if (id == 0 || id > tracks_.size()) return 0;
  return tracks_[id - 1].pid;
}

std::uint32_t Tracer::track_tid(TrackId id) const {
  if (id == 0 || id > tracks_.size()) return 0;
  return tracks_[id - 1].tid;
}

std::size_t Tracer::open_spans() const {
  std::size_t n = 0;
  for (const auto& stack : open_) n += stack.size();
  return n;
}

void Tracer::clear() {
  for (auto& stack : open_) stack.clear();
  spans_.clear();
  instants_.clear();
  samples_.clear();
  flows_.clear();
  admitted_ = 0;
  sampled_out_ = 0;
  retained_bytes_ = 0;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    tsample_[i] = sample_state(tracks_[i].thread);
  }
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: process names (one per pid), then thread names per track.
  for (const auto& [process, pid] : pids_) {
    sep();
    trace_format::append_process_meta(out, pid, process);
  }
  for (const Track& t : tracks_) {
    sep();
    trace_format::append_thread_meta(out, t.pid, t.tid, t.thread);
  }

  auto pidtid = [this](TrackId id) -> const Track& {
    return tracks_[id - 1];
  };
  for (const Span& s : spans_) {
    sep();
    const Track& t = pidtid(s.track);
    trace_format::append_span(out, s, t.pid, t.tid);
  }
  for (const Flow& f : flows_) {
    sep();
    const Track& t = pidtid(f.track);
    trace_format::append_flow(out, f, t.pid, t.tid);
  }
  for (const Instant& i : instants_) {
    sep();
    const Track& t = pidtid(i.track);
    trace_format::append_instant(out, i, t.pid, t.tid);
  }
  for (const Sample& c : samples_) {
    sep();
    const Track& t = pidtid(c.track);
    trace_format::append_sample(out, c, t.pid, t.tid);
  }
  out += "\n]}";
  return out;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  out << chrome_json();
}

}  // namespace dlion::obs
