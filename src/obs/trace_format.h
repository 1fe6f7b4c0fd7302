// Chrome trace-event JSON record appenders shared by the batch exporter
// (Tracer::chrome_json) and the streaming sink (obs/trace_sink.h), so the
// two paths emit byte-identical event records. Every record appender
// appends one complete JSON object (no separators, no enclosing array) to
// `out`; callers reuse one buffer, so a warmed record costs no allocation.
//
// The byte format is printf's in the "C" locale, printed into a 48-byte
// buffer: timestamps "%.3f" of µs, values "%.9g", flow ids "0x%llx". So a
// number longer than 47 characters (e.g. "%.3f" of 1e300) is cut to 47.
// Trace digests hash these bytes, so they must not drift. Numbers go
// through std::to_chars, which is specified to print exactly what printf
// does; the rare number too long for 47 characters goes through snprintf
// itself, which truncates it.
#pragma once

#include <cstdint>
#include <string>

#include "obs/tracer.h"

namespace dlion::obs::trace_format {

/// Microsecond timestamp with nanosecond resolution ("%.3f" of µs).
void append_us(std::string& out, double seconds);
/// Argument/counter value ("%.9g").
void append_value(std::string& out, double v);
/// Flow id as a lowercase hex literal ("0x%llx").
void append_hex(std::string& out, std::uint64_t id);
/// `s` JSON-escaped (obs::json_escape), without the quotes.
void append_escaped(std::string& out, const std::string& s);

void append_process_meta(std::string& out, std::uint32_t pid,
                         const std::string& process);
void append_thread_meta(std::string& out, std::uint32_t pid,
                        std::uint32_t tid, const std::string& thread);
void append_span(std::string& out, const Tracer::Span& s, std::uint32_t pid,
                 std::uint32_t tid);
void append_instant(std::string& out, const Tracer::Instant& i,
                    std::uint32_t pid, std::uint32_t tid);
void append_sample(std::string& out, const Tracer::Sample& c,
                   std::uint32_t pid, std::uint32_t tid);
void append_flow(std::string& out, const Tracer::Flow& f, std::uint32_t pid,
                 std::uint32_t tid);

}  // namespace dlion::obs::trace_format
