// Shared JSON string escaping for the observability exporters.
//
// One definition of string escaping for every obs exporter (metrics JSON,
// Chrome trace JSON, telemetry JSON) so the formats cannot drift apart.
// Header-only; no dependencies beyond the standard library.
#pragma once

#include <cstdio>
#include <string>

namespace dlion::obs {

/// Minimal JSON string escaping (quotes, backslash, control characters).
/// The output is what goes *between* the surrounding double quotes.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace dlion::obs
