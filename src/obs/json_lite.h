// Minimal JSON document model + recursive-descent parser.
//
// Shared by the observability tests, which validate exporter output with
// it, and the fuzz harnesses, which drive the same parser. Just enough
// JSON to read what the exporters write, with no external dependencies.
// Escapes are decoded loosely (\uXXXX maps to '?'); numbers use strtod.
// Header-only.
//
// Hardened after fuzzing: value() recursion is depth-limited
// (kMaxParseDepth) so hostile inputs like 100k nested '[' fail cleanly with
// `false` instead of overflowing the stack (found by fuzz/fuzz_json.cpp;
// regression seed fuzz/corpus/json/deep_nesting).
#pragma once

#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace dlion::obs::jsonlite {

/// Recursion budget for nested arrays/objects. Generous for every document
/// the exporters emit (they nest < 10 deep) while keeping worst-case stack
/// use bounded on hostile input.
inline constexpr int kMaxParseDepth = 192;

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json& out) { return value(out, 0) && (ws(), pos_ == s_.size()); }

 private:
  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        if (e == 'u') {
          if (pos_ + 5 >= s_.size()) return false;
          pos_ += 6;
          out += '?';
          continue;
        }
        out += (e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e);
        pos_ += 2;
      } else {
        out += s_[pos_++];
      }
    }
    return eat('"');
  }
  bool value(Json& out, int depth) {
    if (depth > kMaxParseDepth) return false;  // bounded recursion
    ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Json::kObject;
      if (eat('}')) return true;
      do {
        std::string key;
        if (!string(key) || !eat(':')) return false;
        Json v;
        if (!value(v, depth + 1)) return false;
        out.object.emplace(std::move(key), std::move(v));
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++pos_;
      out.kind = Json::kArray;
      if (eat(']')) return true;
      do {
        Json v;
        if (!value(v, depth + 1)) return false;
        out.array.push_back(std::move(v));
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      out.kind = Json::kString;
      return string(out.str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out.kind = Json::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.kind = Json::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      out.kind = Json::kNull;
      pos_ += 4;
      return true;
    }
    // Number.
    const std::size_t start = pos_;
    if (s_[pos_] == '-' || s_[pos_] == '+') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = Json::kNumber;
    out.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace dlion::obs::jsonlite
