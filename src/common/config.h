// Key/value configuration with typed getters and a tiny CLI parser.
//
// Bench binaries accept "--key=value" flags (e.g. --scale=paper --seed=7) and
// fall back to DLION_<KEY> environment variables, so experiments can be
// re-run at different scales without recompiling.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace dlion::common {

class Config {
 public:
  Config() = default;

  /// Parse "--key=value" and "--flag" arguments. Non-flag arguments are
  /// ignored. Later flags override earlier ones.
  static Config from_args(int argc, const char* const* argv);

  void set(std::string key, std::string value);
  bool contains(std::string_view key) const;

  /// Typed getters return `fallback` when the key is unset. A set value
  /// must parse whole — an integer, a number, or one of true|1|yes|on and
  /// false|0|no|off — or the getter throws std::invalid_argument naming
  /// the flag.
  std::string get_string(std::string_view key, std::string fallback) const;
  long long get_int(std::string_view key, long long fallback) const;
  double get_double(std::string_view key, double fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

  /// Looks up the key in the config, then in the environment as
  /// DLION_<KEY-upper-cased> (with '-' mapped to '_').
  std::optional<std::string> lookup(std::string_view key) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace dlion::common
