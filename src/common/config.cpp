#include "common/config.h"

#include <cstdlib>
#include <stdexcept>

namespace dlion::common {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      cfg.set(std::string(arg), "true");
    } else {
      cfg.set(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    }
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool Config::contains(std::string_view key) const {
  return lookup(key).has_value();
}

std::optional<std::string> Config::lookup(std::string_view key) const {
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  std::string env_key = "DLION_";
  for (char c : key) {
    env_key.push_back(c == '-' ? '_'
                               : static_cast<char>(std::toupper(
                                     static_cast<unsigned char>(c))));
  }
  if (const char* env = std::getenv(env_key.c_str()); env != nullptr) {
    return std::string(env);
  }
  return std::nullopt;
}

std::string Config::get_string(std::string_view key,
                               std::string fallback) const {
  if (auto v = lookup(key)) return *v;
  return fallback;
}

namespace {

[[noreturn]] void reject(std::string_view key, const std::string& value,
                         const char* want) {
  std::string msg = "--";
  msg += key;
  msg += "=";
  msg += value;
  msg += ": expected ";
  msg += want;
  throw std::invalid_argument(msg);
}

}  // namespace

long long Config::get_int(std::string_view key, long long fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  std::size_t used = 0;
  try {
    const long long parsed = std::stoll(*v, &used);
    if (used == v->size()) return parsed;
  } catch (const std::exception&) {  // invalid_argument / out_of_range
  }
  reject(key, *v, "an integer");
}

double Config::get_double(std::string_view key, double fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  std::size_t used = 0;
  try {
    const double parsed = std::stod(*v, &used);
    if (used == v->size()) return parsed;
  } catch (const std::exception&) {  // invalid_argument / out_of_range
  }
  reject(key, *v, "a number");
}

bool Config::get_bool(std::string_view key, bool fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  reject(key, *v, "true|1|yes|on or false|0|no|off");
}

}  // namespace dlion::common
