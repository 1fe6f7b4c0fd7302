#include "comm/message.h"

namespace dlion::comm {

namespace {

// Header bytes of each data-lane struct: every scalar field (4 B for a
// u32, 8 B for a u64 or double) plus a u32 count per array it carries.
constexpr common::Bytes kGradientHeader = 20;
constexpr common::Bytes kPerVarHeader = 16;  // one VariableGrad
constexpr common::Bytes kSnapshotHeader = 24;
// Control messages are charged a flat size, not the bytes of their fields.
constexpr common::Bytes kControlBytes = 64;

}  // namespace

std::size_t GradientUpdate::num_entries() const {
  std::size_t n = 0;
  for (const auto& v : vars) n += v.num_entries();
  return n;
}

double GradientUpdate::density(std::size_t model_params) const {
  if (model_params == 0) return 0.0;
  return static_cast<double>(num_entries()) /
         static_cast<double>(model_params);
}

const char* message_type_name(std::size_t variant_index) {
  static constexpr const char* kNames[] = {
      "GradientUpdate", "WeightSnapshot", "LossReport",
      "DktRequest",     "RcpReport",      "Heartbeat",
      "Ack",            "RosterUpdate",   "BootstrapRequest",
      "BootstrapChunk", "ModelPublish"};
  static_assert(std::variant_size_v<Message> ==
                    sizeof(kNames) / sizeof(kNames[0]),
                "message_type_name: update kNames for new Message types");
  return variant_index < std::variant_size_v<Message> ? kNames[variant_index]
                                                      : "Unknown";
}

const char* message_type_name(const Message& msg) {
  return message_type_name(msg.index());
}

bool is_control(const Message& msg) {
  return std::holds_alternative<LossReport>(msg) ||
         std::holds_alternative<DktRequest>(msg) ||
         std::holds_alternative<RcpReport>(msg) ||
         std::holds_alternative<Heartbeat>(msg) ||
         std::holds_alternative<Ack>(msg);
}

std::size_t payload_bytes(const Message& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GradientUpdate>) {
          std::size_t bytes = 0;
          for (const auto& v : m.vars) {
            bytes += v.indices.size() * sizeof(std::uint32_t) +
                     v.values.size() * sizeof(float);
          }
          return bytes;
        } else if constexpr (std::is_same_v<T, WeightSnapshot>) {
          return m.weights.num_values() * sizeof(float);
        } else {
          return 0;
        }
      },
      msg);
}

common::Bytes wire_bytes(const GradientUpdate& update) {
  common::Bytes bytes = kGradientHeader;
  for (const auto& v : update.vars) {
    bytes += kPerVarHeader + v.indices.size() * sizeof(std::uint32_t) +
             v.values.size() * sizeof(float);
  }
  return bytes;
}

common::Bytes wire_bytes(const Message& msg) {
  return std::visit(
      [](const auto& m) -> common::Bytes {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GradientUpdate>) {
          return wire_bytes(m);
        } else if constexpr (std::is_same_v<T, WeightSnapshot>) {
          // The header, then a u32 length and the floats of each part.
          return kSnapshotHeader +
                 m.weights.parts.size() * sizeof(std::uint32_t) +
                 m.weights.num_values() * sizeof(float);
        } else {
          return kControlBytes;
        }
      },
      msg);
}

}  // namespace dlion::comm
