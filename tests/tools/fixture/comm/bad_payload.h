// Lint fixture header (never compiled): lives under a `comm/` directory so
// the dlion-owned-payload rule audits it. Line numbers are asserted by
// lint_tool_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

struct BadDataLaneMessage {
  std::uint32_t var_index = 0;
  std::vector<std::uint32_t> indices;  // line 11: owned payload member
  std::vector<float> values;           // line 12: owned payload member
};

inline void grow(BadDataLaneMessage& m) {
  m.indices.push_back(1);    // line 16: element-wise payload growth
  m.values.push_back(2.0f);  // line 17: element-wise payload growth
}

struct EscapedScratch {
  // An owned vector the rule should not flag: escaped inline.
  std::vector<float> scratch;  // dlion-lint: allow(dlion-owned-payload)
};
