// v1 text rules, moved verbatim from the original single-TU linter.
// Their regexes and messages are a compatibility contract: the golden
// transcript test (tests/tools fixture expected_v1_output.txt) fails on any
// byte-level drift in what they emit.
#include <cstddef>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "../rules.h"

namespace dlion_lint {

// Rule: dlion-nondet-unordered-iteration
// Collect identifiers declared with std::unordered_{map,set} anywhere in the
// file, then flag range-for loops or .begin()/.end()/iterator walks over them
// — but only in TUs that also write run artifacts (JSON/CSV/checksums),
// because that's where visit order becomes observable output.
void rule_unordered_iteration(const FileContext& ctx, Emit diags) {
  static const std::regex decl_re(
      R"(std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s*>?\s*([A-Za-z_]\w*)\s*[;{=\(])");
  static const std::regex member_re(
      R"(std::unordered_(?:map|set|multimap|multiset)\s*<.*>\s+([A-Za-z_]\w*)_?\s*;)");
  std::set<std::string> unordered_names;
  for (const std::string& line : ctx.code) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), decl_re);
         it != std::sregex_iterator(); ++it) {
      unordered_names.insert((*it)[1].str());
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), member_re);
         it != std::sregex_iterator(); ++it) {
      unordered_names.insert((*it)[1].str());
    }
  }
  if (unordered_names.empty()) return;
  if (!ctx.writes_artifacts) return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    for (const std::string& name : unordered_names) {
      const std::regex range_for(R"(for\s*\([^;)]*:\s*)" + name + R"(\b)");
      const std::regex begin_walk("\\b" + name + R"((?:_)?\s*\.\s*(?:c?begin|c?end)\s*\()");
      if (std::regex_search(line, range_for) ||
          std::regex_search(line, begin_walk)) {
        emit(diags, ctx, static_cast<int>(i) + 1,
             "dlion-nondet-unordered-iteration",
             "iteration over unordered container '" + name +
                 "' in a TU that writes JSON/CSV/checksum output; visit "
                 "order is hash-seed dependent - use a sorted container or "
                 "sort keys first");
      }
    }
  }
}

// Rule: dlion-nondet-entropy
// OS entropy / wall-clock time sources. Allowed only via allowlist (the
// seeded RNG implementation and bench timers).
void rule_entropy(const FileContext& ctx, Emit diags) {
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<Pattern> patterns = [] {
    std::vector<Pattern> p;
    p.push_back({std::regex(R"(\bstd::random_device\b)"),
                 "std::random_device draws OS entropy"});
    p.push_back({std::regex(R"((?:^|[^:\w])rand\s*\(\s*\))"),
                 "rand() is seeded from process state"});
    p.push_back({std::regex(R"((?:^|[^:\w])s?rand\s*\(\s*time\s*\()"),
                 "time-seeded rand()"});
    p.push_back({std::regex(R"(\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))"),
                 "time(nullptr) reads the wall clock"});
    p.push_back({std::regex(R"(\bstd::chrono::(?:system|steady|high_resolution)_clock\b)"),
                 "host clocks vary per run; use the sim virtual clock"});
    p.push_back({std::regex(R"(\bgettimeofday\s*\()"),
                 "gettimeofday reads the wall clock"});
    return p;
  }();
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    for (const Pattern& p : patterns) {
      if (std::regex_search(ctx.code[i], p.re)) {
        emit(diags, ctx, static_cast<int>(i) + 1, "dlion-nondet-entropy",
             std::string(p.what) +
                 "; deterministic replays require common::Rng / sim time");
      }
    }
  }
}

// Rule: dlion-nondet-pointer-key
// Ordered containers keyed by pointer compare allocation addresses, which
// ASLR randomizes; iteration order then differs between runs.
void rule_pointer_key(const FileContext& ctx, Emit diags) {
  static const std::regex re(
      R"(\bstd::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*)");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (std::regex_search(ctx.code[i], re)) {
      emit(diags, ctx, static_cast<int>(i) + 1, "dlion-nondet-pointer-key",
           "ordered container keyed by pointer value; iteration order "
           "follows ASLR-randomized addresses - key by a stable id instead");
    }
  }
}

// Rule: dlion-nondet-float-accumulate
// Floating-point accumulation order is a tested contract owned by
// src/tensor; ad-hoc std::accumulate over floats elsewhere invites
// reassociation drift when someone later parallelizes or reorders.
void rule_float_accumulate(const FileContext& ctx, Emit diags) {
  if (ctx.in_tensor_lib) return;
  static const std::regex re(
      R"(\bstd::accumulate\s*\([^;]*[,(]\s*(?:0\.\d*f?|\d+\.\d*f|0\.f|(?:float|double)\s*[{(]))");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (std::regex_search(ctx.code[i], re)) {
      emit(diags, ctx, static_cast<int>(i) + 1,
           "dlion-nondet-float-accumulate",
           "floating-point std::accumulate outside src/tensor; summation "
           "order is a determinism contract - use the tensor reductions");
    }
  }
}

// Rule: dlion-missing-override
// Inside a class/struct that names a base (`: public Base`), a `virtual`
// method declaration without `override`/`final` silently stops overriding
// when the base signature changes. (Pure-virtual base declarations live in
// classes without bases and are not flagged.)
void rule_missing_override(const FileContext& ctx, Emit diags) {
  static const std::regex class_with_base(
      R"(\b(?:class|struct)\s+[A-Za-z_]\w*(?:\s+final)?\s*:\s*(?:public|protected|private)\b)");
  static const std::regex virtual_decl(R"(\bvirtual\b)");
  static const std::regex has_override(R"(\boverride\b|\bfinal\b|\s*=\s*0)");
  static const std::regex dtor(R"(\bvirtual\s+~)");
  int depth = 0;
  int derived_depth = -1;  // brace depth at which the derived class body opened
  bool pending_derived = false;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (std::regex_search(line, class_with_base)) pending_derived = true;
    for (char c : line) {
      if (c == '{') {
        ++depth;
        if (pending_derived && derived_depth < 0) {
          derived_depth = depth;
          pending_derived = false;
        }
      } else if (c == '}') {
        if (derived_depth == depth) derived_depth = -1;
        --depth;
      }
    }
    if (derived_depth > 0 && depth >= derived_depth &&
        std::regex_search(line, virtual_decl) &&
        !std::regex_search(line, has_override) &&
        !std::regex_search(line, dtor)) {
      emit(diags, ctx, static_cast<int>(i) + 1, "dlion-missing-override",
           "'virtual' in a derived class without 'override'; base-signature "
           "drift would silently fork behavior - mark it override");
    }
  }
}

// Rule: dlion-uninit-pod
// Wire-message and config structs must brace- or equals-initialize every
// POD member: an uninitialized field encodes stack garbage, which is the
// definition of nondeterministic bytes on the wire / in run artifacts.
void rule_uninit_pod(const FileContext& ctx, Emit diags) {
  const bool is_message_or_config =
      ctx.rel_path.find("message") != std::string::npos ||
      ctx.rel_path.find("config") != std::string::npos;
  if (!is_message_or_config || !ctx.is_header) return;
  static const std::regex struct_open(R"(\b(?:struct|class)\s+[A-Za-z_]\w*)");
  static const std::regex pod_member_no_init(
      R"(^\s*(?:float|double|bool|char|(?:unsigned\s+)?(?:int|long|short)|std::size_t|std::u?int(?:8|16|32|64)_t|common::(?:SimTime|Bytes|Seconds))\s+[A-Za-z_]\w*\s*;\s*$)");
  int depth = 0;
  int struct_depth = -1;
  bool pending_struct = false;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (std::regex_search(line, struct_open)) pending_struct = true;
    if (struct_depth > 0 && depth >= struct_depth &&
        std::regex_match(line, pod_member_no_init)) {
      emit(diags, ctx, static_cast<int>(i) + 1, "dlion-uninit-pod",
           "uninitialized POD member in a wire/config struct; garbage bytes "
           "are nondeterministic - add '= 0' / '{}' default");
    }
    for (char c : line) {
      if (c == '{') {
        ++depth;
        if (pending_struct && struct_depth < 0) {
          struct_depth = depth;
          pending_struct = false;
        }
      } else if (c == '}') {
        if (struct_depth == depth) struct_depth = -1;
        --depth;
      }
    }
  }
}

// Rule: dlion-owned-payload
// Data-lane messages under comm/ carry comm::Payload views into refcounted
// arena blocks (DESIGN.md "Zero-copy data plane"); an owned
// std::vector<float> / std::vector<std::uint32_t> payload member - or
// growing a payload element-wise via push_back/insert/assign - reintroduces
// the per-message copies the zero-copy refactor eliminated. Member
// declarations are audited in headers (where the wire structs live);
// element-wise growth is flagged everywhere under comm/. A line that
// legitimately needs an owned vector escapes inline with
// `// dlion-lint: allow(dlion-owned-payload)`.
void rule_owned_payload(const FileContext& ctx, Emit diags) {
  if (ctx.rel_path.find("comm/") == std::string::npos) return;
  static const std::regex owned_member(
      R"(\bstd::vector\s*<\s*(?:float|std::uint32_t|uint32_t)\s*>\s+[A-Za-z_]\w*\s*;)");
  static const std::regex payload_growth(
      R"((?:\.|->)\s*(?:values|indices)\s*\.\s*(?:push_back|emplace_back|insert|assign|resize)\s*\()");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (ctx.is_header && std::regex_search(line, owned_member)) {
      emit(diags, ctx, static_cast<int>(i) + 1, "dlion-owned-payload",
           "owned vector payload member in a comm struct; data-lane "
           "messages must carry comm::Payload views (zero-copy data "
           "plane) - stage through a PayloadWriter instead");
    }
    if (std::regex_search(line, payload_growth)) {
      emit(diags, ctx, static_cast<int>(i) + 1, "dlion-owned-payload",
           "element-wise growth of a payload field copies bytes the "
           "zero-copy plane shares by view; build an owned vector and "
           "stage it once via PayloadWriter::copy / make_payload");
    }
  }
}

void run_text_rules(const FileContext& ctx, Emit diags) {
  rule_unordered_iteration(ctx, diags);
  rule_entropy(ctx, diags);
  rule_pointer_key(ctx, diags);
  rule_float_accumulate(ctx, diags);
  rule_missing_override(ctx, diags);
  rule_uninit_pod(ctx, diags);
  rule_owned_payload(ctx, diags);
}

}  // namespace dlion_lint
