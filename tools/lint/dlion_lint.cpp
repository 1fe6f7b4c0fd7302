// dlion-lint: a purpose-built determinism and concurrency linter for the
// DLion tree.
//
// The simulator's headline guarantee is bit-identical runs: same seed, same
// outputs, independent of thread count, observability mode, or host. Most
// regressions against that guarantee come from a small set of C++ patterns
// that are individually innocent-looking:
//
//   * iterating an unordered associative container and feeding the visit
//     order into JSON/CSV/checksum output,
//   * reaching for OS entropy or wall clocks (`rand()`, `std::random_device`,
//     `time(nullptr)`, `std::chrono::system_clock`) instead of the seeded
//     `common::Rng` / virtual sim clock,
//   * ordering work by pointer value (`std::map<T*, ...>` iterates in
//     allocation order, which ASLR randomizes per process),
//   * floating-point `std::accumulate` outside the tensor library, where
//     summation order is an explicit, tested contract,
//   * wire/config structs with uninitialized POD members (uninitialized
//     padding or fields encode garbage → nondeterministic bytes), and
//   * `virtual` redeclarations in derived types missing `override` (silent
//     signature drift breaks the strategy plugins in ways only visible as
//     behavioral divergence).
//
// v2 adds a real tokenizer, a brace/scope tracker, and a lightweight symbol
// table (lexer.cpp / scope_model.cpp), on top of which five semantic rules
// audit the concurrency and lifetime contracts the thread-safety
// annotations (src/common/annotations.h) enforce at compile time under
// Clang — so the invariants hold on GCC-only hosts too:
//
//   * payload views escaping into static storage or raw-pointer members,
//   * std::mutex where common::Mutex (capability-annotated) is required,
//     and mutexes that guard no annotated state,
//   * atomic RMW with defaulted/strengthened memory order,
//   * raw std::thread construction or .detach() outside the pool,
//   * bare lock()/unlock() instead of RAII critical sections.
//
// General-purpose tools either cannot see these (clang-tidy has no notion of
// "this TU writes run artifacts") or are unavailable in the build image. The
// v1 text rules are preserved byte-for-byte (rules/text_rules.cpp; an
// equivalence test pins their output). False-positive escape hatches, in
// priority order:
//
//   1. inline: append `// dlion-lint: allow(<rule-id>)` to the line,
//   2. per-file: add `<rule-id> <path-substring>` to the allowlist file.
//
// Allowlist hygiene is itself checked: an entry whose path matches scanned
// files but which suppressed nothing is reported as dlion-stale-allowlist
// (dead suppressions otherwise hide future regressions silently).
//
// Output is clang-style `file:line: error: message [rule-id]` on stdout plus
// an optional machine-readable JSON report (--json). Exit codes: 0 clean,
// 1 diagnostics emitted, 2 usage/IO error. Diagnostics are emitted in
// sorted (file, line, rule) order so the output is itself deterministic.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint_types.h"
#include "rules.h"

namespace fs = std::filesystem;

namespace dlion_lint {
namespace {

struct Options {
  fs::path root;                  // repo root; paths are reported relative
  std::vector<fs::path> targets;  // files or directories to scan
  fs::path allowlist_path;
  fs::path json_path;
  bool verbose = false;
  bool stale_check = true;       // report dead allowlist entries
};

const std::regex kArtifactWriter(
    R"(\b(?:to_json|write_json|json_escape|to_csv|write_csv|csv|checksum|fnv1a|Telemetry|MetricsRegistry|export_chrome_trace|std::ofstream)\b)",
    std::regex::icase);

const std::regex kInlineAllow(R"(dlion-lint:\s*allow\(([^)]*)\))");

FileContext load_file(const fs::path& path, const fs::path& root) {
  FileContext ctx;
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  ctx.rel_path = (ec ? path : rel).generic_string();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  ctx.raw = split_lines(src);
  ctx.code = split_lines(strip_comments_and_strings(src));
  ctx.writes_artifacts = std::regex_search(src, kArtifactWriter);
  ctx.in_tensor_lib = ctx.rel_path.find("src/tensor/") != std::string::npos ||
                      ctx.rel_path.rfind("tensor/", 0) == 0;
  ctx.is_header = path.extension() == ".h" || path.extension() == ".hpp" ||
                  path.extension() == ".inl";
  for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
    std::smatch m;
    if (std::regex_search(ctx.raw[i], m, kInlineAllow)) {
      std::set<std::string>& rules = ctx.inline_allows[static_cast<int>(i) + 1];
      std::string list = m[1].str();
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        std::string rule = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        // trim
        while (!rule.empty() && std::isspace(static_cast<unsigned char>(rule.front())))
          rule.erase(rule.begin());
        while (!rule.empty() && std::isspace(static_cast<unsigned char>(rule.back())))
          rule.pop_back();
        if (!rule.empty()) rules.insert(rule);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
  }
  ctx.tokens = lex(src);
  ctx.model = build_scope_model(ctx.tokens);
  return ctx;
}

std::vector<AllowEntry> load_allowlist(const fs::path& path) {
  std::vector<AllowEntry> entries;
  if (path.empty()) return entries;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dlion-lint: cannot open allowlist " << path << "\n";
    std::exit(2);
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    AllowEntry e;
    if (ls >> e.rule >> e.path_substring) {
      e.line = line_no;
      entries.push_back(e);
    }
  }
  return entries;
}

/// Index of the first allowlist entry matching the diagnostic, or -1.
int allowlisted(const std::vector<AllowEntry>& allow, const Diagnostic& d) {
  for (std::size_t i = 0; i < allow.size(); ++i) {
    const AllowEntry& e = allow[i];
    if ((e.rule == "*" || e.rule == d.rule) &&
        d.file.find(e.path_substring) != std::string::npos) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_json_report(const fs::path& path,
                       const std::vector<Diagnostic>& diags,
                       std::size_t files_scanned) {
  std::ofstream out(path, std::ios::binary);
  out << "{\n  \"version\": 1,\n  \"files_scanned\": " << files_scanned
      << ",\n  \"diagnostic_count\": " << diags.size()
      << ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << json_escape(d.file) << "\", \"line\": "
        << d.line << ", \"rule\": \"" << json_escape(d.rule)
        << "\", \"message\": \"" << json_escape(d.message) << "\"}";
  }
  out << (diags.empty() ? "]" : "\n  ]") << "\n}\n";
}

void usage() {
  std::cerr
      << "usage: dlion-lint [--root DIR] [--allowlist FILE] [--json FILE]\n"
         "                  [--no-stale-check] [--verbose] [PATH...]\n"
         "Scans PATH (default: <root>/src) for nondeterminism hazards.\n"
         "Exit: 0 clean, 1 diagnostics found, 2 usage/IO error.\n";
}

bool is_cxx_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".h" ||
         ext == ".hpp" || ext == ".inl";
}

int run(int argc, char** argv) {
  Options opt;
  opt.root = fs::current_path();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "dlion-lint: " << flag << " requires a value\n";
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opt.root = need_value("--root");
    } else if (arg == "--allowlist") {
      opt.allowlist_path = need_value("--allowlist");
    } else if (arg == "--json") {
      opt.json_path = need_value("--json");
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--no-stale-check") {
      opt.stale_check = false;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dlion-lint: unknown flag " << arg << "\n";
      usage();
      return 2;
    } else {
      opt.targets.emplace_back(arg);
    }
  }
  if (opt.targets.empty()) opt.targets.push_back(opt.root / "src");

  // Collect files in sorted order so scan (and report) order is stable.
  std::vector<fs::path> files;
  for (const fs::path& target : opt.targets) {
    std::error_code ec;
    if (fs::is_directory(target, ec)) {
      for (fs::recursive_directory_iterator it(target, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file() && is_cxx_source(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(target, ec)) {
      files.push_back(target);
    } else {
      std::cerr << "dlion-lint: no such file or directory: " << target << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  const std::vector<AllowEntry> allow = load_allowlist(opt.allowlist_path);

  std::vector<Diagnostic> diags;
  std::vector<std::string> scanned_paths;
  for (const fs::path& file : files) {
    const FileContext ctx = load_file(file, opt.root);
    scanned_paths.push_back(ctx.rel_path);
    if (opt.verbose) std::cerr << "dlion-lint: scanning " << ctx.rel_path << "\n";
    run_text_rules(ctx, diags);
    run_semantic_rules(ctx, diags);
  }
  std::vector<std::size_t> suppressed_by(allow.size(), 0);
  diags.erase(std::remove_if(diags.begin(), diags.end(),
                             [&](const Diagnostic& d) {
                               const int e = allowlisted(allow, d);
                               if (e < 0) return false;
                               ++suppressed_by[static_cast<std::size_t>(e)];
                               return true;
                             }),
              diags.end());

  // Dead-suppression detection: an entry whose path substring matched at
  // least one scanned file yet suppressed nothing no longer corresponds to
  // any diagnostic — it would silently swallow the next real finding.
  // Entries touching no scanned file are skipped (a partial-tree scan says
  // nothing about them).
  if (opt.stale_check && !opt.allowlist_path.empty()) {
    std::error_code ec;
    fs::path rel = fs::relative(opt.allowlist_path, opt.root, ec);
    const std::string allow_rel =
        (ec ? opt.allowlist_path : rel).generic_string();
    for (std::size_t e = 0; e < allow.size(); ++e) {
      if (suppressed_by[e] != 0) continue;
      const bool in_scope = std::any_of(
          scanned_paths.begin(), scanned_paths.end(),
          [&](const std::string& p) {
            return p.find(allow[e].path_substring) != std::string::npos;
          });
      if (!in_scope) continue;
      diags.push_back(
          {allow_rel, allow[e].line, "dlion-stale-allowlist",
           "allowlist entry '" + allow[e].rule + " " +
               allow[e].path_substring +
               "' suppressed no diagnostic in the scanned files; delete "
               "it (dead suppressions hide future regressions)"});
    }
  }
  std::sort(diags.begin(), diags.end());

  for (const Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ": error: " << d.message << " ["
              << d.rule << "]\n";
  }
  if (!opt.json_path.empty()) {
    write_json_report(opt.json_path, diags, files.size());
  }
  if (diags.empty()) {
    std::cout << "dlion-lint: " << files.size() << " files clean\n";
    return 0;
  }
  std::cout << "dlion-lint: " << diags.size() << " diagnostic(s) in "
            << files.size() << " file(s)\n";
  return 1;
}

}  // namespace
}  // namespace dlion_lint

int main(int argc, char** argv) { return dlion_lint::run(argc, argv); }
