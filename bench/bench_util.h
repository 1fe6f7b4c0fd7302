// Shared boilerplate for the figure/table reproduction binaries.
//
// Every bench accepts --scale=bench|paper plus the individual knobs parsed
// by exp::Scale (see src/exp/experiment.h) and prints the reproduced
// table/figure rows to stdout.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "common/config.h"
#include "common/table.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "nn/model.h"
#include "sim/trace.h"

namespace dlion::bench {

/// FNV-1a over a byte range; pass the previous hash to chain ranges.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over all weight values of the model, in variable order.
inline std::uint64_t weights_checksum(nn::Model& model) {
  std::uint64_t h = 1469598103934665603ULL;
  for (auto* var : model.variables()) {
    const auto s = var->value().span();
    h = fnv1a(s.data(), s.size() * sizeof(float), h);
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// JSON number with fixed precision; non-finite values become null.
inline std::string jnum(double v, int prec = 4) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// JSON array of [time, value] pairs from a sim trace.
inline std::string jcurve(const sim::Trace& curve) {
  std::string j = "[";
  bool first = true;
  for (const auto& p : curve.points()) {
    if (!first) j += ", ";
    first = false;
    j += "[" + jnum(p.time, 2) + ", " + jnum(p.value) + "]";
  }
  return j + "]";
}

/// The flags every figure bench reads: exp::Scale::from_config's, plus
/// --csv-dir (maybe_export_curve). Their defaults live in exp::Scale.
inline void print_usage(const char* program) {
  std::cout
      << "usage: " << program << " [--flag=value ...]\n\n"
      << "Flags shared by the figure benches (each also falls back to the\n"
      << "environment variable DLION_<FLAG>, upper-cased, '-' as '_'):\n"
      << "  --scale=bench|paper  problem sizes and the defaults of the rest\n"
      << "  --seed=N             input and initialization seed\n"
      << "  --repeats=N          runs averaged per cell\n"
      << "  --duration=S         CPU-cluster window, simulated seconds\n"
      << "  --gpu-duration=S     GPU-cluster window, simulated seconds\n"
      << "  --phase=S            dynamic-environment phase, simulated seconds\n"
      << "  --eval-period=N      accuracy measured every N iterations\n"
      << "  --dkt-period=N       DKT every N iterations\n"
      << "  --csv-dir=DIR        write each cell's accuracy curve to "
         "DIR/<cell>.csv\n"
      << "  --help               print this and exit\n"
      << "A bench may read more flags; see its source file.\n";
}

struct BenchContext {
  common::Config config;
  exp::Scale scale;

  /// Parses the flags. With --help, prints the shared flags and exits 0
  /// before anything runs.
  static BenchContext from_args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--help") {
        print_usage(argv[0]);
        std::exit(0);
      }
    }
    BenchContext ctx;
    ctx.config = common::Config::from_args(argc, argv);
    ctx.scale = exp::Scale::from_config(ctx.config);
    return ctx;
  }
};

inline void print_header(const std::string& title, const exp::Scale& scale) {
  std::cout << "\n=== " << title << " ===\n"
            << "(scale=" << (scale.paper ? "paper" : "bench")
            << ", seed=" << scale.seed << ", repeats=" << scale.repeats
            << ")\n\n";
}

/// Builds a RunSpec carrying the scale's common knobs.
inline exp::RunSpec make_run_spec(const exp::Scale& scale,
                                  const std::string& system,
                                  const std::string& environment,
                                  double duration) {
  exp::RunSpec spec;
  spec.system = system;
  spec.environment = environment;
  spec.duration_s = duration;
  spec.dynamic_phase_s = scale.dynamic_phase_s;
  spec.seed = scale.seed;
  spec.eval_period_iters = scale.eval_period_iters;
  spec.dkt_period_iters = scale.dkt_period_iters;
  return spec;
}

inline std::string fmt_time_or_inf(double seconds) {
  if (!std::isfinite(seconds)) return "not reached";
  return common::format_seconds(seconds);
}

/// When --csv-dir=<dir> is passed, export the run's cluster-mean accuracy
/// curve as <dir>/<stem>.csv for external plotting; no-op otherwise.
inline void maybe_export_curve(const BenchContext& ctx,
                               const exp::RunResult& result,
                               const std::string& stem) {
  const std::string dir = ctx.config.get_string("csv-dir", "");
  if (dir.empty()) return;
  try {
    exp::export_run_curve(result, dir, stem);
    std::cout << "[csv] wrote " << dir << "/" << stem << ".csv\n";
  } catch (const std::exception& e) {
    std::cerr << "[csv] export failed (" << e.what()
              << ") - does the directory exist?\n";
  }
}

/// File-name-safe slug: lowercase, spaces -> '-'.
inline std::string slug(std::string s) {
  for (char& c : s) {
    if (c == ' ') c = '-';
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace dlion::bench
