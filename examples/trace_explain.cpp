// trace_explain: run one environment deterministically with the full
// observability stack attached and explain where the time went -- the
// critical path through the causal span/flow DAG, attributed to {compute,
// transfer, queue, stall, dkt} per worker and per link, plus the online
// watchdog's verdict.
//
// This is the "explaining a run" entry point from README.md: point it at a
// clean environment to see the straggler/bottleneck the paper's techniques
// chase, or at a churn environment (--churn) to watch the watchdog flag the
// run and the attribution shift toward queueing/stall.
//
// Usage:
//   trace_explain [--env="Hetero SYS A"] [--duration=120] [--epoch=0]
//                 [--churn] [--watchdog] [--summary-only] [--out-dir=DIR]
//
//   --env       Table 3 environment name (see exp/environments.h).
//   --duration  simulated seconds (default 120).
//   --epoch     per-epoch attribution window in simulated seconds
//               (default duration/10; 0 keeps the default).
//   --churn     overlay the PR-1 churn schedule (2 staggered crashes) on
//               the chosen environment and arm spike detectors.
//   --watchdog  arm the watchdog with default thresholds even without
//               --churn.
//   --summary-only
//               print only the attribution headline (straggler, bottleneck
//               link, category split) and the watchdog verdict; skips the
//               per-epoch table and all file exports. The CI-friendly mode:
//               a few lines of output no matter how big the run is.
//   --out-dir   also write critical_path.{json,txt}, trace.json (load in
//               Perfetto), and telemetry.json into DIR (ignored with
//               --summary-only).
#include <cstdio>
#include <iostream>
#include <string>

#include "common/config.h"
#include "exp/environments.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "obs/critical_path.h"
#include "obs/obs.h"
#include "obs/watchdog.h"

int main(int argc, char** argv) {
  using namespace dlion;
  const common::Config cfg = common::Config::from_args(argc, argv);
  const std::string env_name = cfg.get_string("env", "Hetero SYS A");
  const double duration = cfg.get_double("duration", 120.0);
  const double epoch_arg = cfg.get_double("epoch", 0.0);
  const bool churn = cfg.get_bool("churn", false);
  const bool arm_watchdog = cfg.get_bool("watchdog", false) || churn;
  const bool summary_only = cfg.get_bool("summary-only", false);
  const std::string out_dir = cfg.get_string("out-dir", "");
  const double epoch_s = epoch_arg > 0.0 ? epoch_arg : duration / 10.0;

  exp::RunSpec spec;
  spec.system = "dlion";
  spec.duration_s = duration;
  if (churn) {
    // The PR-1 churn scenario scaled to this window: two staggered
    // crashes in the middle of the run, each down for a quarter of it.
    exp::ChurnSpec cs;
    cs.crashed_workers = 2;
    cs.crash_start_s = duration * 0.25;
    cs.downtime_s = duration * 0.25;
    cs.stagger_s = duration * 0.125;
    spec.env_override =
        exp::make_churn_environment(env_name, cs, duration / 3.0);
  } else {
    spec.env_override = exp::make_environment(env_name, duration / 3.0);
  }
  if (arm_watchdog) {
    obs::WatchdogConfig wd;  // defaults; churn trips the spike detectors
    wd.dead_letter_limit = 1;
    wd.dead_letter_window_s = duration;
    wd.drop_limit = 1;
    wd.drop_window_s = duration;
    wd.no_progress_window_s = duration;  // silent unless truly wedged
    spec.watchdog = wd;
  }

  auto obs = std::make_unique<obs::Observability>();
  spec.obs = obs.get();

  std::cout << "trace_explain: " << env_name << (churn ? " + churn" : "")
            << ", " << duration << " simulated s, seed " << spec.seed
            << "\n\n";
  const exp::Workload workload = exp::make_workload("cpu", exp::Scale{});
  const exp::RunResult result = exp::run_experiment(spec, workload);

  std::cout << "run: " << result.total_iterations << " iterations, "
            << result.total_bytes << " bytes exchanged, final accuracy "
            << result.final_accuracy << "\n\n";

  const obs::CriticalPathReport report =
      obs::compute_critical_path(obs->tracer(), {epoch_s});
  if (!report.valid) {
    std::cerr << "trace_explain: no critical path: the run recorded no "
                 "spans\n";
    return 1;
  }
  if (summary_only) {
    std::cout << "critical path: " << report.total_seconds() << " s\n"
              << "  straggler:  "
              << (report.straggler.empty() ? "(none)" : report.straggler)
              << "\n"
              << "  bottleneck: "
              << (report.bottleneck_link.empty() ? "(none)"
                                                 : report.bottleneck_link)
              << "\n";
    for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
      const auto cat = static_cast<obs::PathCategory>(c);
      std::printf("  %-8s %6.1f%%\n", obs::path_category_name(cat),
                  report.category_fraction(cat) * 100.0);
    }
  } else {
    std::cout << report.attribution_table() << "\n";
  }

  if (arm_watchdog) {
    if (result.telemetry.watchdog_events.empty()) {
      std::cout << "watchdog: silent (no detector fired)\n";
    } else {
      std::cout << "watchdog: degraded\n";
      for (const std::string& e : result.telemetry.watchdog_events) {
        std::cout << "  - " << e << "\n";
      }
    }
  }

  if (!out_dir.empty() && !summary_only) {
    try {
      exp::write_critical_path_json(report, out_dir + "/critical_path.json");
      exp::write_critical_path_table(report, out_dir + "/critical_path.txt");
      exp::write_chrome_trace(obs->tracer(), out_dir + "/trace.json");
      exp::write_telemetry_json(result.telemetry,
                                out_dir + "/telemetry.json");
      std::cout << "\nwrote " << out_dir
                << "/critical_path.{json,txt}, trace.json (load in "
                   "Perfetto), telemetry.json\n";
    } catch (const std::exception& e) {
      std::cerr << "export failed (" << e.what()
                << ") -- does the directory exist?\n";
      return 1;
    }
  }
  return 0;
}
