// Watchdog detector unit tests (every detector fires on its trigger and
// stays silent without it) plus integration checks: a fault-injected run
// degrades, a clean baseline stays quiet, and a watched run — even one
// whose detectors fire — equals the unwatched run.
#include "obs/watchdog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "exp/environments.h"
#include "exp/experiment.h"
#include "obs/obs.h"

namespace dlion {
namespace {

using obs::Watchdog;
using obs::WatchdogConfig;
using obs::WatchdogEvent;

WatchdogConfig quiet_config() {
  WatchdogConfig cfg;
  cfg.no_progress_window_s = 0.0;  // each test enables exactly one detector
  cfg.loss_divergence_factor = 0.0;
  cfg.dead_letter_limit = 0;
  cfg.drop_limit = 0;
  cfg.staleness_limit = 0.0;
  return cfg;
}

TEST(Watchdog, NoProgressFiresOnGapAndOnlyOnce) {
  WatchdogConfig cfg = quiet_config();
  cfg.no_progress_window_s = 5.0;
  Watchdog wd(cfg, 2);
  wd.on_iteration(0, 1.0);
  wd.on_iteration(1, 4.0);
  EXPECT_FALSE(wd.degraded());
  wd.finalize(20.0);  // 16 s since the last iteration
  ASSERT_TRUE(wd.degraded());
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].detector, "no_progress");
  EXPECT_EQ(wd.events()[0].worker, WatchdogEvent::kClusterWide);
  EXPECT_DOUBLE_EQ(wd.events()[0].value, 16.0);
  wd.finalize(40.0);  // latched: no second event
  EXPECT_EQ(wd.events().size(), 1u);
}

TEST(Watchdog, NoProgressSilentWhenIterationsKeepComing) {
  WatchdogConfig cfg = quiet_config();
  cfg.no_progress_window_s = 5.0;
  Watchdog wd(cfg, 1);
  for (int i = 0; i < 20; ++i) wd.on_iteration(0, i * 2.0);
  wd.finalize(40.0);
  EXPECT_FALSE(wd.degraded());
}

TEST(Watchdog, NoProgressCountsFromRunStart) {
  WatchdogConfig cfg = quiet_config();
  cfg.no_progress_window_s = 5.0;
  Watchdog wd(cfg, 1);
  wd.finalize(6.0);  // never saw a single iteration
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].detector, "no_progress");
}

TEST(Watchdog, DivergentLossFiresOnNonFinite) {
  WatchdogConfig cfg = quiet_config();
  cfg.loss_divergence_factor = 10.0;
  Watchdog wd(cfg, 2);
  wd.on_loss(1, 3.0, std::numeric_limits<double>::quiet_NaN());
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].detector, "divergent_loss");
  EXPECT_EQ(wd.events()[0].worker, 1u);
}

TEST(Watchdog, DivergentLossFiresAgainstFirstObservedBaseline) {
  WatchdogConfig cfg = quiet_config();
  cfg.loss_divergence_factor = 10.0;
  Watchdog wd(cfg, 2);
  wd.on_loss(0, 1.0, 0.7);   // baseline
  wd.on_loss(0, 2.0, 6.5);   // < 10x: fine
  EXPECT_FALSE(wd.degraded());
  wd.on_loss(0, 3.0, 7.5);   // > 10 * 0.7
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].worker, 0u);
  EXPECT_DOUBLE_EQ(wd.events()[0].value, 7.5);
  // Latch is per worker: the same detector can still fire for worker 1.
  wd.on_loss(1, 4.0, 0.5);
  wd.on_loss(1, 5.0, 50.0);
  EXPECT_EQ(wd.events().size(), 2u);
}

TEST(Watchdog, StalenessBreachRespectsLimitAndZeroDisables) {
  WatchdogConfig cfg = quiet_config();
  Watchdog off(cfg, 2);
  off.on_staleness(0, 1.0, 100.0);
  EXPECT_FALSE(off.degraded());

  cfg.staleness_limit = 4.0;
  Watchdog wd(cfg, 2);
  wd.on_staleness(0, 1.0, 3.0);
  EXPECT_FALSE(wd.degraded());
  wd.on_staleness(0, 2.0, 4.0);
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].detector, "staleness_breach");
}

TEST(Watchdog, DeadLetterSpikeNeedsTheCountInsideTheWindow) {
  WatchdogConfig cfg = quiet_config();
  cfg.dead_letter_window_s = 10.0;
  cfg.dead_letter_limit = 3;
  Watchdog wd(cfg, 1);
  wd.on_dead_letter(1.0);
  wd.on_dead_letter(20.0);  // the first has slid out of the window
  wd.on_dead_letter(25.0);
  EXPECT_FALSE(wd.degraded());
  wd.on_dead_letter(26.0);  // 3 within [16, 26]
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].detector, "dead_letter_spike");
  EXPECT_DOUBLE_EQ(wd.events()[0].value, 3.0);
}

TEST(Watchdog, DropSpikeFiresOnBurst) {
  WatchdogConfig cfg = quiet_config();
  cfg.drop_window_s = 5.0;
  cfg.drop_limit = 4;
  Watchdog wd(cfg, 1);
  for (int i = 0; i < 3; ++i) wd.on_drop(10.0 + 0.1 * i);
  EXPECT_FALSE(wd.degraded());
  wd.on_drop(10.4);
  ASSERT_TRUE(wd.degraded());
  EXPECT_EQ(wd.events()[0].detector, "drop_spike");
}

TEST(Watchdog, FiredEventsLandOnTheAlertsTrack) {
  WatchdogConfig cfg = quiet_config();
  cfg.staleness_limit = 1.0;
  Watchdog wd(cfg, 1);
  obs::Tracer tr;
  wd.set_tracer(&tr);
  wd.on_staleness(0, 2.5, 3.0);
  ASSERT_EQ(tr.instants().size(), 1u);
  EXPECT_EQ(tr.instants()[0].name, "staleness_breach");
  EXPECT_DOUBLE_EQ(tr.instants()[0].t, 2.5);
  EXPECT_EQ(tr.track_process(tr.instants()[0].track), "watchdog");
  EXPECT_EQ(tr.track_thread(tr.instants()[0].track), "alerts");
}

// ---------------------------------------------------- integration checks

exp::RunSpec churn_spec(double duration) {
  exp::ChurnSpec churn;
  churn.crashed_workers = 2;
  churn.crash_start_s = 10.0;
  churn.downtime_s = 15.0;
  churn.stagger_s = 5.0;
  exp::RunSpec spec;
  spec.duration_s = duration;
  spec.env_override = exp::make_churn_environment("Homo A", churn, 20.0);
  exp::Scale scale;
  spec.eval_period_iters = scale.eval_period_iters;
  spec.dkt_period_iters = scale.dkt_period_iters;
  return spec;
}

/// Thresholds the 2-crash churn trips within a short window: one fabric
/// dead letter or one fault drop fires.
obs::WatchdogConfig sensitive_config(double window_s) {
  obs::WatchdogConfig wd;
  wd.dead_letter_window_s = window_s;
  wd.dead_letter_limit = 1;
  wd.drop_window_s = window_s;
  wd.drop_limit = 1;
  wd.no_progress_window_s = 0.0;
  return wd;
}

void expect_same_run(const exp::RunResult& a, const exp::RunResult& b) {
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  const auto& pa = a.mean_curve.points();
  const auto& pb = b.mean_curve.points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].time, pb[i].time) << "point " << i;
    EXPECT_EQ(pa[i].value, pb[i].value) << "point " << i;
  }
}

TEST(Watchdog, FlagsFaultInjectedRunAndStaysSilentOnCleanBaseline) {
  exp::Scale scale;
  scale.duration_s = 40.0;
  const exp::Workload workload = exp::make_workload("cpu", scale);

  const obs::WatchdogConfig wd = sensitive_config(scale.duration_s);

  exp::RunSpec faulty = churn_spec(scale.duration_s);
  faulty.watchdog = wd;
  const exp::RunResult bad = exp::run_experiment(faulty, workload);
  EXPECT_TRUE(bad.telemetry.collected);
  EXPECT_TRUE(bad.telemetry.watchdog_degraded)
      << "churn run with crashes must trip the watchdog";
  EXPECT_FALSE(bad.telemetry.watchdog_events.empty());

  exp::RunSpec clean;
  clean.duration_s = scale.duration_s;
  clean.environment = "Homo A";
  clean.eval_period_iters = scale.eval_period_iters;
  clean.dkt_period_iters = scale.dkt_period_iters;
  clean.watchdog = wd;
  const exp::RunResult good = exp::run_experiment(clean, workload);
  EXPECT_FALSE(good.telemetry.watchdog_degraded)
      << (good.telemetry.watchdog_events.empty()
              ? std::string("(no events)")
              : good.telemetry.watchdog_events.front());
}

TEST(Watchdog, AttachingAWatchdogDoesNotPerturbTheRun) {
  exp::Scale scale;
  scale.duration_s = 30.0;
  const exp::Workload workload = exp::make_workload("cpu", scale);
  exp::RunSpec spec;
  spec.duration_s = scale.duration_s;
  spec.eval_period_iters = scale.eval_period_iters;
  spec.dkt_period_iters = scale.dkt_period_iters;

  const exp::RunResult plain = exp::run_experiment(spec, workload);
  spec.watchdog = obs::WatchdogConfig{};  // default thresholds
  const exp::RunResult watched = exp::run_experiment(spec, workload);
  expect_same_run(plain, watched);

  // Churn with detectors that fire: a fired detector only reports.
  exp::RunSpec churn = churn_spec(scale.duration_s);
  const exp::RunResult unwatched = exp::run_experiment(churn, workload);
  churn.watchdog = sensitive_config(scale.duration_s);
  const exp::RunResult fired = exp::run_experiment(churn, workload);
  ASSERT_TRUE(fired.telemetry.watchdog_degraded)
      << "the churn case must fire a detector";
  expect_same_run(unwatched, fired);
}

}  // namespace
}  // namespace dlion
