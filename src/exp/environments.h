// Emulated micro-cloud environments: the paper's Table 3 (all eleven
// environments) and Table 2 (the measured Amazon 6-region WAN bandwidth
// matrix).
//
// Compute values are CPU cores per worker (CPU cluster) or GPU units
// (p2.xlarge = 1, p2.8xlarge = 8). Network values are per-worker egress
// Mbps, exactly as listed in Table 3; "LAN" means unshaped 1 Gbps.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/compute_model.h"
#include "sim/fault_injector.h"
#include "sim/network.h"

namespace dlion::exp {

struct Environment {
  std::string name;
  std::vector<sim::ComputeSpec> compute;
  std::function<void(sim::Network&)> network_setup;  ///< may be empty (LAN)
  bool gpu = false;  ///< uses GPU-calibrated compute (Homo C, Hetero SYS C)
  /// Deterministic fault schedule (empty for all Table 3 environments;
  /// non-empty in the churn environments below).
  sim::FaultSchedule faults;
};

/// Number of workers in every paper environment.
constexpr std::size_t kWorkers = 6;

/// Build a Table 3 environment by name: "Homo A", "Homo B", "Homo C",
/// "Hetero CPU A", "Hetero CPU B", "Hetero NET A", "Hetero NET B",
/// "Hetero SYS A", "Hetero SYS B", "Hetero SYS C",
/// "Dynamic SYS A", "Dynamic SYS B".
/// `phase_s` sets the per-phase duration of the dynamic environments
/// (paper: 500 s; default scales of benches pass smaller values).
Environment make_environment(const std::string& name, double phase_s = 500.0);

/// All Table 3 environment names, in the table's order.
std::vector<std::string> environment_names();

/// Table 2: measured bandwidth (Mbps) between six Amazon regions
/// (V, O, I, M, S1, S2). row = source, col = destination; diagonal is LAN.
const std::vector<std::vector<double>>& wan_bandwidth_matrix();
const std::vector<std::string>& wan_region_names();

/// An environment whose 6 workers sit in the six Amazon regions with the
/// Table 2 matrix as per-link bandwidth (used by the §3 exploratory
/// studies' "emulated 6-worker cluster").
Environment make_wan_matrix_environment();

/// Churn scenario knobs for make_churn_environment. All times are simulated
/// seconds from the start of the run.
struct ChurnSpec {
  /// Staggered worker crashes: the k-th crashed worker (counting from the
  /// highest worker id downward) is down for
  ///   [crash_start_s + k * stagger_s, crash_start_s + k * stagger_s +
  ///    downtime_s).
  std::size_t crashed_workers = 2;
  double crash_start_s = 60.0;
  double downtime_s = 60.0;
  double stagger_s = 30.0;
  /// Optional network partition splitting workers {0..2} from {3..5}
  /// (both directions of every cross-group link black out). Disabled when
  /// partition_end_s <= partition_start_s.
  double partition_start_s = 0.0;
  double partition_end_s = 0.0;
  /// Optional symmetric per-message loss probability on every link.
  double loss_probability = 0.0;
  double loss_start_s = 0.0;
  double loss_end_s = 0.0;
};

/// A Table 3 environment plus a deterministic churn fault schedule
/// (crashes, optional partition, optional lossy links). The micro-cloud
/// failure scenarios the paper motivates but does not evaluate.
Environment make_churn_environment(const std::string& base,
                                   const ChurnSpec& churn,
                                   double phase_s = 500.0);

/// Homogeneous N-worker hierarchical micro-cloud topology for scale runs
/// (ROADMAP item 1; the paper stops at 6 nodes, the architecture doesn't):
/// workers are grouped into micro-clouds of `group_size`; links inside a
/// cloud run at LAN speed, links between clouds are capped at `inter_mbps`.
/// Used by bench/obs_overhead's --workers section, which CI runs at 256
/// workers (full observability, bounded trace memory).
Environment make_scale_environment(std::size_t n_workers,
                                   std::size_t group_size = 8,
                                   double inter_mbps = 200.0,
                                   double cores = 8.0);

/// Per-worker compute spec helpers.
sim::ComputeSpec cpu_cores(double cores);
sim::ComputeSpec cpu_cores(sim::Schedule cores);
sim::ComputeSpec gpu_units(double units);

}  // namespace dlion::exp
