#include "exp/environments.h"

#include <stdexcept>

namespace dlion::exp {

namespace {

std::vector<sim::ComputeSpec> cores_vec(std::vector<double> cores) {
  std::vector<sim::ComputeSpec> out;
  out.reserve(cores.size());
  for (double c : cores) out.push_back(cpu_cores(c));
  return out;
}

std::function<void(sim::Network&)> egress_setup(std::vector<double> mbps) {
  return [mbps = std::move(mbps)](sim::Network& net) {
    for (std::size_t i = 0; i < mbps.size(); ++i) {
      net.set_egress(i, sim::Schedule(mbps[i]));
    }
  };
}

// Three-phase schedule used by the dynamic environments.
sim::Schedule phased(double v1, double v2, double v3, double phase_s) {
  return sim::Schedule{{0.0, v1}, {phase_s, v2}, {2 * phase_s, v3}};
}

}  // namespace

sim::ComputeSpec cpu_cores(double cores) {
  return cpu_cores(sim::Schedule(cores));
}

sim::ComputeSpec cpu_cores(sim::Schedule cores) {
  sim::ComputeSpec spec;
  spec.units = std::move(cores);
  spec.flops_per_unit = sim::kCpuCoreFlops;
  return spec;
}

sim::ComputeSpec gpu_units(double units) {
  sim::ComputeSpec spec;
  spec.units = sim::Schedule(units);
  spec.flops_per_unit = sim::kGpuUnitFlops;
  // GPU training loops have much lower per-iteration framework overhead
  // than the CPU path; this keeps the GPU cluster network-bound (§5.2.2).
  spec.iteration_overhead_s = 0.05;
  return spec;
}

Environment make_environment(const std::string& name, double phase_s) {
  Environment env;
  env.name = name;
  if (name == "Homo A") {
    env.compute = cores_vec({24, 24, 24, 24, 24, 24});
  } else if (name == "Homo B") {
    env.compute = cores_vec({24, 24, 24, 24, 24, 24});
    env.network_setup = egress_setup({50, 50, 50, 50, 50, 50});
  } else if (name == "Homo C") {
    env.compute = {gpu_units(1), gpu_units(1), gpu_units(1),
                   gpu_units(1), gpu_units(1), gpu_units(1)};
    env.gpu = true;
  } else if (name == "Hetero CPU A") {
    env.compute = cores_vec({24, 24, 12, 12, 6, 6});
  } else if (name == "Hetero CPU B") {
    env.compute = cores_vec({24, 24, 24, 24, 24, 4});
  } else if (name == "Hetero NET A") {
    env.compute = cores_vec({24, 24, 24, 24, 24, 24});
    env.network_setup = egress_setup({50, 50, 35, 35, 20, 20});
  } else if (name == "Hetero NET B") {
    // Referenced by Fig. 17; the reverse assignment of Hetero NET A.
    env.compute = cores_vec({24, 24, 24, 24, 24, 24});
    env.network_setup = egress_setup({20, 20, 35, 35, 50, 50});
  } else if (name == "Hetero SYS A") {
    env.compute = cores_vec({24, 24, 12, 12, 6, 6});
    env.network_setup = egress_setup({50, 50, 35, 35, 20, 20});
  } else if (name == "Hetero SYS B") {
    env.compute = cores_vec({24, 24, 12, 12, 6, 6});
    env.network_setup = egress_setup({20, 20, 35, 35, 50, 50});
  } else if (name == "Hetero SYS C") {
    env.compute = {gpu_units(8), gpu_units(8), gpu_units(1),
                   gpu_units(1), gpu_units(1), gpu_units(1)};
    env.network_setup = egress_setup({190, 190, 140, 140, 100, 100});
    env.gpu = true;
  } else if (name == "Dynamic SYS A") {
    // Homo B -> Hetero SYS A -> Hetero SYS B, phase_s seconds each.
    const std::vector<double> het_cores = {24, 24, 12, 12, 6, 6};
    const std::vector<double> bw_a = {50, 50, 35, 35, 20, 20};
    const std::vector<double> bw_b = {20, 20, 35, 35, 50, 50};
    for (std::size_t i = 0; i < kWorkers; ++i) {
      env.compute.push_back(
          cpu_cores(phased(24, het_cores[i], het_cores[i], phase_s)));
    }
    env.network_setup = [=](sim::Network& net) {
      for (std::size_t i = 0; i < kWorkers; ++i) {
        net.set_egress(i, phased(50, bw_a[i], bw_b[i], phase_s));
      }
    };
  } else if (name == "Dynamic SYS B") {
    // Hetero SYS B -> Hetero SYS A -> Homo B.
    const std::vector<double> het_cores = {24, 24, 12, 12, 6, 6};
    const std::vector<double> bw_a = {50, 50, 35, 35, 20, 20};
    const std::vector<double> bw_b = {20, 20, 35, 35, 50, 50};
    for (std::size_t i = 0; i < kWorkers; ++i) {
      env.compute.push_back(
          cpu_cores(phased(het_cores[i], het_cores[i], 24, phase_s)));
    }
    env.network_setup = [=](sim::Network& net) {
      for (std::size_t i = 0; i < kWorkers; ++i) {
        net.set_egress(i, phased(bw_b[i], bw_a[i], 50, phase_s));
      }
    };
  } else {
    throw std::invalid_argument("make_environment: unknown environment '" +
                                name + "'");
  }
  return env;
}

std::vector<std::string> environment_names() {
  return {"Homo A",       "Homo B",       "Homo C",       "Hetero CPU A",
          "Hetero CPU B", "Hetero NET A", "Hetero NET B", "Hetero SYS A",
          "Hetero SYS B", "Hetero SYS C", "Dynamic SYS A", "Dynamic SYS B"};
}

const std::vector<std::string>& wan_region_names() {
  static const std::vector<std::string> names = {
      "Virginia", "Oregon", "Ireland", "Mumbai", "Seoul", "Sydney"};
  return names;
}

const std::vector<std::vector<double>>& wan_bandwidth_matrix() {
  // Table 2, Mbps; row = source, column = destination. Diagonal entries
  // (intra-region) are LAN speed.
  static const std::vector<std::vector<double>> matrix = {
      {1000, 190, 181, 53, 58, 56},   // Virginia
      {187, 1000, 91, 41, 93, 84},    // Oregon
      {171, 92, 1000, 73, 30, 41},    // Ireland
      {53, 41, 73, 1000, 85, 79},     // Mumbai
      {58, 88, 40, 85, 1000, 79},     // Seoul
      {56, 84, 36, 79, 72, 1000},     // Sydney
  };
  return matrix;
}

Environment make_churn_environment(const std::string& base,
                                   const ChurnSpec& churn, double phase_s) {
  Environment env = make_environment(base, phase_s);
  env.name = base + " +churn";
  const std::size_t n = env.compute.size();
  // Crash the highest-id workers first: in the heterogeneous environments
  // those are the weakest machines, the most plausible preemption victims.
  const std::size_t crashed = std::min(churn.crashed_workers, n);
  for (std::size_t k = 0; k < crashed; ++k) {
    const std::size_t worker = n - 1 - k;
    const double start =
        churn.crash_start_s + static_cast<double>(k) * churn.stagger_s;
    env.faults.crash(worker, start, start + churn.downtime_s);
  }
  if (churn.partition_end_s > churn.partition_start_s && n >= 2) {
    std::vector<std::size_t> group_a, group_b;
    for (std::size_t i = 0; i < n; ++i) {
      (i < n / 2 ? group_a : group_b).push_back(i);
    }
    env.faults.partition(group_a, group_b, churn.partition_start_s,
                         churn.partition_end_s);
  }
  if (churn.loss_probability > 0.0 && churn.loss_end_s > churn.loss_start_s) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        env.faults.lossy(i, j, churn.loss_probability, churn.loss_start_s,
                         churn.loss_end_s);
      }
    }
  }
  return env;
}

Environment make_scale_environment(std::size_t n_workers,
                                   std::size_t group_size, double inter_mbps,
                                   double cores) {
  if (n_workers == 0) {
    throw std::invalid_argument("make_scale_environment: n_workers == 0");
  }
  if (group_size == 0) group_size = n_workers;
  Environment env;
  env.name = "Scale N=" + std::to_string(n_workers) +
             " G=" + std::to_string(group_size);
  env.compute = std::vector<sim::ComputeSpec>(n_workers, cpu_cores(cores));
  env.network_setup = [n_workers, group_size, inter_mbps](sim::Network& net) {
    for (std::size_t i = 0; i < n_workers; ++i) {
      for (std::size_t j = 0; j < n_workers; ++j) {
        if (i == j || i / group_size == j / group_size) continue;
        net.set_link(i, j, sim::Schedule(inter_mbps));
        net.set_latency(i, j, 0.02);  // inter-cloud WAN RTT/2 ~ 20 ms
      }
    }
  };
  return env;
}

Environment make_wan_matrix_environment() {
  Environment env;
  env.name = "WAN Table2";
  env.compute = cores_vec({24, 24, 24, 24, 24, 24});
  env.network_setup = [](sim::Network& net) {
    const auto& m = wan_bandwidth_matrix();
    for (std::size_t i = 0; i < kWorkers; ++i) {
      for (std::size_t j = 0; j < kWorkers; ++j) {
        if (i == j) continue;
        net.set_link(i, j, sim::Schedule(m[i][j]));
        net.set_latency(i, j, 0.04);  // intercontinental RTT/2 ~ 40 ms
      }
    }
  };
  return env;
}

}  // namespace dlion::exp
