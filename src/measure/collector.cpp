#include "highrpm/measure/collector.hpp"

#include <algorithm>
#include <stdexcept>

namespace highrpm::measure {

std::vector<std::string> pmc_feature_names() {
  std::vector<std::string> names;
  names.reserve(sim::kNumPmcEvents);
  for (const auto n : sim::kPmcEventNames) names.emplace_back(n);
  return names;
}

std::vector<std::size_t> CollectedRun::measured_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (measured[i]) out.push_back(i);
  }
  return out;
}

Collector::Collector(CollectorConfig cfg) : cfg_(cfg) {}

CollectedRun Collector::collect(const sim::PlatformConfig& platform,
                                const sim::Workload& workload,
                                std::size_t ticks, std::uint64_t seed,
                                std::size_t freq_level) const {
  sim::NodeSimulator node(platform, workload, seed);
  if (freq_level != SIZE_MAX) node.set_frequency_level(freq_level);

  // Derive per-run instrument seeds from the run seed so different runs see
  // independent sensor noise.
  math::Rng seeder(seed ^ 0xC0FFEE0DULL);
  IpmiConfig ipmi_cfg = cfg_.ipmi;
  ipmi_cfg.seed = seeder.next_u64();
  DirectRigConfig rig_cfg = cfg_.rig;
  rig_cfg.seed = seeder.next_u64();
  PmcSamplerConfig pmc_cfg = cfg_.pmc;
  pmc_cfg.seed = seeder.next_u64();

  IpmiSensor ipmi(ipmi_cfg);
  DirectMeasurementRig rig(rig_cfg);
  PmcSampler sampler(pmc_cfg);

  CollectedRun run;
  run.workload_name = workload.name;
  run.suite = workload.suite;
  run.measured.assign(ticks, false);

  math::Matrix features(ticks, sim::kNumPmcEvents);
  std::vector<double> p_node(ticks), p_cpu(ticks), p_mem(ticks);

  for (std::size_t t = 0; t < ticks; ++t) {
    const sim::TickSample tick = node.step();
    run.truth.push_back(tick);

    const auto pmcs = sampler.sample(tick);
    std::copy(pmcs.begin(), pmcs.end(), features.row(t).begin());

    p_node[t] = tick.p_node_w;  // dense node truth (evaluation target)
    const auto comp = rig.read(tick);
    p_cpu[t] = comp.cpu_w;
    p_mem[t] = comp.mem_w;

    if (auto reading = ipmi.offer(tick)) {
      run.measured[t] = true;
      run.ipmi_readings.push_back(*reading);
    }
  }

  run.dataset = data::Dataset(std::move(features), pmc_feature_names());
  run.dataset.set_target("P_NODE", std::move(p_node));
  run.dataset.set_target("P_CPU", std::move(p_cpu));
  run.dataset.set_target("P_MEM", std::move(p_mem));
  return run;
}

CollectedRun Collector::collect_tenants(const sim::PlatformConfig& platform,
                                        std::span<const sim::Workload> workloads,
                                        std::size_t ticks, std::uint64_t seed,
                                        std::size_t freq_level) const {
  if (workloads.empty()) {
    throw std::invalid_argument("Collector::collect_tenants: no workloads");
  }
  sim::NodeSimulator node(
      platform, std::vector<sim::Workload>(workloads.begin(), workloads.end()),
      seed);
  if (freq_level != SIZE_MAX) node.set_frequency_level(freq_level);

  // Same instrument-seed derivation as collect(): the node-level sensors
  // see the aggregate tick through the same noise processes.
  math::Rng seeder(seed ^ 0xC0FFEE0DULL);
  IpmiConfig ipmi_cfg = cfg_.ipmi;
  ipmi_cfg.seed = seeder.next_u64();
  DirectRigConfig rig_cfg = cfg_.rig;
  rig_cfg.seed = seeder.next_u64();
  PmcSamplerConfig pmc_cfg = cfg_.pmc;
  pmc_cfg.seed = seeder.next_u64();

  IpmiSensor ipmi(ipmi_cfg);
  DirectMeasurementRig rig(rig_cfg);
  PmcSampler sampler(pmc_cfg);

  const std::size_t k_tenants = workloads.size();
  CollectedRun run;
  run.workload_name = workloads[0].name;
  for (std::size_t k = 1; k < k_tenants; ++k) {
    run.workload_name += "+" + workloads[k].name;
  }
  run.suite = workloads[0].suite;
  run.measured.assign(ticks, false);
  run.num_tenants = k_tenants;
  run.tenant_pmcs = math::Matrix(ticks, k_tenants * sim::kNumPmcEvents);
  run.tenant_power = math::Matrix(ticks, k_tenants);

  math::Matrix features(ticks, sim::kNumPmcEvents);
  std::vector<double> p_node(ticks), p_cpu(ticks), p_mem(ticks);

  for (std::size_t t = 0; t < ticks; ++t) {
    const sim::TickSample tick = node.step();
    run.truth.push_back(tick);

    const auto pmcs = sampler.sample(tick);
    std::copy(pmcs.begin(), pmcs.end(), features.row(t).begin());

    // Per-cgroup counters are kernel aggregation, not PMU sampling:
    // recorded exactly.
    auto trow = run.tenant_pmcs.row(t);
    for (std::size_t k = 0; k < k_tenants; ++k) {
      const auto& ten = tick.tenants[k];
      std::copy(ten.pmcs.begin(), ten.pmcs.end(),
                trow.subspan(k * sim::kNumPmcEvents).begin());
      run.tenant_power(t, k) = ten.p_w;
    }

    p_node[t] = tick.p_node_w;  // dense node truth (evaluation target)
    const auto comp = rig.read(tick);
    p_cpu[t] = comp.cpu_w;
    p_mem[t] = comp.mem_w;

    if (auto reading = ipmi.offer(tick)) {
      run.measured[t] = true;
      run.ipmi_readings.push_back(*reading);
    }
  }

  run.dataset = data::Dataset(std::move(features), pmc_feature_names());
  run.dataset.set_target("P_NODE", std::move(p_node));
  run.dataset.set_target("P_CPU", std::move(p_cpu));
  run.dataset.set_target("P_MEM", std::move(p_mem));
  return run;
}

}  // namespace highrpm::measure
