// Cluster monitoring service — the deployment mode of paper §4.1: HighRPM
// "can be installed as a service on the control node of the target HPC
// system and shared with other computing nodes", with per-node active
// learning capturing inter-node variation.
//
// This example trains one golden model, gives each of four compute nodes a
// reset clone of it (each running a different workload), streams all of
// them tick by tick, and then runs a round of per-node active learning.
// For large fleets, core::FleetStepper and serve::Daemon batch the same
// per-node tick.
#include <cstdio>
#include <string>
#include <vector>

#include "highrpm/core/highrpm.hpp"
#include "highrpm/math/metrics.hpp"
#include "highrpm/workloads/suites.hpp"

using namespace highrpm;

int main() {
  const auto platform = sim::PlatformConfig::arm();
  measure::Collector collector;

  // Golden model trained once on the control node.
  std::vector<measure::CollectedRun> training;
  training.push_back(collector.collect(platform, workloads::fft(), 250, 31));
  training.push_back(collector.collect(platform, workloads::stream(), 250, 32));
  training.push_back(collector.collect(platform, workloads::hpl_ai(), 250, 33));
  training.push_back(
      collector.collect(platform, workloads::by_name("mcf"), 250, 34));
  training.push_back(
      collector.collect(platform, workloads::by_name("dedup"), 250, 35));
  training.push_back(
      collector.collect(platform, workloads::by_name("dgemm"), 250, 36));
  core::HighRpmConfig config;
  config.dynamic_trr.rnn.epochs = 20;
  config.srr.epochs = 50;
  core::HighRpm golden(config);
  std::printf("Training golden model on the control node...\n");
  golden.initial_learning(training);

  // Four compute nodes, each with its own workload (and sensor noise).
  struct NodeJob {
    std::string node_id;
    sim::Workload workload;
    std::uint64_t seed;
  };
  const std::vector<NodeJob> jobs = {
      {"cn-01", workloads::graph500_bfs(), 41},
      {"cn-02", workloads::hpcg(), 42},
      {"cn-03", workloads::smg2000(), 43},
      {"cn-04", workloads::by_name("canneal"), 44},
  };
  // One private instance per node, cloned from the golden model with a
  // fresh stream; the nodes then drift apart through their own updates.
  std::vector<core::HighRpm> nodes(jobs.size(), golden);
  std::vector<measure::CollectedRun> runs;
  for (std::size_t n = 0; n < jobs.size(); ++n) {
    nodes[n].reset_stream();
    runs.push_back(
        collector.collect(platform, jobs[n].workload, 150, jobs[n].seed));
  }
  std::printf("Registered %zu compute nodes.\n\n", nodes.size());

  // Stream every node; the control node sees one IM reading per node per
  // 10 s and fills the gaps with DynamicTRR + SRR.
  std::printf("%-8s %-14s %12s %12s %12s\n", "node", "workload", "node MAPE",
              "cpu MAPE", "mem MAPE");
  for (std::size_t n = 0; n < jobs.size(); ++n) {
    const auto& run = runs[n];
    const auto& features = run.dataset.features();
    std::vector<double> node_t, node_e, cpu_t, cpu_e, mem_t, mem_e;
    for (std::size_t t = 0; t < run.num_ticks(); ++t) {
      std::optional<double> reading;
      if (run.measured[t]) reading = run.dataset.target("P_NODE")[t];
      const auto est = nodes[n].on_tick(features.row(t), reading);
      node_t.push_back(run.truth[t].p_node_w);
      node_e.push_back(est.node_w);
      cpu_t.push_back(run.truth[t].p_cpu_w);
      cpu_e.push_back(est.cpu_w);
      mem_t.push_back(run.truth[t].p_mem_w);
      mem_e.push_back(est.mem_w);
    }
    std::printf("%-8s %-14s %11.2f%% %11.2f%% %11.2f%%\n",
                jobs[n].node_id.c_str(), run.workload_name.c_str(),
                math::mape(node_t, node_e), math::mape(cpu_t, cpu_e),
                math::mape(mem_t, mem_e));
  }

  // Per-node active learning: each node adapts on its own recent run.
  std::printf("\nRunning one active-learning round per node...\n");
  for (std::size_t n = 0; n < jobs.size(); ++n) {
    nodes[n].active_learning(runs[n]);
    std::printf("  %s: %zu active-learning round(s) applied\n",
                jobs[n].node_id.c_str(), nodes[n].active_learning_rounds());
  }
  std::printf("Done. Each node's model has now drifted toward its own "
              "workload; the golden model is untouched.\n");
  return 0;
}
