// Adaptive-mode daemon soak (ctest -L soak): the fleet runs with per-lane
// sampling controllers while real producer threads flood the rings. Pins
// three contracts under genuine concurrency: (1) ingestion accounting
// stays exact (offered == accepted + shed + dropped_readings, per node and
// in total), (2) the hysteresis dwell bounds every node's mode-change
// count — no flapping explosion no matter how the schedule interleaves,
// and (3) the final snapshot (controller columns included) is
// byte-identical across consumer counts.
//
// Short schedule by default; HIGHRPM_SOAK=1 selects the long variant.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "highrpm/serve/daemon.hpp"
#include "serve_test_util.hpp"

namespace highrpm::serve {
namespace {

namespace tu = testutil;

constexpr std::size_t kNodes = 8;

std::uint64_t soak_ticks_per_node() {
  return std::getenv("HIGHRPM_SOAK") != nullptr ? 4000 : 400;
}

/// Adaptive golden with budget-driven transitions: up == down == 0 makes
/// the score always vote Dense, so the 300-permille token bucket forces a
/// steady sparse/dense oscillation — every lane keeps switching model
/// paths for the whole soak, the worst case for both determinism and the
/// flap bound.
core::HighRpm train_adaptive_golden() {
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::fft(), 160, tu::kSeed));
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::stream(), 160, tu::kSeed + 1));
  core::HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 8;
  cfg.dynamic_trr.online_finetune = false;
  cfg.srr.epochs = 20;
  cfg.adaptive = true;
  cfg.adapt.budget_permille = 300;
  cfg.adapt.hold_windows = 1;
  cfg.adapt.up_threshold_w = 0.0;
  cfg.adapt.down_threshold_w = 0.0;
  core::HighRpm golden(cfg);
  golden.initial_learning(runs);
  return golden;
}

void check_adaptive_invariants(const DaemonSnapshot& snap,
                               std::uint64_t window_ticks,
                               std::uint64_t hold_windows) {
  for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
    const NodeStatus& n = snap.nodes[i];
    // Exact ingestion accounting: every offered tick is accepted, shed,
    // or dropped — nothing vanishes and nothing is double-counted.
    EXPECT_EQ(n.offered, n.accepted + n.shed + n.dropped_readings)
        << "node " << i;
    // The cell is all-zero until the node's first publish.
    if (n.ticks == 0) continue;
    // Controller is live on every lane (mode 0 would mean "off").
    EXPECT_NE(n.adapt_mode, 0u) << "node " << i;
    EXPECT_LE(n.adapt_mode, 2u) << "node " << i;
    // Flap bound: each mode episode spans >= hold_windows full windows,
    // so changes cannot exceed the windows the lane actually stepped.
    const std::uint64_t windows = n.ticks / window_ticks;
    EXPECT_LE(n.adapt_mode_changes * hold_windows, windows + 1)
        << "node " << i << " flapped: " << n.adapt_mode_changes
        << " changes in " << windows << " windows";
    // Sparse (cheap-path) ticks never exceed the ticks stepped.
    EXPECT_LE(n.adapt_cheap_ticks, n.ticks) << "node " << i;
  }
}

std::string run_adaptive_soak(const core::HighRpm& golden,
                              std::size_t consumers,
                              std::uint64_t ticks_per_node) {
  DaemonConfig cfg;
  cfg.consumers = consumers;
  cfg.ring_capacity = ticks_per_node;  // no-shed schedule
  Daemon daemon(golden, kNodes, tu::node_suites(kNodes), cfg);
  daemon.start();

  Producer::Config pcfg;
  pcfg.ticks_per_node = ticks_per_node;
  pcfg.burst_len = 32;
  pcfg.pause_us = 0;
  std::vector<std::size_t> low_ids, high_ids;
  std::vector<measure::NodeTickStream> low_streams, high_streams;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto& ids = i < kNodes / 2 ? low_ids : high_ids;
    auto& streams = i < kNodes / 2 ? low_streams : high_streams;
    ids.push_back(i);
    streams.push_back(tu::make_stream(i));
  }
  Producer low(daemon, low_ids, std::move(low_streams), pcfg);
  Producer high(daemon, high_ids, std::move(high_streams), pcfg);
  low.start();
  high.start();

  const std::uint64_t window_ticks = golden.config().miss_interval;
  const std::uint64_t hold = golden.config().adapt.hold_windows;
  std::uint64_t live_queries = 0;
  while (live_queries < 64) {
    const DaemonSnapshot snap = daemon.snapshot();
    check_adaptive_invariants(snap, window_ticks, hold);
    for (const NodeStatus& n : snap.nodes) {
      if (n.ticks > 0) {
        EXPECT_TRUE(std::isfinite(n.node_w));
      }
    }
    ++live_queries;
    if (snap.total_offered >= kNodes * ticks_per_node) break;
  }

  low.join();
  high.join();
  daemon.quiesce();
  const DaemonSnapshot final_snap = daemon.snapshot();
  daemon.stop();

  EXPECT_EQ(final_snap.total_offered, kNodes * ticks_per_node);
  EXPECT_EQ(final_snap.total_accepted, kNodes * ticks_per_node)
      << "soak rings must never shed";
  check_adaptive_invariants(final_snap, window_ticks, hold);
  for (const NodeStatus& n : final_snap.nodes) {
    EXPECT_TRUE(std::isfinite(n.node_w));
    // The oscillating config must have exercised BOTH paths on every node
    // by the end of the soak — a controller pinned in one mode would make
    // the determinism claim vacuous.
    EXPECT_GT(n.adapt_mode_changes, 0u);
    EXPECT_GT(n.adapt_cheap_ticks, 0u);
    EXPECT_LT(n.adapt_cheap_ticks, n.ticks);
  }
  return to_string(final_snap);
}

TEST(AdaptiveSoak, FinalSnapshotByteIdenticalAcrossConsumerCounts) {
  const core::HighRpm golden = train_adaptive_golden();
  const std::uint64_t ticks = soak_ticks_per_node();
  const std::string one = run_adaptive_soak(golden, 1, ticks);
  const std::string two = run_adaptive_soak(golden, 2, ticks);
  const std::string three = run_adaptive_soak(golden, 3, ticks);
  EXPECT_FALSE(one.empty());
  // to_string includes the adapt_mode / adapt_changes / adapt_cheap columns,
  // so this also pins controller-state determinism across consumer counts.
  EXPECT_EQ(one, two) << "1 vs 2 consumers diverged after " << ticks
                      << " ticks/node";
  EXPECT_EQ(one, three) << "1 vs 3 consumers diverged after " << ticks
                        << " ticks/node";
}

TEST(AdaptiveSoak, AccountingStaysExactUnderShedding) {
  // Tiny rings force shedding under burst pressure; the adaptive fleet's
  // accounting identity must still balance exactly on every node.
  const core::HighRpm golden = train_adaptive_golden();
  DaemonConfig cfg;
  cfg.consumers = 2;
  cfg.ring_capacity = 16;
  Daemon daemon(golden, kNodes, tu::node_suites(kNodes), cfg);
  daemon.start();

  Producer::Config pcfg;
  pcfg.ticks_per_node = 200;
  pcfg.burst_len = 64;
  pcfg.pause_us = 0;
  std::vector<std::size_t> ids;
  std::vector<measure::NodeTickStream> streams;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ids.push_back(i);
    streams.push_back(tu::make_stream(i));
  }
  Producer producer(daemon, ids, std::move(streams), pcfg);
  producer.start();
  producer.join();
  daemon.quiesce();
  const DaemonSnapshot snap = daemon.snapshot();
  daemon.stop();

  std::uint64_t offered = 0, accepted = 0, shed = 0, dropped = 0;
  for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
    const NodeStatus& n = snap.nodes[i];
    EXPECT_EQ(n.offered, n.accepted + n.shed + n.dropped_readings)
        << "node " << i;
    EXPECT_EQ(n.offered, pcfg.ticks_per_node) << "node " << i;
    offered += n.offered;
    accepted += n.accepted;
    shed += n.shed;
    dropped += n.dropped_readings;
  }
  EXPECT_EQ(offered, kNodes * pcfg.ticks_per_node);
  EXPECT_EQ(snap.total_offered, offered);
  EXPECT_EQ(snap.total_accepted, accepted);
  EXPECT_EQ(snap.total_shed, shed);
  EXPECT_EQ(snap.total_dropped_readings, dropped);
  EXPECT_EQ(offered, accepted + shed + dropped);
}

}  // namespace
}  // namespace highrpm::serve
