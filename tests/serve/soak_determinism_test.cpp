// Long-soak determinism (ctest -L soak): real producer threads flood a
// daemon while a query loop reads live snapshots; after the producers
// finish and the daemon quiesces, the final snapshot text must be
// byte-identical across consumer thread counts. Rings are sized to the
// whole schedule so nothing can shed — the soak pins the no-drop
// determinism contract under genuine concurrency, not a replayed one.
//
// Runs a short schedule by default (CI tier); set HIGHRPM_SOAK=1 for the
// long variant (scripts/check.sh soak step).
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

/// Run one full producer -> daemon -> quiesce cycle and return the final
/// snapshot text. Live snapshots are sampled during the run and checked
/// for NaNs and accounting coherence (but not determinism — timing-
/// dependent by design).
std::string run_soak(const core::HighRpm& golden, std::size_t consumers,
                     std::uint64_t ticks_per_node) {
  DaemonConfig cfg;
  cfg.consumers = consumers;
  // Room for the whole schedule: the soak pins the NO-drop contract.
  cfg.ring_capacity = ticks_per_node;
  Daemon daemon(golden, kNodes, tu::node_suites(kNodes), cfg);
  daemon.start();

  // Two producers, each owning half the fleet.
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

  std::uint64_t live_queries = 0;
  while (live_queries < 64) {
    const DaemonSnapshot snap = daemon.snapshot();
    for (const NodeStatus& n : snap.nodes) {
      EXPECT_EQ(n.offered, n.accepted + n.shed + n.dropped_readings);
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
  EXPECT_EQ(final_snap.total_held, 0u);
  for (const NodeStatus& n : final_snap.nodes) {
    EXPECT_TRUE(std::isfinite(n.node_w));
    EXPECT_TRUE(std::isfinite(n.cpu_w));
    EXPECT_TRUE(std::isfinite(n.mem_w));
  }
  return to_string(final_snap);
}

TEST(ServeSoak, FinalSnapshotByteIdenticalAcrossConsumerCounts) {
  const core::HighRpm golden = tu::train_golden();
  const std::uint64_t ticks = soak_ticks_per_node();
  const std::string one = run_soak(golden, 1, ticks);
  const std::string two = run_soak(golden, 2, ticks);
  const std::string three = run_soak(golden, 3, ticks);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two) << "1 vs 2 consumers diverged after " << ticks
                      << " ticks/node";
  EXPECT_EQ(one, three) << "1 vs 3 consumers diverged after " << ticks
                        << " ticks/node";
}

}  // namespace
}  // namespace highrpm::serve
