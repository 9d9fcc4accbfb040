// Regression test for the diagnostic-counter data race: held_rows(),
// rejected_readings(), substituted_rows() and friends used to be plain
// size_t fields, so a monitor thread polling them while the stream thread
// stepped was a TSan-visible race. They are obs::Counter atomics now; this
// test reconstructs the exact polling-while-stepping interleaving so
// `ctest -L faults` under -DHIGHRPM_SANITIZE=thread keeps it fixed.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/highrpm.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

measure::CollectedRun collect(std::size_t ticks, std::uint64_t seed) {
  measure::Collector collector;
  return collector.collect(sim::PlatformConfig::arm(), workloads::fft(),
                           ticks, seed);
}

TEST(CounterRace, PollingDynamicTrrDiagnosticsWhileStepping) {
  const auto train = collect(220, 11);
  core::DynamicTrrConfig cfg;
  cfg.rnn.epochs = 8;
  core::DynamicTrr trr(cfg);
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));

  const auto test = collect(120, 12);
  const auto& f = test.dataset.features();
  std::atomic<bool> done{false};

  std::thread poller([&] {
    // Reads race the stream thread's increments by design; atomics make
    // that safe, and cumulative counters can only grow.
    std::size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t seen = trr.rejected_readings() +
                               trr.substituted_rows() + trr.cold_starts() +
                               trr.finetune_count();
      EXPECT_GE(seen, last);
      last = seen;
    }
  });

  std::vector<double> degraded(f.cols(), kNan);
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    std::optional<double> reading;
    if (t % 10 == 0) reading = 1e9;  // implausible: always rejected
    const bool bad_row = t % 7 == 0;
    const double est =
        trr.step(bad_row ? std::span<const double>(degraded) : f.row(t),
                 reading)
            .estimate;
    EXPECT_TRUE(std::isfinite(est));
  }
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GT(trr.rejected_readings(), 0u);
  EXPECT_GT(trr.substituted_rows(), 0u);
}

TEST(CounterRace, PollingHeldRowsWhileOnTickRuns) {
  core::HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 6;
  cfg.srr.epochs = 15;
  core::HighRpm framework(cfg);
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collect(200, 21));
  framework.initial_learning(runs);

  const auto test = collect(100, 22);
  const auto& f = test.dataset.features();
  std::atomic<bool> done{false};

  std::thread poller([&] {
    std::size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t held = framework.held_rows();
      EXPECT_GE(held, last);
      last = held;
    }
  });

  std::vector<double> degraded(f.cols(), kNan);
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    const bool bad_row = t % 5 == 0;
    const auto est = framework.on_tick(
        bad_row ? std::span<const double>(degraded) : f.row(t),
        std::nullopt);
    EXPECT_TRUE(std::isfinite(est.node_w));
  }
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GT(framework.held_rows(), 0u);
}

}  // namespace
}  // namespace highrpm
