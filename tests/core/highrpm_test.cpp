#include "highrpm/core/highrpm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "highrpm/math/metrics.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm::core {
namespace {

HighRpmConfig fast_config() {
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 12;
  cfg.srr.epochs = 30;
  return cfg;
}

std::vector<measure::CollectedRun> training_runs(std::uint64_t seed) {
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::fft(), 200, seed));
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::stream(), 200, seed + 1));
  return runs;
}

measure::CollectedRun test_run(std::uint64_t seed, std::size_t ticks = 100) {
  measure::Collector collector;
  return collector.collect(sim::PlatformConfig::arm(), workloads::smg2000(),
                           ticks, seed);
}

class HighRpmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    framework_ = new HighRpm(fast_config());
    const auto runs = training_runs(100);
    framework_->initial_learning(runs);
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static HighRpm* framework_;
};

HighRpm* HighRpmTest::framework_ = nullptr;

TEST(HighRpm, UntrainedUsageThrows) {
  HighRpm h(fast_config());
  EXPECT_FALSE(h.trained());
  const std::vector<double> pmcs(sim::kNumPmcEvents, 0.0);
  EXPECT_THROW(h.on_tick(pmcs, std::nullopt), std::logic_error);
  EXPECT_THROW(h.restore_log(test_run(1)), std::logic_error);
  EXPECT_THROW(h.active_learning(test_run(1)), std::logic_error);
  EXPECT_THROW(h.initial_learning({}), std::invalid_argument);
}

TEST_F(HighRpmTest, TrainedAfterInitialLearning) {
  EXPECT_TRUE(framework_->trained());
}

TEST_F(HighRpmTest, RestoreLogCoversEveryTick) {
  const auto run = test_run(2, 120);
  const auto log = framework_->restore_log(run);
  EXPECT_EQ(log.node_w.size(), 120u);
  EXPECT_EQ(log.cpu_w.size(), 120u);
  EXPECT_EQ(log.mem_w.size(), 120u);
  const auto truth = run.truth.node_power();
  EXPECT_LT(math::mape(truth, log.node_w), 12.0);
}

TEST_F(HighRpmTest, StreamingEstimatesAreConsistent) {
  HighRpm h = *framework_;  // private copy so fine-tunes don't leak
  h.reset_stream();
  const auto run = test_run(3, 80);
  const auto& features = run.dataset.features();
  std::vector<double> truth, est;
  for (std::size_t t = 0; t < run.num_ticks(); ++t) {
    std::optional<double> reading;
    if (run.measured[t]) reading = run.dataset.target("P_NODE")[t];
    const auto e = h.on_tick(features.row(t), reading);
    EXPECT_EQ(e.measured, run.measured[t]);
    // Components must roughly add up: node ~= cpu + mem + P_other.
    EXPECT_NEAR(e.cpu_w + e.mem_w + h.srr().config().p_other_w, e.node_w,
                0.5 * e.node_w);
    truth.push_back(run.truth[t].p_node_w);
    est.push_back(e.node_w);
  }
  EXPECT_LT(math::mape(truth, est), 12.0);
}

TEST_F(HighRpmTest, ActiveLearningRunsAndCounts) {
  HighRpm h = *framework_;
  const auto run = test_run(4, 150);
  const std::size_t before = h.active_learning_rounds();
  h.active_learning(run);
  EXPECT_EQ(h.active_learning_rounds(), before + 1);
}

// ---------------------------------------------------------------------------
// K-way per-tenant attribution + SmartWatts-style self-calibration.

HighRpmConfig tenant_config(std::size_t k) {
  HighRpmConfig cfg = fast_config();
  cfg.tenants = k;
  cfg.tenant_srr.epochs = 50;
  return cfg;
}

std::vector<measure::CollectedRun> tenant_runs(std::uint64_t seed) {
  measure::Collector collector;
  const std::vector<sim::Workload> tenants{workloads::fft(),
                                           workloads::stream()};
  std::vector<measure::CollectedRun> runs;
  runs.push_back(
      collector.collect_tenants(sim::PlatformConfig::arm(), tenants, 200, seed));
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), tenants,
                                           200, seed + 1));
  return runs;
}

class HighRpmAttributionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    framework_ = new HighRpm(tenant_config(2));
    const auto runs = tenant_runs(500);
    framework_->initial_learning(runs);
    framework_->fit_attribution(runs);
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static HighRpm* framework_;
};

HighRpm* HighRpmAttributionTest::framework_ = nullptr;

TEST(HighRpmAttribution, CtorValidatesTenantAndSelfCalConfig) {
  HighRpmConfig over = tenant_config(kMaxTenants + 1);
  EXPECT_THROW(HighRpm{over}, std::invalid_argument);
  HighRpmConfig bad_alpha = tenant_config(2);
  bad_alpha.self_cal.enabled = true;
  bad_alpha.self_cal.ewma_alpha = 0.0;
  EXPECT_THROW(HighRpm{bad_alpha}, std::invalid_argument);
  HighRpmConfig bad_buffer = tenant_config(2);
  bad_buffer.self_cal.enabled = true;
  bad_buffer.self_cal.buffer_ticks = 8;
  bad_buffer.self_cal.min_buffered = 9;
  EXPECT_THROW(HighRpm{bad_buffer}, std::invalid_argument);
}

TEST(HighRpmAttribution, GuardsBeforeAndAfterFit) {
  HighRpm plain(fast_config());
  EXPECT_THROW(plain.fit_attribution(tenant_runs(1)), std::logic_error);

  HighRpm h(tenant_config(2));
  EXPECT_FALSE(h.attribution_trained());
  EXPECT_THROW(h.fit_attribution({}), std::invalid_argument);
  // Runs collected without tenants carry num_tenants == 0 != cfg.tenants.
  measure::Collector collector;
  std::vector<measure::CollectedRun> plain_runs;
  plain_runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                         workloads::fft(), 40, 7));
  EXPECT_THROW(h.fit_attribution(plain_runs), std::invalid_argument);

  const std::vector<double> pmcs(sim::kNumPmcEvents, 0.0);
  const std::vector<double> trow(2 * sim::kNumPmcEvents, 0.0);
  EXPECT_THROW(h.on_tick(pmcs, trow, std::nullopt), std::logic_error);
}

TEST_F(HighRpmAttributionTest, TenantEstimatesTrackGroundTruth) {
  HighRpm h = *framework_;
  h.reset_stream();
  const auto run = tenant_runs(900)[0];
  const auto& features = run.dataset.features();
  double err = 0.0, total = 0.0;
  for (std::size_t t = 0; t < run.num_ticks(); ++t) {
    std::optional<double> reading;
    if (run.measured[t]) reading = run.dataset.target("P_NODE")[t];
    const auto e = h.on_tick(features.row(t), run.tenant_pmcs.row(t), reading);
    ASSERT_EQ(e.tenants, 2u);
    double sum = 0.0;
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_TRUE(std::isfinite(e.tenant_w[k]));
      EXPECT_GE(e.tenant_w[k], 0.0);
      sum += e.tenant_w[k];
      err += std::abs(e.tenant_w[k] - run.tenant_power(t, k));
      total += run.tenant_power(t, k);
    }
    // The projection pulls the K-way split toward the node budget.
    EXPECT_NEAR(sum, e.node_w - h.attribution_srr().config().p_other_w,
                0.5 * e.node_w);
  }
  EXPECT_LT(err / total, 0.35);
  // Wrong-size tenant row is rejected.
  const std::vector<double> bad(3 * sim::kNumPmcEvents, 0.0);
  EXPECT_THROW(h.on_tick(features.row(0), bad, std::nullopt),
               std::invalid_argument);
}

TEST_F(HighRpmAttributionTest, CorruptTenantRowHeldAtLastGood) {
  const auto run = tenant_runs(901)[0];
  const auto& features = run.dataset.features();
  HighRpm held = *framework_;
  HighRpm control = *framework_;
  held.reset_stream();
  control.reset_stream();
  for (std::size_t t = 0; t < 10; ++t) {
    held.on_tick(features.row(t), run.tenant_pmcs.row(t), std::nullopt);
    control.on_tick(features.row(t), run.tenant_pmcs.row(t), std::nullopt);
  }
  // Tick 10: `held` sees a corrupt row, `control` is fed tick 9's row
  // explicitly — the hold must make them byte-identical.
  std::vector<double> corrupt(run.tenant_pmcs.row(10).begin(),
                              run.tenant_pmcs.row(10).end());
  corrupt[1] = std::numeric_limits<double>::quiet_NaN();
  const auto a = held.on_tick(features.row(10), corrupt, std::nullopt);
  const auto b =
      control.on_tick(features.row(10), run.tenant_pmcs.row(9), std::nullopt);
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_EQ(a.tenant_w[k], b.tenant_w[k]);
  }
  // Before any good row the hold substitutes zeros, never NaN.
  HighRpm fresh = *framework_;
  fresh.reset_stream();
  const auto first =
      fresh.on_tick(features.row(0), corrupt, std::nullopt);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(std::isfinite(first.tenant_w[k]));
  }
}

TEST_F(HighRpmAttributionTest, SelfCalibrationTriggersOnDriftOnly) {
  HighRpmConfig cfg = tenant_config(2);
  cfg.self_cal.enabled = true;
  cfg.self_cal.drift_threshold_pct = 15.0;
  cfg.self_cal.buffer_ticks = 24;
  cfg.self_cal.min_buffered = 8;
  cfg.self_cal.cooldown_ticks = 40;
  HighRpm h(cfg);
  const auto runs = tenant_runs(500);
  h.initial_learning(runs);
  h.fit_attribution(runs);

  const auto run = tenant_runs(902)[0];
  const auto& features = run.dataset.features();
  const auto& p_node = run.dataset.target("P_NODE");

  // In-distribution readings: the drift EWMA stays under threshold.
  for (std::size_t t = 0; t < 60; ++t) {
    h.on_tick(features.row(t), run.tenant_pmcs.row(t), p_node[t]);
  }
  EXPECT_EQ(h.self_cal_triggers(), 0u);
  EXPECT_LT(h.self_cal_drift_pct(), cfg.self_cal.drift_threshold_pct);

  // Latent platform change (per-op energy scales up 1.5x — same tenant
  // activity, more watts): the PMC-only head's raw sum now undershoots the
  // trusted IM budget by a sustained margin. The readings are genuine, so
  // DynamicTrr keeps accepting them (measured ticks are the only ones
  // buffered/scored), the drift EWMA crosses threshold and the trigger
  // fires — while the cooldown stops it re-firing every tick.
  sim::PlatformConfig hot = sim::PlatformConfig::arm();
  hot.power.inst_energy_nj *= 1.5;
  hot.power.mem_energy_nj *= 1.5;
  hot.power.dyn_scale *= 1.5;
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  const auto drifted = collector.collect_tenants(hot, mix, 120, 902);
  const auto& dfeat = drifted.dataset.features();
  const auto& dnode = drifted.dataset.target("P_NODE");
  h.reset_stream();
  for (std::size_t t = 0; t < 120; ++t) {
    h.on_tick(dfeat.row(t), drifted.tenant_pmcs.row(t), dnode[t]);
  }
  EXPECT_GE(h.self_cal_triggers(), 1u);
  EXPECT_LE(h.self_cal_triggers(), 3u)
      << "cooldown failed to rate-limit recalibration";

  // Disabled self-cal never fires, whatever the drift.
  HighRpm off = *framework_;
  off.reset_stream();
  for (std::size_t t = 0; t < 120; ++t) {
    off.on_tick(dfeat.row(t), drifted.tenant_pmcs.row(t), dnode[t]);
  }
  EXPECT_EQ(off.self_cal_triggers(), 0u);
}

}  // namespace
}  // namespace highrpm::core
