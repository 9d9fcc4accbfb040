// Graceful-degradation behaviour of the models under injected sensor
// faults: every pathology the FaultInjector produces must leave the
// pipeline returning finite, plausible estimates — never NaN, never a
// throw from deep inside a spline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/fleet.hpp"
#include "highrpm/core/highrpm.hpp"
#include "highrpm/core/static_trr.hpp"
#include "highrpm/measure/faults.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

measure::CollectedRun collect(const sim::Workload& w, std::size_t ticks,
                              std::uint64_t seed) {
  measure::Collector collector;
  return collector.collect(sim::PlatformConfig::arm(), w, ticks, seed);
}

core::DynamicTrr trained_trr(const measure::CollectedRun& train,
                             core::DynamicTrrConfig cfg = {}) {
  if (cfg.rnn.epochs > 12) cfg.rnn.epochs = 12;
  core::DynamicTrr trr(cfg);
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));
  return trr;
}

// --- DynamicTRR: per-pathology streaming behaviour ---

TEST(DynamicTrrDegradation, NanPmcRowsYieldFiniteEstimates) {
  const auto train = collect(workloads::fft(), 250, 1);
  auto trr = trained_trr(train);
  const auto test = collect(workloads::fft(), 60, 2);
  measure::FaultProfile p;
  p.pmc_nan = 0.4;
  p.seed = 17;
  const auto faulted = measure::inject_faults(test, p);

  const auto& f = faulted.dataset.features();
  for (std::size_t t = 0; t < faulted.num_ticks(); ++t) {
    std::optional<double> reading;
    if (faulted.measured[t]) {
      reading = faulted.dataset.target("P_NODE")[t];
    }
    const double est = trr.step(f.row(t), reading).estimate;
    EXPECT_TRUE(std::isfinite(est)) << "tick " << t;
    EXPECT_GT(est, 0.0);
  }
  EXPECT_GT(trr.substituted_rows(), 0u);
}

TEST(DynamicTrrDegradation, DropoutKeepsPredictingAndRecovers) {
  const auto train = collect(workloads::fft(), 250, 1);
  auto trr = trained_trr(train);
  const auto test = collect(workloads::fft(), 80, 3);
  const auto& f = test.dataset.features();
  const auto labels = test.dataset.target("P_NODE");

  // Readings vanish for ticks 10..49 (a 4x-miss_interval outage); the
  // stream must keep producing plausible estimates throughout and resume
  // fine-tuning once readings return.
  const std::size_t before_outage_finetunes = [&] {
    for (std::size_t t = 0; t < 10; ++t) {
      std::optional<double> reading;
      if (test.measured[t]) reading = labels[t];
      EXPECT_TRUE(std::isfinite(trr.step(f.row(t), reading).estimate));
    }
    return trr.finetune_count();
  }();
  for (std::size_t t = 10; t < 50; ++t) {
    const double est = trr.step(f.row(t), std::nullopt).estimate;
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GE(est, trr.p_bottom());
    EXPECT_LE(est, trr.p_upper());
  }
  EXPECT_EQ(trr.finetune_count(), before_outage_finetunes);
  std::size_t after = before_outage_finetunes;
  for (std::size_t t = 50; t < 80; ++t) {
    std::optional<double> reading;
    if (test.measured[t]) reading = labels[t];
    EXPECT_TRUE(std::isfinite(trr.step(f.row(t), reading).estimate));
    after = trr.finetune_count();
  }
  EXPECT_GT(after, before_outage_finetunes);
}

TEST(DynamicTrrDegradation, SpikeReadingsAreRejected) {
  const auto train = collect(workloads::fft(), 250, 1);
  auto trr = trained_trr(train);
  const auto test = collect(workloads::fft(), 40, 4);
  const auto& f = test.dataset.features();
  const auto labels = test.dataset.target("P_NODE");

  const double spike = 3.0 * trr.p_upper();  // far outside the band
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    std::optional<double> reading;
    if (test.measured[t]) reading = (t == 20) ? spike : labels[t];
    const double est = trr.step(f.row(t), reading).estimate;
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_NE(est, spike);
    EXPECT_LE(est, trr.p_upper());
  }
  EXPECT_GE(trr.rejected_readings(), 1u);
}

TEST(DynamicTrrDegradation, StuckReadingsAreRejectedOnceTheModelDisagrees) {
  const auto train = collect(workloads::fft(), 250, 1);
  core::DynamicTrrConfig cfg;
  cfg.stuck_limit = 1;
  cfg.stuck_disagreement = 0.02;  // fire on any visible disagreement
  auto trr = trained_trr(train, cfg);
  const auto test = collect(workloads::fft(), 40, 5);
  const auto& f = test.dataset.features();

  // A sensor latched near the top of the plausibility band (inside it, so
  // the plausibility check alone cannot catch it) delivering every tick.
  const double latched = trr.p_upper() - 1.0;
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    EXPECT_TRUE(std::isfinite(trr.step(f.row(t), latched).estimate));
  }
  EXPECT_GE(trr.rejected_readings(), 1u);
}

TEST(DynamicTrrDegradation, NonFiniteReadingIsTreatedAsMissing) {
  const auto train = collect(workloads::fft(), 250, 1);
  auto trr = trained_trr(train);
  const auto test = collect(workloads::fft(), 20, 6);
  const auto& f = test.dataset.features();
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    std::optional<double> reading;
    if (t == 10) reading = kNan;
    EXPECT_TRUE(std::isfinite(trr.step(f.row(t), reading).estimate));
  }
  EXPECT_GE(trr.rejected_readings(), 1u);
}

TEST(DynamicTrrDegradation, TrainRejectsNonFiniteData) {
  math::Matrix pmcs(40, 3, 1.0);
  std::vector<double> labels(40, 100.0);
  core::DynamicTrr trr;
  auto bad_pmcs = pmcs;
  bad_pmcs(7, 1) = kNan;
  EXPECT_THROW(trr.train_single(bad_pmcs, labels), std::invalid_argument);
  auto bad_labels = labels;
  bad_labels[3] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(trr.train_single(pmcs, bad_labels), std::invalid_argument);
}

// --- StaticTRR: labeled-reading pathologies ---

TEST(StaticTrrDegradation, DuplicateAndNonMonotonicTimestampsFitCleanly) {
  const auto run = collect(workloads::fft(), 120, 7);
  std::vector<std::size_t> idx;
  std::vector<double> power;
  for (const auto& r : run.ipmi_readings) {
    idx.push_back(r.tick_index);
    power.push_back(r.power_w);
  }
  ASSERT_GE(idx.size(), 6u);
  // Jitter pathologies: a duplicate timestamp and an out-of-order pair —
  // pre-hardening these blew up inside CubicSpline ("x must be strictly
  // increasing").
  idx.push_back(idx[2]);
  power.push_back(power[2] + 1.0);
  std::swap(idx[3], idx[4]);
  std::swap(power[3], power[4]);

  core::StaticTrrConfig cfg;
  core::StaticTrr trr(cfg);
  const auto times = run.truth.times();
  ASSERT_NO_THROW(trr.fit(run.dataset.features(), times, idx, power));
  const auto restored = trr.restore(run.dataset.features(), times);
  for (const double v : restored.merged) EXPECT_TRUE(std::isfinite(v));
}

TEST(StaticTrrDegradation, NonFiniteAndOutOfRangeReadingsAreDropped) {
  const auto cleaned = core::clean_labeled_readings(
      std::vector<std::size_t>{0, 10, 999, 20, 30, 20},
      std::vector<double>{100.0, kNan, 105.0, 110.0, 120.0, 114.0}, 100);
  // tick 999 is out of range, the NaN is dropped, the duplicate tick 20
  // averages to 112.
  ASSERT_EQ(cleaned.idx.size(), 3u);
  EXPECT_EQ(cleaned.idx, (std::vector<std::size_t>{0, 20, 30}));
  EXPECT_DOUBLE_EQ(cleaned.power[1], 112.0);
  EXPECT_DOUBLE_EQ(cleaned.power[2], 120.0);
}

TEST(StaticTrrDegradation, TooFewUsableReadingsThrowCleanly) {
  const auto run = collect(workloads::fft(), 60, 8);
  core::StaticTrr trr;
  const auto times = run.truth.times();
  // 5 readings but only 3 usable (one NaN, one out of range).
  const std::vector<std::size_t> idx{0, 10, 20, 30, 400};
  const std::vector<double> power{100.0, kNan, 105.0, 110.0, 108.0};
  EXPECT_THROW(trr.fit(run.dataset.features(), times, idx, power),
               std::invalid_argument);
}

TEST(StaticTrrDegradation, ExplicitBoundsVetoSpikedReadings) {
  const auto run = collect(workloads::fft(), 120, 9);
  std::vector<std::size_t> idx;
  std::vector<double> power;
  for (const auto& r : run.ipmi_readings) {
    idx.push_back(r.tick_index);
    power.push_back(r.power_w);
  }
  ASSERT_GE(idx.size(), 6u);
  const auto times = run.truth.times();

  // Spike one reading to 3x; with explicit plausibility bounds the fit
  // must ignore it, keeping the restoration in the plausible range.
  auto spiked = power;
  spiked[2] *= 3.0;
  core::StaticTrrConfig cfg;
  cfg.p_bottom = 10.0;
  cfg.p_upper = 2.0 * *std::max_element(power.begin(), power.end());
  core::StaticTrr trr(cfg);
  trr.fit(run.dataset.features(), times, idx, spiked);
  const auto restored = trr.restore(run.dataset.features(), times);
  for (const double v : restored.merged) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LE(v, cfg.p_upper);
  }
}

TEST(StaticTrrDegradation, RestoreSurvivesNanPmcRows) {
  const auto run = collect(workloads::fft(), 120, 10);
  std::vector<std::size_t> idx;
  std::vector<double> power;
  for (const auto& r : run.ipmi_readings) {
    idx.push_back(r.tick_index);
    power.push_back(r.power_w);
  }
  const auto times = run.truth.times();
  core::StaticTrr trr;
  trr.fit(run.dataset.features(), times, idx, power);

  auto features = run.dataset.features();
  for (std::size_t c = 0; c < features.cols(); ++c) {
    features(5, c) = kNan;
  }
  const auto restored = trr.restore(features, times);
  for (const double v : restored.merged) EXPECT_TRUE(std::isfinite(v));
}

// --- the full facade under the acceptance-scenario fault profile ---

class FacadeDegradationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::HighRpmConfig cfg;
    cfg.dynamic_trr.rnn.epochs = 12;
    cfg.srr.epochs = 30;
    framework_ = new core::HighRpm(cfg);
    measure::Collector collector;
    std::vector<measure::CollectedRun> runs;
    runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                     workloads::fft(), 200, 300));
    runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                     workloads::stream(), 200, 301));
    framework_->initial_learning(runs);
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static core::HighRpm* framework_;
};

core::HighRpm* FacadeDegradationTest::framework_ = nullptr;

TEST_F(FacadeDegradationTest, TwentyPercentDropoutWithNanPmcRows) {
  core::HighRpm h = *framework_;
  h.reset_stream();
  const auto run = collect(workloads::smg2000(), 100, 302);
  measure::FaultProfile p;
  p.im_dropout = 0.2;
  p.pmc_nan = 0.2;
  p.seed = 303;
  const auto faulted = measure::inject_faults(run, p);

  // Feed the surviving readings' actual values — node, cpu and mem
  // estimates must come back finite on every tick, degraded rows included.
  std::vector<std::optional<double>> reading_at(faulted.num_ticks());
  for (const auto& r : faulted.ipmi_readings) {
    reading_at[r.tick_index] = r.power_w;
  }
  const auto& f = faulted.dataset.features();
  for (std::size_t t = 0; t < faulted.num_ticks(); ++t) {
    const auto est = h.on_tick(f.row(t), reading_at[t]);
    EXPECT_TRUE(std::isfinite(est.node_w)) << "tick " << t;
    EXPECT_TRUE(std::isfinite(est.cpu_w)) << "tick " << t;
    EXPECT_TRUE(std::isfinite(est.mem_w)) << "tick " << t;
    EXPECT_GT(est.node_w, 0.0);
    EXPECT_GE(est.cpu_w, 0.0);
    EXPECT_GE(est.mem_w, 0.0);
  }
  EXPECT_GT(h.held_rows(), 0u);
}

TEST_F(FacadeDegradationTest, MeasuredFlagIsHonestUnderRejection) {
  core::HighRpm h = *framework_;
  h.reset_stream();
  const auto run = collect(workloads::fft(), 40, 304);
  const auto& f = run.dataset.features();
  const auto labels = run.dataset.target("P_NODE");
  for (std::size_t t = 0; t < run.num_ticks(); ++t) {
    std::optional<double> reading;
    if (run.measured[t]) {
      // Every other reading is garbage; the flag must track acceptance,
      // not mere presence.
      reading = (t % 20 == 10) ? 100.0 * labels[t] : labels[t];
    }
    const auto est = h.on_tick(f.row(t), reading);
    if (reading && *reading > h.dynamic_trr().p_upper()) {
      EXPECT_FALSE(est.measured);
    }
    if (!reading) {
      EXPECT_FALSE(est.measured);
    }
  }
}

TEST_F(FacadeDegradationTest, ActiveLearningToleratesFaultedRun) {
  core::HighRpm h = *framework_;
  const auto run = collect(workloads::fft(), 150, 305);
  measure::FaultProfile p;
  p.im_dropout = 0.2;
  p.pmc_nan = 0.2;
  p.seed = 306;
  const auto faulted = measure::inject_faults(run, p);
  ASSERT_NO_THROW(h.active_learning(faulted));
  // The facade must still stream cleanly afterwards.
  h.reset_stream();
  const auto& f = run.dataset.features();
  for (std::size_t t = 0; t < 20; ++t) {
    EXPECT_TRUE(std::isfinite(h.on_tick(f.row(t), std::nullopt).node_w));
  }
}

// One hold policy through every entry point. Readings arrive every 10th
// tick; ticks 25 and 26 carry a NaN PMC value and the reading at tick 40 is
// NaN. `tick` steps one tick through the entry point under test and `trr`
// is the DynamicTrr behind it: the held rows must be counted there, the
// reading at tick 30 (whose window 21..30 holds them) must be accepted
// without a fine-tune, and the NaN reading must count as rejected.
template <typename Tick>
void expect_one_hold_policy(const core::DynamicTrr& trr, Tick tick) {
  const auto run = collect(workloads::fft(), 60, 309);
  const auto& f = run.dataset.features();
  const auto labels = run.dataset.target("P_NODE");
  const std::size_t substituted0 = trr.substituted_rows();
  std::vector<double> row(f.cols());
  for (std::size_t t = 0; t < run.num_ticks(); ++t) {
    std::copy(f.row(t).begin(), f.row(t).end(), row.begin());
    if (t == 25 || t == 26) row[1] = kNan;
    std::optional<double> reading;
    if (t % 10 == 0) reading = t == 40 ? kNan : labels[t];
    const std::size_t finetunes = trr.finetune_count();
    const std::size_t rejected = trr.rejected_readings();
    const core::PowerEstimate est = tick(row, reading);
    EXPECT_TRUE(std::isfinite(est.node_w)) << "tick " << t;
    if (t == 20 || t == 50) {
      // Clean full windows are trained on.
      EXPECT_TRUE(est.measured) << "tick " << t;
      EXPECT_EQ(trr.finetune_count(), finetunes + 1) << "tick " << t;
    } else if (t == 30) {
      EXPECT_TRUE(est.measured);
      EXPECT_EQ(trr.finetune_count(), finetunes)
          << "a window holding substituted rows was trained on";
    } else if (t == 40) {
      EXPECT_FALSE(est.measured);
      EXPECT_EQ(trr.rejected_readings(), rejected + 1)
          << "a NaN reading was dropped without counting as rejected";
    }
  }
  EXPECT_EQ(trr.substituted_rows() - substituted0, 2u);
}

TEST_F(FacadeDegradationTest, HeldWindowsSkipFineTuneAndNanReadingIsRejected) {
  core::HighRpm h = *framework_;
  h.reset_stream();
  ASSERT_TRUE(h.config().dynamic_trr.online_finetune);
  expect_one_hold_policy(
      h.dynamic_trr(),
      [&](std::span<const double> row, std::optional<double> reading) {
        return h.on_tick(row, reading);
      });
  EXPECT_GT(h.held_rows(), 0u);
  EXPECT_EQ(h.dynamic_trr().substituted_rows(), h.held_rows());
}

TEST_F(FacadeDegradationTest,
       FleetLaneHeldWindowsSkipFineTuneAndNanReadingIsRejected) {
  core::FleetStepper fleet(*framework_, 1);
  ASSERT_FALSE(fleet.shared_rnn());  // online fine-tune: per-lane weights
  expect_one_hold_policy(
      fleet.lane(0).trr,
      [&](std::span<const double> row, std::optional<double> reading) {
        math::Matrix pmcs(1, row.size());
        std::copy(row.begin(), row.end(), pmcs.row(0).begin());
        core::PowerEstimate out;
        fleet.step_tick(pmcs, std::span<const std::optional<double>>(&reading, 1),
                        std::span<core::PowerEstimate>(&out, 1));
        return out;
      });
}

TEST_F(FacadeDegradationTest, RestoreLogSurvivesFaultedRun) {
  const auto run = collect(workloads::fft(), 120, 307);
  measure::FaultProfile p;
  p.im_dropout = 0.3;
  p.pmc_nan = 0.2;
  p.im_jitter_ticks = 2;
  p.seed = 308;
  const auto faulted = measure::inject_faults(run, p);
  const auto log = framework_->restore_log(faulted);
  ASSERT_EQ(log.node_w.size(), faulted.num_ticks());
  for (std::size_t t = 0; t < faulted.num_ticks(); ++t) {
    EXPECT_TRUE(std::isfinite(log.node_w[t]));
    EXPECT_TRUE(std::isfinite(log.cpu_w[t]));
    EXPECT_TRUE(std::isfinite(log.mem_w[t]));
  }
}

}  // namespace
}  // namespace highrpm
