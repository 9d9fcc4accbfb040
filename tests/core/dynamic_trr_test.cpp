#include "highrpm/core/dynamic_trr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "highrpm/math/metrics.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm::core {
namespace {

measure::CollectedRun collect(const sim::Workload& w, std::size_t ticks,
                              std::uint64_t seed) {
  measure::Collector collector;
  return collector.collect(sim::PlatformConfig::arm(), w, ticks, seed);
}

DynamicTrrConfig fast_config() {
  DynamicTrrConfig cfg;
  cfg.rnn.epochs = 12;
  return cfg;
}

TEST(DynamicTrr, ConfigValidation) {
  DynamicTrrConfig cfg;
  cfg.miss_interval = 1;
  EXPECT_THROW(DynamicTrr{cfg}, std::invalid_argument);
}

TEST(DynamicTrr, StepBeforeTrainThrows) {
  DynamicTrr trr(fast_config());
  const std::vector<double> pmcs(sim::kNumPmcEvents, 0.0);
  EXPECT_THROW(trr.step(pmcs, std::nullopt), std::logic_error);
}

TEST(DynamicTrr, TrainRequiresFullWindows) {
  DynamicTrr trr(fast_config());
  // 5 ticks < miss_interval of 10: no window can be built.
  const math::Matrix pmcs(5, 3, 1.0);
  const std::vector<double> labels{1, 2, 3, 4, 5};
  EXPECT_THROW(trr.train_single(pmcs, labels), std::invalid_argument);
}

TEST(DynamicTrr, StreamingProducesEstimateEveryTick) {
  const auto train = collect(workloads::fft(), 250, 1);
  DynamicTrr trr(fast_config());
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));

  const auto test = collect(workloads::fft(), 60, 2);
  const auto& features = test.dataset.features();
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    std::optional<double> reading;
    if (test.measured[t]) {
      reading = test.dataset.target("P_NODE")[t];
    }
    const double est = trr.step(features.row(t), reading).estimate;
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GT(est, 0.0);
    EXPECT_LT(est, 400.0);
  }
}

TEST(DynamicTrr, MeasuredTicksReturnTheMeasurement) {
  const auto train = collect(workloads::fft(), 250, 3);
  DynamicTrr trr(fast_config());
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));
  const auto test = collect(workloads::fft(), 40, 4);
  const auto& features = test.dataset.features();
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    if (test.measured[t]) {
      const double v = test.dataset.target("P_NODE")[t];
      EXPECT_DOUBLE_EQ(trr.step(features.row(t), v).estimate, v);
    } else {
      trr.step(features.row(t), std::nullopt);
    }
  }
}

TEST(DynamicTrr, OnlineFinetuneFiresOnMeasurements) {
  const auto train = collect(workloads::fft(), 250, 5);
  DynamicTrrConfig cfg = fast_config();
  cfg.online_finetune = true;
  DynamicTrr trr(cfg);
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));
  const auto test = collect(workloads::fft(), 60, 6);
  const auto& features = test.dataset.features();
  const std::size_t before = trr.finetune_count();
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    std::optional<double> reading;
    if (test.measured[t]) reading = test.dataset.target("P_NODE")[t];
    trr.step(features.row(t), reading);
  }
  // Readings arrive every 10 ticks; the first few fall before the window is
  // full, so expect at least a couple of fine-tunes over 60 ticks.
  EXPECT_GE(trr.finetune_count(), before + 2);
}

TEST(DynamicTrr, TracksNodePowerOnUnseenRun) {
  // Train on two workloads, stream an unseen one: errors should stay in a
  // usable band (the full Table-5 comparison lives in the bench).
  std::vector<math::Matrix> pmcs;
  std::vector<std::vector<double>> labels;
  for (const auto& [w, seed] :
       std::vector<std::pair<sim::Workload, std::uint64_t>>{
           {workloads::fft(), 10}, {workloads::stream(), 11}}) {
    const auto run = collect(w, 200, seed);
    pmcs.push_back(run.dataset.features());
    labels.push_back(run.dataset.target("P_NODE"));
  }
  DynamicTrrConfig cfg = fast_config();
  cfg.rnn.epochs = 25;
  DynamicTrr trr(cfg);
  trr.train(pmcs, labels);

  const auto test = collect(workloads::hpcg(), 120, 12);
  const auto& features = test.dataset.features();
  std::vector<double> truth, est;
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    std::optional<double> reading;
    if (test.measured[t]) reading = test.dataset.target("P_NODE")[t];
    const double e = trr.step(features.row(t), reading).estimate;
    if (!test.measured[t]) {  // score only restored ticks
      truth.push_back(test.truth[t].p_node_w);
      est.push_back(e);
    }
  }
  EXPECT_LT(math::mape(truth, est), 15.0);
}

TEST(DynamicTrr, ResetStreamClearsState) {
  const auto train = collect(workloads::fft(), 250, 13);
  DynamicTrr trr(fast_config());
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));
  const auto test = collect(workloads::fft(), 30, 14);
  const auto& features = test.dataset.features();
  std::vector<double> first;
  for (std::size_t t = 0; t < 20; ++t) {
    first.push_back(trr.step(features.row(t), std::nullopt).estimate);
  }
  trr.reset_stream();
  // Replaying the same ticks after reset gives the same estimates only if
  // no online fine-tune happened (none did: no readings were offered).
  for (std::size_t t = 0; t < 20; ++t) {
    EXPECT_DOUBLE_EQ(trr.step(features.row(t), std::nullopt).estimate,
                     first[t]);
  }
}

TEST(DynamicTrr, FineTuneApiRejectsUntrained) {
  DynamicTrr trr(fast_config());
  EXPECT_THROW(trr.fine_tune({}, 1), std::logic_error);
}


TEST(DynamicTrr, ColdStartFallsBackToTrainingLabelMean) {
  const auto train = collect(workloads::fft(), 250, 15);
  DynamicTrr trr(fast_config());
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));
  const double mean = trr.train_label_mean();
  EXPECT_GT(mean, 0.0);

  // First tick of a stream with no IM reading: pre-hardening the P'_prev
  // input was 0.0 W — far outside anything the model trained on — and the
  // first estimates started from nonsense. With the label-mean prior the
  // cold-start estimate lands near the training distribution.
  const auto test = collect(workloads::fft(), 10, 16);
  const double est =
      trr.step(test.dataset.features().row(0), std::nullopt).estimate;
  EXPECT_NEAR(est, mean, 0.35 * mean);
}

TEST(DynamicTrr, StreamWindowNeverExceedsMissInterval) {
  const auto train = collect(workloads::fft(), 250, 17);
  DynamicTrr trr(fast_config());
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));
  const std::size_t mi = trr.config().miss_interval;
  const auto test = collect(workloads::fft(), 50, 18);
  const auto& features = test.dataset.features();
  EXPECT_EQ(trr.stream_window_size(), 0u);
  for (std::size_t t = 0; t < test.num_ticks(); ++t) {
    trr.step(features.row(t), std::nullopt);
    EXPECT_LE(trr.stream_window_size(), mi);
    EXPECT_EQ(trr.stream_window_size(), std::min<std::size_t>(t + 1, mi));
  }
}

TEST(DynamicTrr, StepRejectsWrongRowWidth) {
  const auto train = collect(workloads::fft(), 250, 19);
  DynamicTrr trr(fast_config());
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));
  const std::vector<double> wrong(train.dataset.features().cols() + 3, 1.0);
  EXPECT_THROW(trr.step(wrong, std::nullopt), std::invalid_argument);
}

}  // namespace
}  // namespace highrpm::core
