// Ring projection cache staleness suite: DynamicTrr caches each ring slot's
// layer-0 input projection and reprojects a slot only when its row is
// rewritten or the model's weight generation moves. Every tick's dense
// estimate must therefore equal model().predict over the raw window, built
// here independently from the stream — through online fine-tune, held
// (NaN) rows, cheap<->dense switching and mid-window stream resets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/highrpm.hpp"
#include "highrpm/math/float_eq.hpp"
#include "highrpm/math/stats.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kMiss = 10;

/// What a stream run injects.
struct Scenario {
  const char* name;
  bool finetune = false;
  // Every n-th PMC row is NaN (0 = never); n > miss_interval leaves clean
  // windows between them for the online fine-tune to train on.
  std::size_t nan_every = 0;
  bool switching = false;     // cheap<->dense routing changes mid-stream
  std::size_t reset_at = 0;   // reset_stream before this tick (0 = never)
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

/// Independent oracle for the raw window: rows [held PMC..., P'_prev], the
/// newest miss_interval of them, oldest first.
class RawWindow {
 public:
  void clear() {
    rows_.clear();
    last_good_.clear();
    have_prev_ = false;
  }
  /// The row a stream builds from `pmcs`: non-finite rows are replaced by
  /// the last good row (zeros before the first one).
  std::vector<double> hold(std::span<const double> pmcs) {
    std::vector<double> row(pmcs.begin(), pmcs.end());
    if (!math::all_finite(row)) {
      row = last_good_.empty() ? std::vector<double>(pmcs.size(), 0.0)
                               : last_good_;
    } else {
      last_good_ = row;
    }
    return row;
  }
  /// Append a held row with its P'_prev: the previous committed estimate,
  /// or `cold_prev` on the first tick of a stream.
  void push(std::vector<double> held, double cold_prev) {
    held.push_back(have_prev_ ? prev_ : cold_prev);
    if (rows_.size() == kMiss) rows_.pop_front();
    rows_.push_back(std::move(held));
  }
  void commit(double estimate) {
    prev_ = estimate;
    have_prev_ = true;
  }
  math::Matrix matrix() const {
    math::Matrix m(rows_.size(), rows_.front().size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::copy(rows_[r].begin(), rows_[r].end(), m.row(r).begin());
    }
    return m;
  }

 private:
  std::deque<std::vector<double>> rows_;
  std::vector<double> last_good_;
  double prev_ = 0.0;
  bool have_prev_ = false;
};

measure::CollectedRun collect(const sim::Workload& w, std::size_t ticks,
                              std::uint64_t seed) {
  const measure::Collector collector;
  return collector.collect(sim::PlatformConfig::arm(), w, ticks, seed);
}

std::vector<double> tick_row(const math::Matrix& features, std::size_t t,
                             const Scenario& sc) {
  const auto src = features.row(t);
  std::vector<double> row(src.begin(), src.end());
  if (sc.nan_every > 0 && t % sc.nan_every == sc.nan_every - 1) row[1] = kNan;
  return row;
}

class ProjectionCache : public ::testing::TestWithParam<Scenario> {};

TEST_P(ProjectionCache, DynamicTrrDenseTicksMatchRawWindowPredict) {
  const Scenario& sc = GetParam();
  const auto train = collect(workloads::fft(), 160, 1);
  DynamicTrrConfig cfg;
  cfg.miss_interval = kMiss;
  cfg.rnn.epochs = 4;
  cfg.finetune_epochs = 1;
  cfg.online_finetune = sc.finetune;
  cfg.train_cheap_model = sc.switching;
  DynamicTrr trr(cfg);
  trr.train_single(train.dataset.features(), train.dataset.target("P_NODE"));

  const auto test = collect(workloads::stream(), 90, 2);
  const auto& features = test.dataset.features();
  const auto& labels = test.dataset.target("P_NODE");
  RawWindow window;
  std::size_t dense = 0, cheap = 0, after_bump = 0;
  const std::uint64_t trained_gen = trr.model().generation();
  std::uint64_t last_dense_gen = trained_gen;
  for (std::size_t t = 0; t < features.rows(); ++t) {
    if (sc.reset_at > 0 && t == sc.reset_at) {
      trr.reset_stream();
      window.clear();
    }
    // Cheap for two windows out of every three, switching mid-window.
    if (sc.switching) trr.set_use_cheap(t % 30 >= 5 && t % 30 < 25);
    const auto row = tick_row(features, t, sc);
    const std::optional<double> reading =
        t % kMiss == 0 ? std::optional<double>(labels[t]) : std::nullopt;
    const DynamicTrr::StepPrep prep = trr.step_prepare(row, reading);
    window.push(window.hold(row), prep.have_reading ? prep.reading_value
                                                    : trr.train_label_mean());
    double raw = 0.0;
    if (trr.use_cheap()) {
      raw = trr.predict_prepared_cheap(prep);
      ++cheap;
    } else {
      raw = trr.predict_prepared();
      const auto ref = trr.model().predict(window.matrix());
      ASSERT_TRUE(math::exact_eq(raw, ref.back()))
          << sc.name << " tick " << t << ": cached " << raw << " vs raw "
          << ref.back();
      ++dense;
      if (trr.model().generation() != last_dense_gen) ++after_bump;
      last_dense_gen = trr.model().generation();
    }
    window.commit(trr.step_commit(prep, raw).estimate);
  }
  EXPECT_GT(dense, 0u);
  if (sc.switching) {
    EXPECT_GT(cheap, 0u);
  }
  if (sc.finetune) {
    // Dense ticks ran on weights the cache had not seen yet.
    EXPECT_GT(after_bump, 0u);
  } else {
    EXPECT_EQ(trr.model().generation(), trained_gen);
  }
  if (sc.nan_every > 0) {
    EXPECT_GT(trr.substituted_rows(), 0u);
  }
}

TEST_P(ProjectionCache, HighRpmFacadeEstimatesMatchRawWindowPredict) {
  const Scenario& sc = GetParam();
  std::vector<measure::CollectedRun> training;
  training.push_back(collect(workloads::fft(), 160, 3));
  HighRpmConfig cfg;
  cfg.miss_interval = kMiss;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.finetune_epochs = 1;
  cfg.dynamic_trr.online_finetune = sc.finetune;
  cfg.srr.epochs = 8;
  if (sc.switching) {
    // Oscillating controller (see AllocRegression's adaptive cases): both
    // routes run, and routing flips at window boundaries.
    cfg.adaptive = true;
    cfg.adapt.budget_permille = 300;
    cfg.adapt.hold_windows = 1;
    cfg.adapt.up_threshold_w = 0.0;
    cfg.adapt.down_threshold_w = 0.0;
  }
  HighRpm model(cfg);
  model.initial_learning(training);
  model.reset_stream();

  const auto test = collect(workloads::stream(), 120, 4);
  const auto& features = test.dataset.features();
  const auto& labels = test.dataset.target("P_NODE");
  const DynamicTrr& trr = model.dynamic_trr();
  RawWindow window;
  std::size_t checked = 0, cheap = 0, after_bump = 0;
  std::uint64_t last_checked_gen = trr.model().generation();
  for (std::size_t t = 0; t < features.rows(); ++t) {
    if (sc.reset_at > 0 && t == sc.reset_at) {
      model.reset_stream();
      window.clear();
    }
    const auto row = tick_row(features, t, sc);
    // A reading on every window boundary and on the first tick after a
    // reset, so every stream starts from a measured P'_prev.
    const bool read = t % kMiss == 0 || t == sc.reset_at;
    const std::optional<double> reading =
        read ? std::optional<double>(labels[t]) : std::nullopt;
    const bool was_cheap = trr.use_cheap();
    const PowerEstimate est = model.on_tick(row, reading);
    window.push(window.hold(row), labels[t]);
    if (was_cheap) {
      ++cheap;
    } else if (!est.measured) {
      // Predicted dense tick: no fine-tune ran, so model() holds the
      // weights that produced the estimate.
      const double raw = trr.model().predict(window.matrix()).back();
      const double expected = std::clamp(raw, trr.p_bottom(), trr.p_upper());
      ASSERT_TRUE(math::exact_eq(est.node_w, expected))
          << sc.name << " tick " << t << ": facade " << est.node_w
          << " vs raw-window " << expected;
      ++checked;
      if (trr.model().generation() != last_checked_gen) ++after_bump;
      last_checked_gen = trr.model().generation();
    } else {
      EXPECT_TRUE(math::exact_eq(est.node_w, labels[t]));
    }
    window.commit(est.node_w);
  }
  EXPECT_GT(checked, 0u);
  if (sc.switching) {
    EXPECT_GT(cheap, 0u);
  }
  if (sc.finetune) {
    EXPECT_GT(after_bump, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ProjectionCache,
    ::testing::Values(Scenario{"frozen"},
                      Scenario{"finetune", true},
                      Scenario{"held_rows", true, 23},
                      Scenario{"switching", true, 0, true},
                      Scenario{"reset_mid_window", true, 0, false, 25},
                      Scenario{"everything", true, 23, true, 43}),
    [](const ::testing::TestParamInfo<Scenario>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace highrpm::core
