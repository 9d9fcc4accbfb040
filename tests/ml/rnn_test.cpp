#include "highrpm/ml/rnn.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <span>
#include <tuple>
#include <vector>

#include "highrpm/math/metrics.hpp"
#include "highrpm/math/rng.hpp"

namespace highrpm::ml {

/// The direct computation every predict path must reproduce: standardize
/// the window, then run the training forward pass — time-outer, every gate
/// pre-activation computed as `b + w·x + u·h` from the raw weights, no
/// projection GEMM and no cached rows.
struct SequenceRegressorTestPeer {
  static std::vector<double> direct_predict(const SequenceRegressor& m,
                                            const math::Matrix& steps) {
    SequenceRegressor::TrainWorkspace tw;
    m.forward(m.x_scaler_.transform(steps), tw);
    std::vector<double> out(tw.pred);
    for (double& v : out) v = m.y_scaler_.inverse_one(v);
    return out;
  }
};

namespace {

/// Windows of a noisy AR(1)-like series whose label at each step is a
/// deterministic function of the current feature plus the previous label —
/// the structure DynamicTRR exploits.
std::vector<data::SequenceSample> make_sequence_problem(std::size_t n_windows,
                                                        std::size_t window,
                                                        std::uint64_t seed) {
  math::Rng rng(seed);
  const std::size_t total = n_windows + window - 1;
  math::Matrix f(total, 2);
  std::vector<double> labels(total);
  double prev = 50.0;
  for (std::size_t t = 0; t < total; ++t) {
    f(t, 0) = rng.uniform(0, 1);
    f(t, 1) = prev;  // feed previous label as a feature
    const double label = 0.8 * prev + 20.0 * f(t, 0);
    labels[t] = label;
    prev = label;
  }
  return data::make_windows(f, labels, window);
}

TEST(SequenceRegressor, ConfigValidation) {
  RnnConfig bad;
  bad.units = 0;
  EXPECT_THROW(SequenceRegressor{bad}, std::invalid_argument);
}

TEST(SequenceRegressor, PredictBeforeFitThrows) {
  SequenceRegressor m;
  EXPECT_THROW(m.predict(math::Matrix(3, 2)), std::logic_error);
}

TEST(SequenceRegressor, EmptyFitThrows) {
  SequenceRegressor m;
  EXPECT_THROW(m.fit({}), std::invalid_argument);
}

TEST(SequenceRegressor, LstmLearnsAutoregressiveSeries) {
  const auto samples = make_sequence_problem(120, 8, 1);
  RnnConfig cfg;
  cfg.cell = CellType::kLstm;
  cfg.units = 4;
  cfg.layers = 1;
  cfg.epochs = 60;
  SequenceRegressor m(cfg);
  m.fit(samples);
  // Evaluate on fresh windows from the same process.
  const auto test = make_sequence_problem(40, 8, 2);
  std::vector<double> truth, pred;
  for (const auto& s : test) {
    const auto p = m.predict(s.steps);
    truth.insert(truth.end(), s.labels.begin(), s.labels.end());
    pred.insert(pred.end(), p.begin(), p.end());
  }
  EXPECT_LT(math::mape(truth, pred), 12.0);
}

TEST(SequenceRegressor, GruLearnsAutoregressiveSeries) {
  const auto samples = make_sequence_problem(120, 8, 3);
  RnnConfig cfg;
  cfg.cell = CellType::kGru;
  cfg.units = 4;
  cfg.layers = 1;
  cfg.epochs = 60;
  SequenceRegressor m(cfg);
  m.fit(samples);
  const auto test = make_sequence_problem(40, 8, 4);
  std::vector<double> truth, pred;
  for (const auto& s : test) {
    const auto p = m.predict(s.steps);
    truth.insert(truth.end(), s.labels.begin(), s.labels.end());
    pred.insert(pred.end(), p.begin(), p.end());
  }
  EXPECT_LT(math::mape(truth, pred), 12.0);
}

TEST(SequenceRegressor, StackedLayersWork) {
  const auto samples = make_sequence_problem(80, 6, 5);
  RnnConfig cfg;
  cfg.units = 2;
  cfg.layers = 2;  // the paper's DynamicTRR depth
  cfg.epochs = 50;
  SequenceRegressor m(cfg);
  m.fit(samples);
  const auto p = m.predict(samples[0].steps);
  EXPECT_EQ(p.size(), 6u);
  for (const double v : p) EXPECT_TRUE(std::isfinite(v));
}

TEST(SequenceRegressor, TrainingReducesError) {
  const auto samples = make_sequence_problem(100, 8, 6);
  RnnConfig short_cfg;
  short_cfg.epochs = 1;
  RnnConfig long_cfg;
  long_cfg.epochs = 60;
  SequenceRegressor m_short(short_cfg), m_long(long_cfg);
  m_short.fit(samples);
  m_long.fit(samples);
  double err_short = 0.0, err_long = 0.0;
  for (const auto& s : samples) {
    const auto ps = m_short.predict(s.steps);
    const auto pl = m_long.predict(s.steps);
    for (std::size_t t = 0; t < s.labels.size(); ++t) {
      err_short += std::fabs(ps[t] - s.labels[t]);
      err_long += std::fabs(pl[t] - s.labels[t]);
    }
  }
  EXPECT_LT(err_long, err_short);
}

TEST(SequenceRegressor, FineTuneAdaptsToShift) {
  auto samples = make_sequence_problem(100, 8, 7);
  RnnConfig cfg;
  cfg.epochs = 40;
  SequenceRegressor m(cfg);
  m.fit(samples);
  // Shift every label by +30 and fine-tune on a handful of windows.
  for (auto& s : samples) {
    for (auto& l : s.labels) l += 30.0;
  }
  double before = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = m.predict(samples[i].steps);
    for (std::size_t t = 0; t < p.size(); ++t) {
      before += std::fabs(p[t] - samples[i].labels[t]);
    }
  }
  m.fit(std::span<const data::SequenceSample>(samples.data(), 30),
        /*reset=*/false, /*epochs_override=*/20);
  double after = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = m.predict(samples[i].steps);
    for (std::size_t t = 0; t < p.size(); ++t) {
      after += std::fabs(p[t] - samples[i].labels[t]);
    }
  }
  EXPECT_LT(after, before);
}

TEST(SequenceRegressor, DeterministicForFixedSeed) {
  const auto samples = make_sequence_problem(50, 6, 8);
  RnnConfig cfg;
  cfg.seed = 9;
  cfg.epochs = 10;
  SequenceRegressor a(cfg), b(cfg);
  a.fit(samples);
  b.fit(samples);
  const auto pa = a.predict(samples[0].steps);
  const auto pb = b.predict(samples[0].steps);
  for (std::size_t t = 0; t < pa.size(); ++t) {
    EXPECT_DOUBLE_EQ(pa[t], pb[t]);
  }
}

TEST(SequenceRegressor, RaggedSamplesThrow) {
  auto samples = make_sequence_problem(10, 6, 10);
  samples[3].labels.pop_back();
  SequenceRegressor m;
  EXPECT_THROW(m.fit(samples), std::invalid_argument);
}

TEST(SequenceRegressor, PredictWidthMismatchThrows) {
  const auto samples = make_sequence_problem(20, 6, 11);
  RnnConfig cfg;
  cfg.epochs = 2;
  SequenceRegressor m(cfg);
  m.fit(samples);
  EXPECT_THROW(m.predict(math::Matrix(6, 5)), std::invalid_argument);
}

TEST(SequenceRegressor, ParameterCountPositiveAndCellDependent) {
  const auto samples = make_sequence_problem(20, 6, 12);
  RnnConfig lstm_cfg;
  lstm_cfg.cell = CellType::kLstm;
  lstm_cfg.epochs = 1;
  RnnConfig gru_cfg = lstm_cfg;
  gru_cfg.cell = CellType::kGru;
  SequenceRegressor lstm(lstm_cfg), gru(gru_cfg);
  lstm.fit(samples);
  gru.fit(samples);
  EXPECT_GT(lstm.parameter_count(), gru.parameter_count());  // 4 vs 3 gates
  EXPECT_EQ(lstm.name(), "LSTM");
  EXPECT_EQ(gru.name(), "GRU");
}

// Property: both cells at several widths produce finite, bounded predictions
// on data within the training distribution.
class RnnStability
    : public ::testing::TestWithParam<std::tuple<CellType, std::size_t>> {};

TEST_P(RnnStability, PredictionsAreFiniteAndBounded) {
  const auto& [cell, units] = GetParam();
  const auto samples = make_sequence_problem(60, 8, 13);
  RnnConfig cfg;
  cfg.cell = cell;
  cfg.units = units;
  cfg.epochs = 15;
  SequenceRegressor m(cfg);
  m.fit(samples);
  for (std::size_t i = 0; i < samples.size(); i += 7) {
    const auto p = m.predict(samples[i].steps);
    for (const double v : p) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GT(v, -500.0);
      ASSERT_LT(v, 1000.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellsAndWidths, RnnStability,
    ::testing::Combine(::testing::Values(CellType::kLstm, CellType::kGru),
                       ::testing::Values(1u, 2u, 4u)));

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class RnnProjectionIdentity
    : public ::testing::TestWithParam<std::tuple<CellType, std::size_t>> {};

TEST_P(RnnProjectionIdentity, EveryPredictPathMatchesDirectComputation) {
  // Every predict entry point — predict_into and predict_projected_into
  // fed rows projected one at a time (the ring cache's path) — must equal
  // the direct computation bit for bit, for every window fill T = 1..10
  // and every lane count.
  const auto& [cell, layers] = GetParam();
  const auto samples = make_sequence_problem(40, 6, 23);
  RnnConfig cfg;
  cfg.cell = cell;
  cfg.units = 2;
  cfg.layers = layers;
  cfg.epochs = 4;
  SequenceRegressor m(cfg);
  m.fit(samples);
  const std::size_t f = m.input_dim();
  const std::size_t g = m.projection_dim();

  math::Rng rng(29);
  SequenceRegressor::Workspace ws;
  SequenceRegressor::Workspace batch_ws;
  std::vector<double> single;
  std::vector<double> x(f);
  math::Matrix out;
  for (const std::size_t lanes : {1u, 3u, 64u}) {
    for (std::size_t T = 1; T <= 10; ++T) {
      math::Matrix packed(lanes * T, f);
      for (double& v : packed.flat()) v = rng.uniform(-1.0, 60.0);
      // Project rows in reverse order, as a ring refreshes its slots in
      // whatever order they went stale: a row's projection depends on
      // that row alone.
      math::Matrix zx0(lanes * T, g);
      for (std::size_t r = lanes * T; r-- > 0;) {
        m.project_input_row_into(packed.row(r), zx0.row(r), x);
      }
      m.predict_projected_into(zx0, lanes, out, batch_ws);
      ASSERT_EQ(out.rows(), lanes);
      ASSERT_EQ(out.cols(), T);
      for (std::size_t i = 0; i < lanes; ++i) {
        math::Matrix window(T, f);
        for (std::size_t t = 0; t < T; ++t) {
          const auto src = packed.row(i * T + t);
          std::copy(src.begin(), src.end(), window.row(t).begin());
        }
        const auto direct = SequenceRegressorTestPeer::direct_predict(m, window);
        m.predict_into(window, single, ws);
        ASSERT_EQ(single.size(), T);
        for (std::size_t t = 0; t < T; ++t) {
          ASSERT_EQ(bits(single[t]), bits(direct[t]))
              << "predict_into lanes=" << lanes << " T=" << T << " t=" << t;
          ASSERT_EQ(bits(out(i, t)), bits(direct[t]))
              << "projected lanes=" << lanes << " T=" << T << " lane " << i
              << " t=" << t;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellsAndDepths, RnnProjectionIdentity,
    ::testing::Combine(::testing::Values(CellType::kLstm, CellType::kGru),
                       ::testing::Values(1u, 2u, 3u)));

TEST(SequenceRegressor, EveryFitBumpsTheGeneration) {
  const auto samples = make_sequence_problem(20, 6, 31);
  RnnConfig cfg;
  cfg.epochs = 2;
  SequenceRegressor m(cfg);
  EXPECT_EQ(m.generation(), 0u);
  m.fit(samples);
  const std::uint64_t trained = m.generation();
  EXPECT_GT(trained, 0u);
  SequenceRegressor copy = m;
  EXPECT_EQ(copy.generation(), trained);  // stamps travel with the weights
  m.fit(std::span<const data::SequenceSample>(samples.data(), 1),
        /*reset=*/false, 1);
  EXPECT_GT(m.generation(), trained);
  const std::uint64_t tuned = m.generation();
  m.fit(samples);
  EXPECT_GT(m.generation(), tuned);
}

TEST(SequenceRegressor, PredictProjectedRejectsBadShapes) {
  const auto samples = make_sequence_problem(20, 6, 37);
  SequenceRegressor m;
  SequenceRegressor::Workspace ws;
  math::Matrix out;
  EXPECT_THROW(m.predict_projected_into(math::Matrix(4, 8), 1, out, ws),
               std::logic_error);
  m.fit(samples);
  const std::size_t g = m.projection_dim();
  EXPECT_THROW(m.predict_projected_into(math::Matrix(4, g + 1), 1, out, ws),
               std::invalid_argument);
  EXPECT_THROW(m.predict_projected_into(math::Matrix(5, g), 2, out, ws),
               std::invalid_argument);
  EXPECT_THROW(m.predict_projected_into(math::Matrix(4, g), 0, out, ws),
               std::invalid_argument);
}

/// A model's weights, bit for bit, as seen through its predictions on a
/// fixed probe window.
std::vector<std::uint64_t> fingerprint(const SequenceRegressor& m,
                                       const math::Matrix& probe) {
  std::vector<std::uint64_t> out;
  for (const double v : m.predict(probe)) out.push_back(bits(v));
  return out;
}

TEST(SequenceRegressor, FitsDoNotDependOnTheTrainingWorkspace) {
  // fit() writes every training-workspace buffer before reading it, so a
  // model whose workspace is warm from earlier fits of other window
  // lengths fits exactly like a copy of it, whose workspace starts empty.
  const auto w10 = make_sequence_problem(12, 10, 41);
  const auto w6 = make_sequence_problem(9, 6, 43);
  const std::span<const data::SequenceSample> s10(w10);
  struct FitStep {
    std::span<const data::SequenceSample> samples;
    bool reset;
    std::size_t epochs;  // 0 = the configured count
  };
  const FitStep steps[] = {
      {s10.subspan(0, 1), false, 2},  // an online fine-tune, T = 10
      {w6, false, 2},                 // T = 6, batches of 4, 4 and 1
      {s10.subspan(5, 1), false, 2},  // back to T = 10
      {w6, true, 0},                  // a reset=true refit
      {s10.subspan(7, 3), false, 1},  // one batch of 3, T = 10
  };
  const math::Matrix& probe = w10[3].steps;
  for (const CellType cell : {CellType::kLstm, CellType::kGru}) {
    SCOPED_TRACE(cell == CellType::kLstm ? "LSTM" : "GRU");
    RnnConfig cfg;
    cfg.cell = cell;
    cfg.epochs = 3;
    cfg.batch_size = 4;
    SequenceRegressor warm(cfg);
    warm.fit(w10);  // 12 windows: batches of 4 at T = 10
    warm.fit(w6, /*reset=*/false, 1);
    SequenceRegressor copy = warm;
    ASSERT_EQ(fingerprint(copy, probe), fingerprint(warm, probe));
    for (std::size_t i = 0; i < std::size(steps); ++i) {
      warm.fit(steps[i].samples, steps[i].reset, steps[i].epochs);
      copy.fit(steps[i].samples, steps[i].reset, steps[i].epochs);
      ASSERT_EQ(fingerprint(copy, probe), fingerprint(warm, probe))
          << "fit step " << i;
    }
    // A copy of the now-warm model starts cold too, and fits alike.
    SequenceRegressor again = warm;
    for (std::size_t i = 0; i < std::size(steps); ++i) {
      warm.fit(steps[i].samples, steps[i].reset, steps[i].epochs);
      again.fit(steps[i].samples, steps[i].reset, steps[i].epochs);
      ASSERT_EQ(fingerprint(again, probe), fingerprint(warm, probe))
          << "second pass, fit step " << i;
    }
  }
}

TEST(SequenceRegressor, RaggedFineTuneSamplesThrowBeforeTraining) {
  // A fine-tune checks every sample before it trains on any: a short label
  // vector is never read past its end, and a bad sample late in the list
  // does not leave the model tuned on the batches before it.
  const auto samples = make_sequence_problem(20, 6, 47);
  RnnConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 4;
  SequenceRegressor m(cfg);
  m.fit(samples);
  const auto before = fingerprint(m, samples[0].steps);
  auto short_labels = samples;
  short_labels[17].labels.pop_back();
  EXPECT_THROW(m.fit(short_labels, /*reset=*/false, 1), std::invalid_argument);
  auto wide = samples;
  wide[17].steps = math::Matrix(6, 3);
  EXPECT_THROW(m.fit(wide, /*reset=*/false, 1), std::invalid_argument);
  EXPECT_EQ(fingerprint(m, samples[0].steps), before);
}

}  // namespace
}  // namespace highrpm::ml
