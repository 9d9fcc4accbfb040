// Fault robustness: node-power restoration accuracy vs sensor fault rate.
//
// Each sweep level corrupts the *test* runs of every fold with the same
// fault cocktail at rate f (training data stays clean — the paper's
// initial-learning stage runs on the instrumented rig, not on deployment
// sensors): IM dropout at f, stuck-at and spike readings at f/2 each,
// all-NaN PMC rows at f/2, plus 2 ticks of readout jitter whenever f > 0.
// StaticTRR and DynamicTRR then restore node power from the degraded
// streams and are scored against the clean ground truth. Level 0 is the
// clean baseline; the degradation curve should rise smoothly rather than
// fall off a cliff (graceful degradation, not correctness-or-crash).
//
// Unlike eval_dynamic_trr (which feeds dense labels at measured ticks),
// the streaming evaluator here feeds the *actual* surviving IPMI reading
// values — stuck/spiked values included — because sensor faults only exist
// in the readings themselves.
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/static_trr.hpp"
#include "highrpm/measure/faults.hpp"

using namespace highrpm;

namespace {

measure::FaultProfile profile_for(double f, std::uint64_t seed) {
  measure::FaultProfile p;
  p.im_dropout = f;
  p.im_stuck = f / 2.0;
  p.im_spike = f / 2.0;
  p.pmc_nan = f / 2.0;
  p.im_jitter_ticks = f > 0.0 ? 2 : 0;
  p.seed = seed;
  return p;
}

/// Corrupt every test run of every fold; train runs stay clean. Each run
/// gets its own injector seed so fault patterns are independent across runs
/// but bit-identical across thread counts.
bench::Splits corrupt_test_runs(const bench::Splits& splits, double f,
                                std::uint64_t base_seed) {
  bench::Splits out = splits;
  if (f <= 0.0) return out;
  for (std::size_t fi = 0; fi < out.size(); ++fi) {
    for (std::size_t ri = 0; ri < out[fi].test.size(); ++ri) {
      const auto profile =
          profile_for(f, base_seed + 1000 * fi + ri);
      out[fi].test[ri] = measure::inject_faults(out[fi].test[ri], profile);
    }
  }
  return out;
}

/// Node-power envelope [lo - m, hi + m] of a fold's clean training labels,
/// m = max(1, hi - lo) — the band DynamicTRR derives internally, computed
/// here so StaticTRR can be configured with explicit plausibility bounds
/// (its derived bounds come from the possibly-faulty readings themselves).
std::pair<double, double> train_label_band(const core::EvalSplit& split) {
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const auto& run : split.train) {
    for (const double y : run.dataset.target("P_NODE")) {
      lo = first ? y : std::min(lo, y);
      hi = first ? y : std::max(hi, y);
      first = false;
    }
  }
  const double margin = std::max(1.0, hi - lo);
  return {lo - margin, hi + margin};
}

/// eval_static_trr with the fold's training-label envelope as explicit
/// p_bottom/p_upper, so spiked readings are vetoed instead of splined.
math::MetricReport eval_static_trr_bounded(const bench::Splits& splits,
                                           const bench::Options& opt) {
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t) -> std::optional<math::MetricReport> {
        const auto [p_bottom, p_upper] = train_label_band(split);
        std::vector<double> truth, pred;
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const auto& run = split.test[i];
          core::StaticTrrConfig cfg;
          cfg.miss_interval = opt.miss_interval;
          cfg.seed = opt.seed;
          cfg.p_bottom = std::max(0.0, p_bottom);
          cfg.p_upper = p_upper;
          std::vector<std::size_t> idx;
          std::vector<double> power;
          for (const auto& r : run.ipmi_readings) {
            idx.push_back(r.tick_index);
            power.push_back(r.power_w);
          }
          const auto times = run.truth.times();
          const auto cleaned = core::clean_labeled_readings(
              idx, power, run.num_ticks());
          if (cleaned.idx.size() < 4) continue;
          core::StaticTrr trr(cfg);
          try {
            trr.fit(run.dataset.features(), times, idx, power);
          } catch (const std::invalid_argument&) {
            continue;  // faults ate too many readings to spline this run
          }
          const auto r = trr.restore(run.dataset.features(), times);
          bench::accumulate_restored(run, r.merged, truth, pred,
                                     split.test_score_start[i]);
        }
        if (truth.empty()) return std::nullopt;
        return math::evaluate_metrics(truth, pred);
      });
  return bench::average(folds);
}

/// DynamicTRR streamed over the (possibly faulted) test runs, fed the
/// surviving IPMI reading values at the ticks they arrived on. Returns the
/// fold-averaged report; *nan_estimates counts non-finite step() outputs
/// across every fold (must stay 0 for graceful degradation).
math::MetricReport eval_dynamic_trr_stream(const bench::Splits& splits,
                                           const bench::Options& opt,
                                           std::size_t* nan_estimates) {
  std::vector<std::size_t> fold_nans(splits.size(), 0);
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t fold) -> std::optional<math::MetricReport> {
        core::DynamicTrrConfig cfg;
        cfg.miss_interval = opt.miss_interval;
        cfg.rnn.epochs = opt.rnn_epochs;
        cfg.rnn.seed = opt.seed;
        cfg.train_stride = std::max<std::size_t>(1, opt.dynamic_trr_stride);
        cfg.finetune_epochs = 4;
        core::DynamicTrr trr(cfg);
        std::vector<math::Matrix> pmcs;
        std::vector<std::vector<double>> labels;
        for (const auto& run : split.train) {
          if (run.num_ticks() < opt.miss_interval) continue;
          pmcs.push_back(run.dataset.features());
          labels.push_back(run.dataset.target("P_NODE"));
        }
        trr.train(pmcs, labels);

        std::vector<double> truth, pred;
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const auto& run = split.test[i];
          // Reading value per tick, as the faulty sensor delivered it.
          std::vector<std::optional<double>> reading_at(run.num_ticks());
          for (const auto& r : run.ipmi_readings) {
            reading_at[r.tick_index] = r.power_w;
          }
          trr.reset_stream();
          std::vector<double> p(run.num_ticks());
          const auto& f = run.dataset.features();
          for (std::size_t t = 0; t < run.num_ticks(); ++t) {
            p[t] = trr.step(f.row(t), reading_at[t]).estimate;
            if (!std::isfinite(p[t])) ++fold_nans[fold];
          }
          bench::accumulate_restored(run, p, truth, pred,
                                     split.test_score_start[i]);
        }
        if (truth.empty()) return std::nullopt;
        return math::evaluate_metrics(truth, pred);
      });
  if (nan_estimates) {
    for (const std::size_t n : fold_nans) *nan_estimates += n;
  }
  return bench::average(folds);
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::Options::from_args(argc, argv);
  // Slim corpus: the sweep retrains DynamicTRR once per level per fold.
  opt.max_workloads_per_suite = 2;
  opt.rnn_epochs = std::min<std::size_t>(opt.rnn_epochs, 10);
  opt.dynamic_trr_stride = 5;
  std::printf("Fault robustness: restoration MAPE vs sensor fault rate\n\n");

  // One shared clean corpus; every level corrupts its own copy of the test
  // runs from it, so levels differ only in the injected faults.
  const core::ProtocolConfig pcfg = opt.protocol(sim::PlatformConfig::arm());
  const auto data = core::collect_all_suites(pcfg);
  const auto clean_splits = core::make_unseen_splits(data);

  const std::vector<double> levels = {0.0, 0.1, 0.2, 0.3, 0.4};
  std::vector<std::size_t> nan_counts(levels.size(), 0);
  std::vector<bench::ModelTask> tasks;
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const double f = levels[li];
    tasks.push_back(bench::ModelTask{
        "fault_rate", std::to_string(f).substr(0, 4),
        [f, li, &opt, &clean_splits, &nan_counts] {
          const auto faulted =
              corrupt_test_runs(clean_splits, f, opt.seed + 7700 * (li + 1));
          return std::vector<math::MetricReport>{
              eval_static_trr_bounded(faulted, opt),
              eval_dynamic_trr_stream(faulted, opt, &nan_counts[li])};
        }});
  }
  std::vector<bench::TaskTiming> timings;
  const auto rows = bench::run_models_parallel(tasks, &timings);

  std::printf("\n%-12s %16s %16s %14s\n", "fault_rate", "StaticTRR_MAPE%",
              "DynamicTRR_MAPE%", "nan_estimates");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-12s %16.2f %16.2f %14zu\n", rows[i].model.c_str(),
                rows[i].cells[0].mape, rows[i].cells[1].mape, nan_counts[i]);
  }
  bench::write_csv("fault_robustness", {"statictrr", "dynamictrr"}, rows);
  bench::write_timing_csv("fault_robustness", timings);

  // Graceful-degradation checks: no NaN ever escapes DynamicTRR, and the
  // curve degrades smoothly — each level no worse than the previous one
  // beyond a small noise allowance, rather than exploding at the first
  // non-zero rate.
  std::size_t total_nans = 0;
  for (const std::size_t n : nan_counts) total_nans += n;
  bool monotone = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      if (rows[i].cells[c].mape + 1.0 < rows[i - 1].cells[c].mape) {
        monotone = false;
      }
    }
  }
  const double clean_dyn = rows.front().cells[1].mape;
  const double worst_dyn = rows.back().cells[1].mape;
  std::printf(
      "\nDegradation check: NaN estimates = %zu (%s), curve %s, "
      "DynamicTRR %.2f%% clean -> %.2f%% @ 40%% faults (%s)\n",
      total_nans, total_nans == 0 ? "OK" : "FAIL",
      monotone ? "monotone (OK)" : "non-monotone (WEAK)", clean_dyn,
      worst_dyn, worst_dyn < 4.0 * clean_dyn + 10.0 ? "OK" : "WEAK");
  return total_nans == 0 ? 0 : 1;
}
