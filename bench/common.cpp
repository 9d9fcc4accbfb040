#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/srr.hpp"
#include "highrpm/core/static_trr.hpp"
#include "highrpm/data/window.hpp"
#include "highrpm/math/spline.hpp"
#include "highrpm/ml/arima.hpp"
#include "highrpm/ml/baselines.hpp"
#include "highrpm/runtime/parallel_for.hpp"
#include "highrpm/runtime/thread_pool.hpp"

namespace highrpm::bench {

Options Options::from_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.samples_per_suite = 90;
      opt.max_workloads_per_suite = 2;
      opt.rnn_epochs = 8;
      opt.srr_epochs = 25;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      opt.samples_per_suite = 1000;
      opt.max_workloads_per_suite = 0;  // every workload
      opt.rnn_epochs = 30;
      opt.srr_epochs = 80;
    }
  }
  return opt;
}

core::ProtocolConfig Options::protocol(
    const sim::PlatformConfig& platform) const {
  core::ProtocolConfig cfg;
  cfg.platform = platform;
  cfg.samples_per_suite = samples_per_suite;
  cfg.max_workloads_per_suite = max_workloads_per_suite;
  cfg.min_ticks_per_workload = min_ticks_per_workload;
  cfg.collector.ipmi.interval_s = static_cast<double>(miss_interval);
  cfg.seed = seed;
  return cfg;
}

math::MetricReport average(const std::vector<math::MetricReport>& reports) {
  math::MetricReport avg;
  if (reports.empty()) return avg;
  for (const auto& r : reports) {
    avg.mape += r.mape;
    avg.rmse += r.rmse;
    avg.mae += r.mae;
    avg.r2 += r.r2;
  }
  const double n = static_cast<double>(reports.size());
  avg.mape /= n;
  avg.rmse /= n;
  avg.mae /= n;
  avg.r2 /= n;
  return avg;
}

void accumulate_restored(const measure::CollectedRun& run,
                         const std::vector<double>& pred,
                         std::vector<double>& truth_out,
                         std::vector<double>& pred_out,
                         std::size_t score_start) {
  for (std::size_t t = score_start; t < run.num_ticks(); ++t) {
    if (run.measured[t]) continue;
    truth_out.push_back(run.truth[t].p_node_w);
    pred_out.push_back(pred[t]);
  }
}

namespace {

const std::vector<double>& target_of(const measure::CollectedRun& run,
                                     const std::string& target) {
  return run.dataset.target(target);
}

double component_truth(const measure::CollectedRun& run, std::size_t t,
                       const std::string& target) {
  if (target == "P_NODE") return run.truth[t].p_node_w;
  if (target == "P_CPU") return run.truth[t].p_cpu_w;
  return run.truth[t].p_mem_w;
}

/// Score a prediction on the appropriate tick subset for the target.
void accumulate_for_target(const measure::CollectedRun& run,
                           const std::vector<double>& pred,
                           const std::string& target,
                           std::vector<double>& truth_out,
                           std::vector<double>& pred_out,
                           std::size_t score_start) {
  const bool restored_only = target == "P_NODE";
  for (std::size_t t = score_start; t < run.num_ticks(); ++t) {
    if (restored_only && run.measured[t]) continue;
    truth_out.push_back(component_truth(run, t, target));
    pred_out.push_back(pred[t]);
  }
}

}  // namespace

math::MetricReport eval_pointwise(const std::string& model,
                                  const Splits& splits,
                                  const std::string& target,
                                  const Options& opt) {
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t) -> std::optional<math::MetricReport> {
        const auto flat = core::flatten_runs(split.train);
        auto m = ml::make_baseline(model, opt.seed);
        const auto& y = target == "P_NODE"  ? flat.p_node
                        : target == "P_CPU" ? flat.p_cpu
                                            : flat.p_mem;
        m->fit(flat.x, y);
        std::vector<double> truth, pred;
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const auto& run = split.test[i];
          const auto p = m->predict(run.dataset.features());
          accumulate_for_target(run, p, target, truth, pred,
                                split.test_score_start[i]);
        }
        return math::evaluate_metrics(truth, pred);
      });
  return average(folds);
}

math::MetricReport eval_rnn(const std::string& model, const Splits& splits,
                            const std::string& target, const Options& opt) {
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t) -> std::optional<math::MetricReport> {
        auto net = ml::make_rnn_baseline(model, opt.seed);
        ml::RnnConfig cfg = net.config();
        cfg.epochs = opt.rnn_epochs;
        net = ml::SequenceRegressor(cfg);
        std::vector<data::SequenceSample> samples;
        for (const auto& run : split.train) {
          if (run.num_ticks() < opt.miss_interval) continue;
          auto w = data::make_windows(run.dataset.features(),
                                      target_of(run, target),
                                      opt.miss_interval);
          // Stride by window to bound the training cost (overlapping
          // windows carry little extra information for the baseline
          // comparison).
          for (std::size_t i = 0; i < w.size();
               i += opt.miss_interval / 2 + 1) {
            samples.push_back(std::move(w[i]));
          }
        }
        net.fit(samples);
        std::vector<double> truth, pred;
        for (std::size_t ri = 0; ri < split.test.size(); ++ri) {
          const auto& run = split.test[ri];
          // Non-overlapping windows tile the run; per-step outputs score
          // it.
          std::vector<double> p(run.num_ticks(), 0.0);
          const auto& f = run.dataset.features();
          for (std::size_t start = 0; start < run.num_ticks();
               start += opt.miss_interval) {
            const std::size_t len =
                std::min(opt.miss_interval, run.num_ticks() - start);
            math::Matrix window(len, f.cols());
            for (std::size_t k = 0; k < len; ++k) {
              std::copy(f.row(start + k).begin(), f.row(start + k).end(),
                        window.row(k).begin());
            }
            const auto out = net.predict(window);
            for (std::size_t k = 0; k < len; ++k) p[start + k] = out[k];
          }
          accumulate_for_target(run, p, target, truth, pred,
                                split.test_score_start[ri]);
        }
        return math::evaluate_metrics(truth, pred);
      });
  return average(folds);
}

namespace {

/// Spline through a run's IPMI readings, evaluated at every tick.
std::vector<double> spline_restoration(const measure::CollectedRun& run) {
  std::vector<double> kx, ky;
  for (const auto& r : run.ipmi_readings) {
    kx.push_back(static_cast<double>(r.tick_index));
    ky.push_back(r.power_w);
  }
  std::vector<double> out(run.num_ticks(), ky.empty() ? 0.0 : ky.front());
  if (kx.size() >= 2) {
    const math::CubicSpline s(kx, ky);
    for (std::size_t t = 0; t < run.num_ticks(); ++t) {
      out[t] = s(static_cast<double>(t));
    }
  }
  return out;
}

}  // namespace

math::MetricReport eval_spline(const Splits& splits, const Options& opt) {
  (void)opt;
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t) -> std::optional<math::MetricReport> {
        std::vector<double> truth, pred;
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const auto& run = split.test[i];
          accumulate_restored(run, spline_restoration(run), truth, pred,
                              split.test_score_start[i]);
        }
        if (truth.empty()) return std::nullopt;
        return math::evaluate_metrics(truth, pred);
      });
  return average(folds);
}

math::MetricReport eval_arima(const Splits& splits, const Options& opt) {
  (void)opt;
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t) -> std::optional<math::MetricReport> {
        std::vector<double> truth, pred;
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const auto& run = split.test[i];
          if (run.ipmi_readings.size() < 5) continue;
          std::vector<double> readings;
          std::vector<std::size_t> ticks;
          for (const auto& r : run.ipmi_readings) {
            readings.push_back(r.power_w);
            ticks.push_back(r.tick_index);
          }
          ml::ArimaInterpolator arima;
          arima.fit(readings);
          const auto dense =
              arima.interpolate(readings, ticks, run.num_ticks());
          accumulate_restored(run, dense, truth, pred,
                              split.test_score_start[i]);
        }
        if (truth.empty()) return std::nullopt;
        return math::evaluate_metrics(truth, pred);
      });
  return average(folds);
}

math::MetricReport eval_static_trr(const Splits& splits, const Options& opt) {
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t) -> std::optional<math::MetricReport> {
        std::vector<double> truth, pred;
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const auto& run = split.test[i];
          if (run.ipmi_readings.size() < 4) continue;
          core::StaticTrrConfig cfg;
          cfg.miss_interval = opt.miss_interval;
          cfg.seed = opt.seed;
          core::StaticTrr trr(cfg);
          std::vector<std::size_t> idx;
          std::vector<double> power;
          for (const auto& r : run.ipmi_readings) {
            idx.push_back(r.tick_index);
            power.push_back(r.power_w);
          }
          const auto times = run.truth.times();
          trr.fit(run.dataset.features(), times, idx, power);
          const auto r = trr.restore(run.dataset.features(), times);
          accumulate_restored(run, r.merged, truth, pred,
                              split.test_score_start[i]);
        }
        if (truth.empty()) return std::nullopt;
        return math::evaluate_metrics(truth, pred);
      });
  return average(folds);
}

math::MetricReport eval_dynamic_trr(const Splits& splits, const Options& opt) {
  const auto folds = core::run_folds(
      splits,
      [&](const core::EvalSplit& split,
          std::size_t) -> std::optional<math::MetricReport> {
    core::DynamicTrrConfig cfg;
    cfg.miss_interval = opt.miss_interval;
    cfg.rnn.epochs = opt.rnn_epochs;
    cfg.rnn.seed = opt.seed;
    cfg.train_stride = std::max<std::size_t>(1, opt.dynamic_trr_stride);
    cfg.finetune_epochs = 4;  // adapt faster to unseen applications
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
      trr.reset_stream();
      std::vector<double> p(run.num_ticks());
      const auto& f = run.dataset.features();
      for (std::size_t t = 0; t < run.num_ticks(); ++t) {
        std::optional<double> reading;
        if (run.measured[t]) reading = run.dataset.target("P_NODE")[t];
        p[t] = trr.step(f.row(t), reading).estimate;
      }
      accumulate_restored(run, p, truth, pred, split.test_score_start[i]);
    }
    return math::evaluate_metrics(truth, pred);
      });
  return average(folds);
}

ComponentReports eval_srr(const Splits& splits, bool include_pnode,
                          const Options& opt) {
  core::StaticTrrConfig scfg;
  scfg.miss_interval = opt.miss_interval;
  scfg.seed = opt.seed;
  // Two reports per fold, so this maps over the pool directly instead of
  // going through run_folds (which carries a single report per fold).
  const auto fold_pairs = runtime::parallel_map(
      splits.size(), [&](std::size_t fi) -> ComponentReports {
        const auto& split = splits[fi];
        core::SrrConfig cfg;
        cfg.epochs = opt.srr_epochs;
        cfg.include_pnode = include_pnode;
        cfg.seed = opt.seed;
        core::Srr srr(cfg);
        // Latent-scale-augmented training set with TRR-restored node inputs
        // (identical data for the with/without-P_Node variants of Table 8).
        const auto set = core::build_srr_training_set(split.train, cfg, scfg);
        srr.fit(set.x, set.p_node, set.p_cpu, set.p_mem);

        std::vector<double> cpu_truth, cpu_pred, mem_truth, mem_pred;
        for (std::size_t ri = 0; ri < split.test.size(); ++ri) {
          const auto& run = split.test[ri];
          // Deployment-faithful node input: StaticTRR restoration of the
          // run.
          std::vector<double> p_node(run.num_ticks(), 0.0);
          if (include_pnode) p_node = core::restore_node_power(run, scfg);
          const auto est = srr.predict(run.dataset.features(), p_node);
          for (std::size_t t = split.test_score_start[ri];
               t < run.num_ticks(); ++t) {
            cpu_truth.push_back(run.truth[t].p_cpu_w);
            cpu_pred.push_back(est[t].cpu_w);
            mem_truth.push_back(run.truth[t].p_mem_w);
            mem_pred.push_back(est[t].mem_w);
          }
        }
        return ComponentReports{math::evaluate_metrics(cpu_truth, cpu_pred),
                                math::evaluate_metrics(mem_truth, mem_pred)};
      });
  std::vector<math::MetricReport> cpu_folds, mem_folds;
  for (const auto& pair : fold_pairs) {
    cpu_folds.push_back(pair.cpu);
    mem_folds.push_back(pair.mem);
  }
  return ComponentReports{average(cpu_folds), average(mem_folds)};
}

std::vector<TableRow> run_models_parallel(const std::vector<ModelTask>& tasks,
                                          std::vector<TaskTiming>* timings) {
  using clock = std::chrono::steady_clock;
  std::vector<TaskTiming> per_task(tasks.size());
  std::mutex print_mutex;
  std::size_t finished = 0;
  const auto harness_start = clock::now();
  auto rows = runtime::parallel_map(
      tasks.size(), [&](std::size_t i) -> TableRow {
        const auto start = clock::now();
        TableRow row{tasks[i].type, tasks[i].model, tasks[i].eval()};
        const double wall_s =
            std::chrono::duration<double>(clock::now() - start).count();
        per_task[i] = TaskTiming{tasks[i].model, wall_s};
        {
          const std::lock_guard<std::mutex> lock(print_mutex);
          ++finished;
          std::printf("  [%zu/%zu] %-12s %-12s done in %.1fs\n", finished,
                      tasks.size(), tasks[i].type.c_str(),
                      tasks[i].model.c_str(), wall_s);
          std::fflush(stdout);
        }
        return row;
      });
  if (timings != nullptr) {
    *timings = std::move(per_task);
    timings->push_back(TaskTiming{
        "total",
        std::chrono::duration<double>(clock::now() - harness_start).count()});
  }
  return rows;
}

void print_table(const std::string& title,
                 const std::vector<std::string>& cell_headers,
                 const std::vector<TableRow>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-10s %-12s", "Type", "Model");
  for (const auto& h : cell_headers) {
    std::printf(" | %-26s", h.c_str());
  }
  std::printf("\n%-10s %-12s", "", "");
  for (std::size_t i = 0; i < cell_headers.size(); ++i) {
    std::printf(" | %8s %8s %8s", "MAPE(%)", "RMSE", "MAE");
  }
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("%-10s %-12s", row.type.c_str(), row.model.c_str());
    for (const auto& c : row.cells) {
      // Undefined metrics (e.g. MAPE over an all-near-zero truth vector)
      // come back NaN; render them as n/a rather than a numeric score.
      if (std::isfinite(c.mape)) {
        std::printf(" | %8.2f %8.2f %8.2f", c.mape, c.rmse, c.mae);
      } else {
        std::printf(" | %8s %8.2f %8.2f", "n/a", c.rmse, c.mae);
      }
    }
    std::printf("\n");
  }
}

void write_csv(const std::string& name,
               const std::vector<std::string>& cell_headers,
               const std::vector<TableRow>& rows) {
  std::filesystem::create_directories("bench_out");
  const std::string path = "bench_out/" + name + ".csv";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  f << "type,model";
  for (const auto& h : cell_headers) {
    f << ',' << h << "_mape," << h << "_rmse," << h << "_mae," << h << "_r2";
  }
  f << '\n';
  // Non-finite metric values (undefined MAPE per the math::mape contract)
  // serialize as "n/a" — a CSV cell downstream tooling can detect, instead
  // of a platform-dependent "nan" spelling that parses as a score of NaN.
  const auto put = [&f](double v) {
    if (std::isfinite(v)) {
      f << ',' << v;
    } else {
      f << ",n/a";
    }
  };
  for (const auto& row : rows) {
    f << row.type << ',' << row.model;
    for (const auto& c : row.cells) {
      put(c.mape);
      put(c.rmse);
      put(c.mae);
      put(c.r2);
    }
    f << '\n';
  }
  std::printf("[csv] wrote %s\n", path.c_str());
}

void write_timing_csv(const std::string& name,
                      const std::vector<TaskTiming>& timings) {
  std::filesystem::create_directories("bench_out");
  const std::string path = "bench_out/" + name + "_timing.csv";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  f << "model,wall_s,threads\n";
  for (const auto& t : timings) {
    f << t.model << ',' << t.wall_s << ',' << runtime::thread_count() << '\n';
  }
  std::printf("[csv] wrote %s\n", path.c_str());
}

}  // namespace highrpm::bench
