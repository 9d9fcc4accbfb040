#include "highrpm/core/srr.hpp"

#include <algorithm>
#include <stdexcept>

#include "highrpm/core/static_trr.hpp"
#include "highrpm/math/rng.hpp"
#include "highrpm/obs/obs.hpp"

namespace highrpm::core {

namespace {
ml::MlpConfig to_mlp_config(const SrrConfig& cfg) {
  ml::MlpConfig mc;
  mc.hidden = cfg.hidden;
  mc.epochs = cfg.epochs;
  mc.learning_rate = cfg.learning_rate;
  mc.seed = cfg.seed;
  return mc;
}
}  // namespace

Srr::Srr(SrrConfig cfg) : cfg_(std::move(cfg)), net_(to_mlp_config(cfg_)) {}

math::Matrix Srr::assemble(const math::Matrix& pmcs,
                           std::span<const double> p_node) const {
  if (!cfg_.include_pnode) return pmcs;
  if (p_node.size() != pmcs.rows()) {
    throw std::invalid_argument("Srr: p_node length mismatch");
  }
  math::Matrix x(pmcs.rows(), pmcs.cols() + 1);
  for (std::size_t r = 0; r < pmcs.rows(); ++r) {
    auto dst = x.row(r);
    dst[0] = p_node[r];  // the bi-directional feature comes first
    const auto src = pmcs.row(r);
    std::copy(src.begin(), src.end(), dst.begin() + 1);
  }
  return x;
}

namespace {
math::Matrix pack_component_targets(std::span<const double> p_cpu,
                                    std::span<const double> p_mem) {
  math::Matrix y(p_cpu.size(), 2);
  for (std::size_t r = 0; r < p_cpu.size(); ++r) {
    y(r, 0) = p_cpu[r];
    y(r, 1) = p_mem[r];
  }
  return y;
}
}  // namespace

void Srr::fit(const math::Matrix& pmcs, std::span<const double> p_node,
              std::span<const double> p_cpu, std::span<const double> p_mem) {
  if (cfg_.outputs != 2) {
    throw std::logic_error("Srr::fit: [P_CPU, P_MEM] API requires outputs==2");
  }
  if (p_cpu.size() != pmcs.rows() || p_mem.size() != pmcs.rows()) {
    throw std::invalid_argument("Srr::fit: label length mismatch");
  }
  fit_multi(pmcs, p_node, pack_component_targets(p_cpu, p_mem));
}

void Srr::fine_tune(const math::Matrix& pmcs, std::span<const double> p_node,
                    std::span<const double> p_cpu,
                    std::span<const double> p_mem, std::size_t epochs) {
  if (cfg_.outputs != 2) {
    throw std::logic_error(
        "Srr::fine_tune: [P_CPU, P_MEM] API requires outputs==2");
  }
  if (p_cpu.size() != pmcs.rows() || p_mem.size() != pmcs.rows()) {
    throw std::invalid_argument("Srr::fine_tune: label length mismatch");
  }
  fine_tune_multi(pmcs, p_node, pack_component_targets(p_cpu, p_mem), epochs);
}

void Srr::fit_multi(const math::Matrix& pmcs, std::span<const double> p_node,
                    const math::Matrix& targets) {
  static obs::Histogram& fit_hist =
      obs::Registry::instance().histogram("core.srr.fit_ns");
  const obs::Span span(fit_hist);
  if (targets.rows() != pmcs.rows() || targets.cols() != cfg_.outputs) {
    throw std::invalid_argument("Srr::fit_multi: target shape mismatch");
  }
  const math::Matrix x = assemble(pmcs, p_node);
  net_.fit(x, targets, /*reset=*/true);
}

void Srr::fine_tune_multi(const math::Matrix& pmcs,
                          std::span<const double> p_node,
                          const math::Matrix& targets, std::size_t epochs) {
  if (!fitted()) throw std::logic_error("Srr::fine_tune: not fitted");
  if (targets.rows() != pmcs.rows() || targets.cols() != cfg_.outputs) {
    throw std::invalid_argument("Srr::fine_tune_multi: target shape mismatch");
  }
  const math::Matrix x = assemble(pmcs, p_node);
  net_.fit(x, targets, /*reset=*/false, epochs);
}

ComponentEstimate Srr::predict_one(std::span<const double> pmcs,
                                   double p_node) const {
  Scratch scratch;
  return predict_one(pmcs, p_node, scratch);
}

void Srr::apply_projection(double p_node, std::span<double> est) const {
  if (!cfg_.consistency_projection) return;
  if (!cfg_.include_pnode && !cfg_.project_without_pnode) return;
  // The K-way split must add up to the node budget: rescale jointly toward
  // p_node - P_Other, bounded so a bad node input cannot blow it up.
  const double budget = p_node - cfg_.p_other_w;
  double total = 0.0;
  for (const double v : est) total += v;
  if (budget > 1.0 && total > 1.0) {
    double scale = std::clamp(budget / total,
                              1.0 - cfg_.projection_limit,
                              1.0 + cfg_.projection_limit);
    scale = 1.0 + cfg_.projection_weight * (scale - 1.0);
    for (double& v : est) v *= scale;
  }
}

void Srr::predict_one_into(std::span<const double> pmcs, double p_node,
                           std::span<double> out, Scratch& scratch,
                           double* raw_total) const {
  // Counter only here: the scalar predict is sub-microsecond and sits
  // inside HighRpm::on_tick's span, so wrapping it in its own span would
  // spend a measurable fraction of the thing being measured on clock
  // reads. The batch predict() below carries the timing span.
  static obs::Counter& predictions =
      obs::Registry::instance().counter("core.srr.predictions");
  predictions.add();
  if (out.size() != cfg_.outputs) {
    throw std::invalid_argument("Srr::predict_one_into: output size mismatch");
  }
  auto& row = scratch.row;
  row.clear();
  row.reserve(pmcs.size() + 1);
  if (cfg_.include_pnode) row.push_back(p_node);
  row.insert(row.end(), pmcs.begin(), pmcs.end());
  net_.predict_one_into(row, scratch.out, scratch.net);
  // Watts are non-negative: clamp BEFORE the projection, so a slightly
  // negative near-idle output can neither leak into snapshots/CSVs nor pull
  // the output sum under the projection's total > 1 gate.
  double sum = 0.0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = std::max(0.0, scratch.out[k]);
    sum += out[k];
  }
  if (raw_total != nullptr) *raw_total = sum;
  apply_projection(p_node, out);
}

ComponentEstimate Srr::predict_one(std::span<const double> pmcs,
                                   double p_node, Scratch& scratch) const {
  if (cfg_.outputs != 2) {
    throw std::logic_error(
        "Srr::predict_one: ComponentEstimate API requires outputs==2");
  }
  double est[2];
  predict_one_into(pmcs, p_node, est, scratch);
  return ComponentEstimate{est[0], est[1]};
}

void Srr::predict_batch_multi_into(const math::Matrix& pmcs,
                                   std::span<const double> p_node,
                                   math::Matrix& out,
                                   BatchScratch& scratch) const {
  static obs::Counter& predictions =
      obs::Registry::instance().counter("core.srr.predictions");
  predictions.add(pmcs.rows());
  // p_node is required as a feature (include_pnode) and/or as the
  // projection budget (project_without_pnode keeps the projection active on
  // a PMC-only head) — the scalar path always receives it, so the batch
  // path must consume it identically or the two diverge bit-wise.
  const bool needs_pnode =
      cfg_.include_pnode ||
      (cfg_.consistency_projection && cfg_.project_without_pnode);
  if (needs_pnode && p_node.size() != pmcs.rows()) {
    throw std::invalid_argument("Srr: p_node length mismatch");
  }
  const std::size_t extra = cfg_.include_pnode ? 1 : 0;
  scratch.x.resize(pmcs.rows(), pmcs.cols() + extra);
  for (std::size_t r = 0; r < pmcs.rows(); ++r) {
    auto dst = scratch.x.row(r);
    if (cfg_.include_pnode) dst[0] = p_node[r];
    const auto src = pmcs.row(r);
    std::copy(src.begin(), src.end(), dst.subspan(extra).begin());
  }
  net_.predict_batch_into(scratch.x, out, scratch.net);
  for (std::size_t r = 0; r < pmcs.rows(); ++r) {
    const auto est = out.row(r);
    for (double& v : est) v = std::max(0.0, v);
    apply_projection(needs_pnode ? p_node[r] : 0.0, est);
  }
}

void Srr::predict_batch_into(const math::Matrix& pmcs,
                             std::span<const double> p_node,
                             std::span<ComponentEstimate> out,
                             BatchScratch& scratch) const {
  if (cfg_.outputs != 2) {
    throw std::logic_error(
        "Srr::predict_batch_into: ComponentEstimate API requires outputs==2");
  }
  if (out.size() != pmcs.rows()) {
    throw std::invalid_argument("Srr::predict_batch: output length mismatch");
  }
  predict_batch_multi_into(pmcs, p_node, scratch.out, scratch);
  for (std::size_t r = 0; r < pmcs.rows(); ++r) {
    out[r] = ComponentEstimate{scratch.out(r, 0), scratch.out(r, 1)};
  }
}

std::vector<ComponentEstimate> Srr::predict(
    const math::Matrix& pmcs, std::span<const double> p_node) const {
  static obs::Histogram& predict_hist =
      obs::Registry::instance().histogram("core.srr.predict_ns");
  const obs::Span span(predict_hist);
  // Route through the batched path so there is exactly one predict
  // implementation to keep bit-identical with the scalar one.
  std::vector<ComponentEstimate> out(pmcs.rows());
  BatchScratch scratch;
  predict_batch_into(pmcs, p_node, out, scratch);
  return out;
}

SrrTrainingSet build_srr_training_set(
    std::span<const measure::CollectedRun> runs, const SrrConfig& srr_cfg,
    const StaticTrrConfig& trr_cfg) {
  if (runs.empty()) {
    throw std::invalid_argument("build_srr_training_set: no runs");
  }
  const std::size_t copies = srr_cfg.augment_copies;
  std::size_t total = 0;
  for (const auto& run : runs) total += run.num_ticks() * (1 + copies);

  SrrTrainingSet set;
  set.x = math::Matrix(total, runs[0].dataset.num_features());
  set.p_node.resize(total);
  set.p_cpu.resize(total);
  set.p_mem.resize(total);

  math::Rng rng(srr_cfg.seed ^ 0xA46B5ULL);
  std::size_t w = 0;
  for (const auto& run : runs) {
    const auto& f = run.dataset.features();
    const auto restored = restore_node_power(run, trr_cfg);
    const auto& cpu = run.dataset.target("P_CPU");
    const auto& mem = run.dataset.target("P_MEM");
    for (std::size_t copy = 0; copy <= copies; ++copy) {
      // Copy 0 is the run itself; further copies are virtual applications
      // with per-copy component rescales (constant within the copy, like a
      // real application's latent energy weights).
      const double a =
          copy == 0 ? 1.0
                    : rng.uniform(srr_cfg.augment_cpu_lo, srr_cfg.augment_cpu_hi);
      const double b =
          copy == 0 ? 1.0
                    : rng.uniform(srr_cfg.augment_mem_lo, srr_cfg.augment_mem_hi);
      for (std::size_t r = 0; r < f.rows(); ++r) {
        std::copy(f.row(r).begin(), f.row(r).end(), set.x.row(w).begin());
        set.p_cpu[w] = a * cpu[r];
        set.p_mem[w] = b * mem[r];
        set.p_node[w] =
            restored[r] + (a - 1.0) * cpu[r] + (b - 1.0) * mem[r];
        ++w;
      }
    }
  }
  return set;
}

AttributionTrainingSet build_attribution_training_set(
    std::span<const measure::CollectedRun> runs, const SrrConfig& srr_cfg,
    const StaticTrrConfig& trr_cfg) {
  if (runs.empty()) {
    throw std::invalid_argument("build_attribution_training_set: no runs");
  }
  const std::size_t k_tenants = runs[0].num_tenants;
  if (k_tenants == 0) {
    throw std::invalid_argument(
        "build_attribution_training_set: runs carry no tenant record "
        "(collect with Collector::collect_tenants)");
  }
  const std::size_t copies = srr_cfg.augment_copies;
  std::size_t total = 0;
  for (const auto& run : runs) {
    if (run.num_tenants != k_tenants) {
      throw std::invalid_argument(
          "build_attribution_training_set: tenant count differs across runs");
    }
    total += run.num_ticks() * (1 + copies);
  }

  AttributionTrainingSet set;
  set.x = math::Matrix(total, runs[0].tenant_pmcs.cols());
  set.p_node.resize(total);
  set.targets = math::Matrix(total, k_tenants);

  // Distinct stream from the component builder so pairing a component SRR
  // with an attribution head never correlates their virtual applications.
  math::Rng rng(srr_cfg.seed ^ 0x7E4A17ULL);
  std::vector<double> rescale(k_tenants);
  std::size_t w = 0;
  for (const auto& run : runs) {
    const auto& f = run.tenant_pmcs;
    const auto restored = restore_node_power(run, trr_cfg);
    for (std::size_t copy = 0; copy <= copies; ++copy) {
      // Copy 0 is the run itself; further copies are virtual co-location
      // mixes with independent per-tenant power rescales (constant within
      // the copy, like each tenant application's latent energy weights).
      for (std::size_t k = 0; k < k_tenants; ++k) {
        rescale[k] = copy == 0 ? 1.0
                               : rng.uniform(srr_cfg.augment_cpu_lo,
                                             srr_cfg.augment_cpu_hi);
      }
      for (std::size_t r = 0; r < f.rows(); ++r) {
        std::copy(f.row(r).begin(), f.row(r).end(), set.x.row(w).begin());
        double shift = 0.0;
        for (std::size_t k = 0; k < k_tenants; ++k) {
          const double p_k = run.tenant_power(r, k);
          set.targets(w, k) = rescale[k] * p_k;
          shift += (rescale[k] - 1.0) * p_k;
        }
        set.p_node[w] = restored[r] + shift;
        ++w;
      }
    }
  }
  return set;
}

}  // namespace highrpm::core
