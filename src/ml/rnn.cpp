#include "highrpm/ml/rnn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "highrpm/math/float_eq.hpp"

namespace highrpm::ml {

namespace {
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

double sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

void adam_update(std::span<double> param, std::span<const double> grad,
                 std::span<double> m, std::span<double> v, double lr,
                 double bc1, double bc2) {
  for (std::size_t i = 0; i < param.size(); ++i) {
    m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
    v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
    param[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + kEps);
  }
}

void clip(std::span<double> g, double limit) {
  for (double& v : g) v = std::clamp(v, -limit, limit);
}
}  // namespace

SequenceRegressor::SequenceRegressor(RnnConfig cfg) : cfg_(cfg) {
  if (cfg_.units == 0 || cfg_.layers == 0) {
    throw std::invalid_argument("SequenceRegressor: units/layers must be >= 1");
  }
}

void SequenceRegressor::initialize(std::size_t in_dim, math::Rng& rng) {
  in_dim_ = in_dim;
  cells_.clear();
  const std::size_t g = gate_count();
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    const std::size_t xdim = l == 0 ? in_dim : cfg_.units;
    CellParams p;
    const double limit =
        std::sqrt(6.0 / static_cast<double>(xdim + cfg_.units));
    p.w = math::Matrix(g, xdim);
    for (double& v : p.w.flat()) v = rng.uniform(-limit, limit);
    p.u = math::Matrix(g, cfg_.units);
    for (double& v : p.u.flat()) v = rng.uniform(-limit, limit);
    p.b.assign(g, 0.0);
    if (cfg_.cell == CellType::kLstm) {
      // Forget-gate bias of 1 helps gradient flow early in training.
      for (std::size_t j = cfg_.units; j < 2 * cfg_.units; ++j) p.b[j] = 1.0;
    }
    p.mw = math::Matrix(g, xdim);
    p.vw = math::Matrix(g, xdim);
    p.mu = math::Matrix(g, cfg_.units);
    p.vu = math::Matrix(g, cfg_.units);
    p.mb.assign(g, 0.0);
    p.vb.assign(g, 0.0);
    cells_.push_back(std::move(p));
  }
  head_.w.assign(cfg_.units, 0.0);
  const double hl = std::sqrt(6.0 / static_cast<double>(cfg_.units + 1));
  for (double& v : head_.w) v = rng.uniform(-hl, hl);
  head_.b = 0.0;
  head_.mw.assign(cfg_.units, 0.0);
  head_.vw.assign(cfg_.units, 0.0);
  head_.mb = head_.vb = 0.0;
  adam_t_ = 0;
}

void SequenceRegressor::cell_step_into(const CellParams& p,
                                       std::span<const double> x,
                                       std::span<double> h_inout,
                                       std::span<double> c_inout,
                                       Workspace::StepScratch& scratch) const {
  const std::size_t H = cfg_.units;
  const std::size_t g = gate_count();
  auto& z = scratch.z;
  auto& gates = scratch.gates;
  if (cfg_.cell == CellType::kLstm) {
    // All pre-activations read h_{t-1}; h is not written until below.
    for (std::size_t j = 0; j < g; ++j) {
      z[j] =
          p.b[j] + math::dot(p.w.row(j), x) + math::dot(p.u.row(j), h_inout);
    }
    for (std::size_t j = 0; j < H; ++j) gates[j] = sigmoid(z[j]);            // i
    for (std::size_t j = H; j < 2 * H; ++j) gates[j] = sigmoid(z[j]);        // f
    for (std::size_t j = 2 * H; j < 3 * H; ++j) gates[j] = std::tanh(z[j]);  // g
    for (std::size_t j = 3 * H; j < 4 * H; ++j) gates[j] = sigmoid(z[j]);    // o
    for (std::size_t j = 0; j < H; ++j) {
      c_inout[j] = gates[H + j] * c_inout[j] + gates[j] * gates[2 * H + j];
      h_inout[j] = gates[3 * H + j] * std::tanh(c_inout[j]);
    }
    return;
  }
  // GRU: z (update), r (reset), n (candidate).
  for (std::size_t j = 0; j < 2 * H; ++j) {
    z[j] = p.b[j] + math::dot(p.w.row(j), x) + math::dot(p.u.row(j), h_inout);
  }
  for (std::size_t j = 0; j < H; ++j) gates[j] = sigmoid(z[j]);      // z
  for (std::size_t j = H; j < 2 * H; ++j) gates[j] = sigmoid(z[j]);  // r
  auto& rh = scratch.rh;
  for (std::size_t j = 0; j < H; ++j) rh[j] = gates[H + j] * h_inout[j];
  for (std::size_t j = 2 * H; j < 3 * H; ++j) {
    gates[j] = std::tanh(p.b[j] + math::dot(p.w.row(j), x) +
                         math::dot(p.u.row(j), rh));
  }
  // h_prev[j] is read in the same expression that overwrites h[j].
  for (std::size_t j = 0; j < H; ++j) {
    h_inout[j] = (1.0 - gates[j]) * gates[2 * H + j] + gates[j] * h_inout[j];
  }
}

void SequenceRegressor::cell_step_preproj_into(
    const CellParams& p, std::span<const double> zx, std::span<const double> zu,
    std::span<double> h_inout, std::span<double> c_inout,
    Workspace::StepScratch& scratch) const {
  const std::size_t H = cfg_.units;
  const std::size_t g = gate_count();
  auto& z = scratch.z;
  auto& gates = scratch.gates;
  if (cfg_.cell == CellType::kLstm) {
    // zx already holds `b + w·x`; adding the recurrent term second keeps
    // cell_step_into's `(b + w·x) + u·h` association. zu(i) = h·u.row(i)
    // is the commuted dot — bit-equal to u.row(i)·h.
    for (std::size_t j = 0; j < g; ++j) z[j] = zx[j] + zu[j];
    for (std::size_t j = 0; j < H; ++j) gates[j] = sigmoid(z[j]);            // i
    for (std::size_t j = H; j < 2 * H; ++j) gates[j] = sigmoid(z[j]);        // f
    for (std::size_t j = 2 * H; j < 3 * H; ++j) gates[j] = std::tanh(z[j]);  // g
    for (std::size_t j = 3 * H; j < 4 * H; ++j) gates[j] = sigmoid(z[j]);    // o
    for (std::size_t j = 0; j < H; ++j) {
      c_inout[j] = gates[H + j] * c_inout[j] + gates[j] * gates[2 * H + j];
      h_inout[j] = gates[3 * H + j] * std::tanh(c_inout[j]);
    }
    return;
  }
  // GRU: z (update), r (reset), n (candidate). The candidate's recurrent
  // term reads the reset-gated state, so it always runs per-gate dots.
  for (std::size_t j = 0; j < 2 * H; ++j) z[j] = zx[j] + zu[j];
  for (std::size_t j = 0; j < H; ++j) gates[j] = sigmoid(z[j]);      // z
  for (std::size_t j = H; j < 2 * H; ++j) gates[j] = sigmoid(z[j]);  // r
  auto& rh = scratch.rh;
  for (std::size_t j = 0; j < H; ++j) rh[j] = gates[H + j] * h_inout[j];
  for (std::size_t j = 2 * H; j < 3 * H; ++j) {
    gates[j] = std::tanh(zx[j] + math::dot(p.u.row(j), rh));
  }
  // h_prev[j] is read in the same expression that overwrites h[j].
  for (std::size_t j = 0; j < H; ++j) {
    h_inout[j] = (1.0 - gates[j]) * gates[2 * H + j] + gates[j] * h_inout[j];
  }
}

void SequenceRegressor::forward(const math::Matrix& xs,
                                TrainWorkspace& tw) const {
  const std::size_t T = xs.rows();
  const std::size_t H = cfg_.units;
  const std::size_t L = cfg_.layers;
  const std::size_t g = gate_count();
  tw.scratch.z.resize(g);
  tw.scratch.gates.resize(g);
  tw.scratch.rh.resize(H);
  tw.h.resize(L * (T + 1), H);
  tw.c.resize(L * (T + 1), H);
  tw.gates.resize(L * T, g);
  tw.pred.resize(T);
  for (std::size_t l = 0; l < L; ++l) {
    std::ranges::fill(tw.h.row(l * (T + 1)), 0.0);
    std::ranges::fill(tw.c.row(l * (T + 1)), 0.0);
  }
  for (std::size_t t = 0; t < T; ++t) {
    std::span<const double> x = xs.row(t);
    for (std::size_t l = 0; l < L; ++l) {
      // Step in place on this step's cache rows, seeded with the state
      // before it.
      const std::size_t r = TrainWorkspace::state_row(l, t, T);
      const auto h = tw.h.row(r);
      const auto c = tw.c.row(r);
      std::ranges::copy(tw.h.row(r - 1), h.begin());
      std::ranges::copy(tw.c.row(r - 1), c.begin());
      cell_step_into(cells_[l], x, h, c, tw.scratch);
      std::ranges::copy(tw.scratch.gates, tw.gates.row(l * T + t).begin());
      x = h;
    }
    tw.pred[t] = head_.b + math::dot(head_.w, x);
  }
}

void SequenceRegressor::fit(std::span<const data::SequenceSample> samples,
                            bool reset, std::size_t epochs_override) {
  if (samples.empty()) {
    throw std::invalid_argument("SequenceRegressor::fit: no samples");
  }
  // Check every sample before training on any, so a bad one neither reads
  // past its labels nor leaves the model tuned on the batches before it.
  const std::size_t F = samples[0].steps.cols();
  for (const auto& s : samples) {
    if (s.steps.cols() != F || s.labels.size() != s.steps.rows()) {
      throw std::invalid_argument("SequenceRegressor::fit: ragged samples");
    }
  }
  // Every fit may move the weights or the input scaler: cached input
  // projections stamped with an older generation are stale from here on.
  ++generation_;
  math::Rng rng(cfg_.seed + (reset ? 0 : 1 + adam_t_));
  if (reset || !fitted_) {
    // Fit scalers over all rows / labels of the training windows.
    std::size_t total_rows = 0;
    for (const auto& s : samples) total_rows += s.steps.rows();
    math::Matrix all(total_rows, F);
    std::vector<double> all_labels;
    std::size_t w = 0;
    for (const auto& s : samples) {
      for (std::size_t r = 0; r < s.steps.rows(); ++r) {
        std::copy(s.steps.row(r).begin(), s.steps.row(r).end(),
                  all.row(w++).begin());
      }
      all_labels.insert(all_labels.end(), s.labels.begin(), s.labels.end());
    }
    x_scaler_.fit(all);
    y_scaler_.fit(all_labels);
    initialize(F, rng);
    fitted_ = true;
  } else if (F != in_dim_) {
    throw std::invalid_argument("SequenceRegressor::fit: width mismatch");
  }

  // Size the workspace's gradient accumulators and deltas (no-ops once
  // warm); every batch zeroes the accumulators before using them.
  TrainWorkspace& tw = train_.get();
  const std::size_t g = gate_count();
  const std::size_t H = cfg_.units;
  const std::size_t L = cfg_.layers;
  tw.grads.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    tw.grads[l].w.resize(g, cells_[l].w.cols());
    tw.grads[l].u.resize(g, H);
    tw.grads[l].b.resize(g);
  }
  tw.head_gw.resize(H);
  tw.dh.resize(H);
  tw.dx.resize(H);
  tw.dh_prev.resize(H);
  tw.dz.resize(g);
  tw.drh.resize(H);
  tw.dh_time.resize(L, H);
  tw.dc_time.resize(L, H);

  const std::size_t n = samples.size();
  const std::size_t epochs = epochs_override > 0 ? epochs_override : cfg_.epochs;
  const std::size_t batch = std::max<std::size_t>(1, cfg_.batch_size);
  const bool lstm = cfg_.cell == CellType::kLstm;

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.permutation_into(tw.order, n);
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(start + batch, n);
      for (auto& gp : tw.grads) {
        for (double& v : gp.w.flat()) v = 0.0;
        for (double& v : gp.u.flat()) v = 0.0;
        for (double& v : gp.b) v = 0.0;
      }
      std::fill(tw.head_gw.begin(), tw.head_gw.end(), 0.0);
      tw.head_gb = 0.0;
      double denom = 0.0;
      for (std::size_t bi = start; bi < end; ++bi) {
        const auto& s = samples[tw.order[bi]];
        const std::size_t T = s.steps.rows();
        denom += static_cast<double>(T);
        tw.xs.resize(T, F);
        for (std::size_t t = 0; t < T; ++t) {
          x_scaler_.transform_row_into(s.steps.row(t), tw.xs.row(t));
        }
        forward(tw.xs, tw);
        // Output-space deltas.
        tw.dy.resize(T);
        for (std::size_t t = 0; t < T; ++t) {
          tw.dy[t] = tw.pred[t] - y_scaler_.transform_one(s.labels[t]);
        }
        // BPTT: per-layer gradients flowing backward in time.
        std::ranges::fill(tw.dh_time.flat(), 0.0);
        std::ranges::fill(tw.dc_time.flat(), 0.0);
        auto& dh = tw.dh;
        auto& dx = tw.dx;
        auto& dh_prev = tw.dh_prev;
        auto& dz = tw.dz;
        for (std::size_t t = T; t-- > 0;) {
          // Head gradient feeds the top layer's h at step t.
          const auto top_h = tw.h.row(TrainWorkspace::state_row(L - 1, t, T));
          const auto top_dh_time = tw.dh_time.row(L - 1);
          const double dyt = tw.dy[t];
          for (std::size_t j = 0; j < H; ++j) {
            tw.head_gw[j] += dyt * top_h[j];
            dh[j] = dyt * head_.w[j] + top_dh_time[j];
          }
          tw.head_gb += dyt;
          for (std::size_t l = L; l-- > 0;) {
            const std::size_t r = TrainWorkspace::state_row(l, t, T);
            const std::span<const double> x =
                l == 0 ? tw.xs.row(t)
                       : tw.h.row(TrainWorkspace::state_row(l - 1, t, T));
            const std::span<const double> h_prev = tw.h.row(r - 1);
            const std::span<const double> gates = tw.gates.row(l * T + t);
            const auto dc_time = tw.dc_time.row(l);
            const CellParams& p = cells_[l];
            CellGrads& gp = tw.grads[l];
            // Only a layer above 0 passes dx on (to the layer below's h).
            const bool want_dx = l > 0;
            std::ranges::fill(dx, 0.0);
            std::ranges::fill(dh_prev, 0.0);
            std::ranges::fill(dz, 0.0);
            // Gate j's pre-activation `b + w·x + u·hh` has gradient dz[j].
            const auto accumulate = [&](std::size_t j,
                                        std::span<const double> hh,
                                        std::span<double> dhh) {
              const double d = dz[j];
              if (math::is_zero(d)) return;
              gp.b[j] += d;
              auto gw = gp.w.row(j);
              for (std::size_t k = 0; k < x.size(); ++k) gw[k] += d * x[k];
              if (want_dx) {
                const auto wj = p.w.row(j);
                for (std::size_t k = 0; k < x.size(); ++k) dx[k] += d * wj[k];
              }
              auto gu = gp.u.row(j);
              const auto uj = p.u.row(j);
              for (std::size_t k = 0; k < H; ++k) {
                gu[k] += d * hh[k];
                dhh[k] += d * uj[k];
              }
            };
            if (lstm) {
              const std::span<const double> c_prev = tw.c.row(r - 1);
              const std::span<const double> c = tw.c.row(r);
              for (std::size_t j = 0; j < H; ++j) {
                const double i_g = gates[j];
                const double f_g = gates[H + j];
                const double g_g = gates[2 * H + j];
                const double o_g = gates[3 * H + j];
                const double tc = std::tanh(c[j]);
                const double dho = dh[j];
                double dc = dc_time[j] + dho * o_g * (1.0 - tc * tc);
                const double do_ = dho * tc;
                const double di = dc * g_g;
                const double dg = dc * i_g;
                const double df = dc * c_prev[j];
                dc_time[j] = dc * f_g;  // flows to step t-1
                dz[j] = di * i_g * (1.0 - i_g);
                dz[H + j] = df * f_g * (1.0 - f_g);
                dz[2 * H + j] = dg * (1.0 - g_g * g_g);
                dz[3 * H + j] = do_ * o_g * (1.0 - o_g);
              }
              for (std::size_t j = 0; j < g; ++j) {
                accumulate(j, h_prev, dh_prev);
              }
            } else {
              // GRU backward.
              auto& drh = tw.drh;
              std::ranges::fill(drh, 0.0);
              for (std::size_t j = 0; j < H; ++j) {
                const double z_g = gates[j];
                const double n_g = gates[2 * H + j];
                const double dhj = dh[j] + dc_time[j];  // dc_time unused; 0
                const double dzg = dhj * (h_prev[j] - n_g);
                const double dn = dhj * (1.0 - z_g);
                dh_prev[j] += dhj * z_g;
                dz[j] = dzg * z_g * (1.0 - z_g);
                dz[2 * H + j] = dn * (1.0 - n_g * n_g);
              }
              // Candidate path: n's pre-activation reads x and the
              // reset-gated state r*h_prev, rebuilt from the caches.
              auto& rh = tw.scratch.rh;
              for (std::size_t k = 0; k < H; ++k) {
                rh[k] = gates[H + k] * h_prev[k];
              }
              for (std::size_t j = 2 * H; j < 3 * H; ++j) {
                accumulate(j, rh, drh);
              }
              for (std::size_t j = 0; j < H; ++j) {
                const double r_g = gates[H + j];
                const double dr = drh[j] * h_prev[j];
                dh_prev[j] += drh[j] * r_g;
                dz[H + j] = dr * r_g * (1.0 - r_g);
              }
              // z and r gate paths.
              for (std::size_t j = 0; j < 2 * H; ++j) {
                accumulate(j, h_prev, dh_prev);
              }
            }
            std::ranges::copy(dh_prev, tw.dh_time.row(l).begin());
            if (want_dx) {
              // dx feeds the lower layer's h at the same time step.
              const auto below = tw.dh_time.row(l - 1);
              for (std::size_t j = 0; j < H; ++j) dx[j] += below[j];
              std::swap(dh, dx);
              std::ranges::fill(below, 0.0);
            }
          }
        }
      }
      // Average, clip, Adam.
      const double inv = denom > 0 ? 1.0 / denom : 0.0;
      for (auto& gp : tw.grads) {
        for (double& v : gp.w.flat()) v *= inv;
        for (double& v : gp.u.flat()) v *= inv;
        for (double& v : gp.b) v *= inv;
        clip(gp.w.flat(), cfg_.grad_clip);
        clip(gp.u.flat(), cfg_.grad_clip);
        clip(gp.b, cfg_.grad_clip);
      }
      for (double& v : tw.head_gw) v *= inv;
      tw.head_gb *= inv;
      clip(tw.head_gw, cfg_.grad_clip);
      tw.head_gb = std::clamp(tw.head_gb, -cfg_.grad_clip, cfg_.grad_clip);
      ++adam_t_;
      adam_step(cfg_.learning_rate);
    }
  }
}

void SequenceRegressor::adam_step(double lr) {
  const TrainWorkspace& tw = train_.get();
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));
  for (std::size_t l = 0; l < cells_.size(); ++l) {
    CellParams& p = cells_[l];
    const CellGrads& gp = tw.grads[l];
    adam_update(p.w.flat(), gp.w.flat(), p.mw.flat(), p.vw.flat(), lr, bc1, bc2);
    adam_update(p.u.flat(), gp.u.flat(), p.mu.flat(), p.vu.flat(), lr, bc1, bc2);
    adam_update(p.b, gp.b, p.mb, p.vb, lr, bc1, bc2);
  }
  adam_update(head_.w, tw.head_gw, head_.mw, head_.vw, lr, bc1, bc2);
  std::span<double> bspan(&head_.b, 1);
  std::span<const double> gbspan(&tw.head_gb, 1);
  std::span<double> mspan(&head_.mb, 1);
  std::span<double> vspan(&head_.vb, 1);
  adam_update(bspan, gbspan, mspan, vspan, lr, bc1, bc2);
}

std::vector<double> SequenceRegressor::predict(const math::Matrix& steps) const {
  std::vector<double> out;
  Workspace ws;
  predict_into(steps, out, ws);
  return out;
}

void SequenceRegressor::predict_into(const math::Matrix& steps,
                                     std::vector<double>& out,
                                     Workspace& ws) const {
  project_rows_into(steps, ws);
  predict_projected_into(ws.zx0, 1, ws.out, ws);
  const auto row = ws.out.row(0);
  out.assign(row.begin(), row.end());
}

void SequenceRegressor::project_input_row_into(std::span<const double> row,
                                               std::span<double> zx,
                                               std::span<double> x) const {
  x_scaler_.transform_row_into(row, x);
  const CellParams& p = cells_[0];
  // bias[j] first, dot second, x on the left: the cell expression of
  // matmul_nt_bias_into, which runs the layer l >= 1 projections.
  for (std::size_t j = 0; j < zx.size(); ++j) {
    zx[j] = p.b[j] + math::dot(x, p.w.row(j));
  }
}

void SequenceRegressor::project_rows_into(const math::Matrix& rows,
                                          Workspace& ws) const {
  if (!fitted_) throw std::logic_error("SequenceRegressor: not fitted");
  if (rows.cols() != in_dim_) {
    throw std::invalid_argument("SequenceRegressor::predict: width mismatch");
  }
  ws.x.resize(in_dim_);
  ws.zx0.resize(rows.rows(), gate_count());
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    project_input_row_into(rows.row(r), ws.zx0.row(r), ws.x);
  }
}

void SequenceRegressor::predict_projected_into(const math::Matrix& zx0,
                                               std::size_t lanes,
                                               math::Matrix& out,
                                               Workspace& ws) const {
  if (!fitted_) throw std::logic_error("SequenceRegressor: not fitted");
  if (zx0.cols() != gate_count()) {
    throw std::invalid_argument(
        "SequenceRegressor::predict_projected: projection width mismatch");
  }
  if (lanes == 0 || zx0.rows() % lanes != 0) {
    throw std::invalid_argument(
        "SequenceRegressor::predict_projected: rows must be lanes * T");
  }
  const std::size_t T = zx0.rows() / lanes;
  const std::size_t H = cfg_.units;
  const std::size_t g = gate_count();
  ws.scratch.z.resize(g);
  ws.scratch.gates.resize(g);
  ws.scratch.rh.resize(H);
  // Layer-outer, time-inner: a layer's input projection over every lane's
  // whole window is one bias-folded GEMM (layer 0's arrives precomputed);
  // only the recurrent term runs sequentially in t, as one GEMM over all
  // lanes per step.
  const math::Matrix* zx = &zx0;
  const math::Matrix* xin = nullptr;
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    const CellParams& p = cells_[l];
    if (l > 0) {
      math::matmul_nt_bias_into(*xin, p.w, p.b, ws.zx);
      zx = &ws.zx;
    }
    math::Matrix& hout = (l % 2 == 0) ? ws.hseq_a : ws.hseq_b;
    hout.resize(zx0.rows(), H);
    ws.h.resize(lanes, H);
    ws.c.resize(lanes, H);
    std::fill(ws.h.flat().begin(), ws.h.flat().end(), 0.0);
    std::fill(ws.c.flat().begin(), ws.c.flat().end(), 0.0);
    for (std::size_t t = 0; t < T; ++t) {
      math::matmul_nt_into(ws.h, p.u, ws.zu);
      for (std::size_t i = 0; i < lanes; ++i) {
        const std::size_t row = i * T + t;
        cell_step_preproj_into(p, zx->row(row), ws.zu.row(i), ws.h.row(i),
                               ws.c.row(i), ws.scratch);
        const auto h = ws.h.row(i);
        std::copy(h.begin(), h.end(), hout.row(row).begin());
      }
    }
    xin = &hout;
  }
  out.resize(lanes, T);
  for (std::size_t i = 0; i < lanes; ++i) {
    auto orow = out.row(i);
    for (std::size_t t = 0; t < T; ++t) {
      orow[t] = y_scaler_.inverse_one(head_.b +
                                      math::dot(head_.w, xin->row(i * T + t)));
    }
  }
}

std::size_t SequenceRegressor::parameter_count() const {
  std::size_t n = 0;
  for (const auto& p : cells_) n += p.w.size() + p.u.size() + p.b.size();
  n += head_.w.size() + 1;
  return n;
}

}  // namespace highrpm::ml
