// highrpm::core::Lane — one monitored stream's per-tick kernel.
//
// The serial facade (HighRpm owns one lane) and the batched fleet
// (FleetStepper owns one per node) run the same tick through it:
//   prepare  DynamicTrr::step_prepare on the raw sensor inputs — the one
//            place a non-finite PMC row is held and a non-finite reading
//            rejected;
//   predict  path-specific: the lane's own model (predict() below) or the
//            fleet's batched GEMM over many lanes' packed windows;
//   commit   DynamicTrr::step_commit, then the adaptive controller observes
//            the committed estimate (measured ticks excluded).
// SRR reads the held row back through DynamicTrr::prepared_row, so every
// consumer of a tick splits the same input. The K-way tenant row has its
// own hold here, applied by the caller to its copy of the row.
#pragma once

#include <optional>
#include <span>

#include "highrpm/adapt/controller.hpp"
#include "highrpm/core/dynamic_trr.hpp"

namespace highrpm::core {

struct Lane {
  DynamicTrr trr;
  /// Hold for the concatenated per-tenant PMC row (the node row's hold
  /// lives in trr).
  RowHold tenant_hold;
  /// Present iff the stream is adaptive; observed after every predicted
  /// commit, its decisions apply from the next tick.
  std::optional<adapt::Controller> ctl;

  DynamicTrr::StepPrep prepare(std::span<const double> pmcs,
                               std::optional<double> im_reading) {
    return trr.step_prepare(pmcs, im_reading);
  }
  /// The unbatched predict leg: the cheap tree or the lane's own LSTM, as
  /// currently routed. Zero allocations once warm.
  double predict(const DynamicTrr::StepPrep& prep);
  /// Commit the raw estimate and feed the controller. Measured ticks are
  /// not observed: they return the IM reading verbatim, so the
  /// model-vs-meter bias would register as a volatility jump on every
  /// reading tick.
  DynamicTrr::Commit commit(const DynamicTrr::StepPrep& prep,
                            double raw_estimate);
  /// New stream: window, holds and controller start over (fine-tuned
  /// weights persist), and the controller's standing routing is re-applied.
  void reset();
};

}  // namespace highrpm::core
