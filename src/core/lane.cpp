#include "highrpm/core/lane.hpp"

namespace highrpm::core {

double Lane::predict(const DynamicTrr::StepPrep& prep) {
  return trr.use_cheap() ? trr.predict_prepared_cheap(prep)
                         : trr.predict_prepared();
}

DynamicTrr::Commit Lane::commit(const DynamicTrr::StepPrep& prep,
                                double raw_estimate) {
  const DynamicTrr::Commit c = trr.step_commit(prep, raw_estimate);
  if (ctl && !c.accepted) {
    if (const auto d = ctl->observe(c.estimate, trr.prepared_row(prep))) {
      trr.set_use_cheap(d->use_cheap);
    }
  }
  return c;
}

void Lane::reset() {
  trr.reset_stream();
  tenant_hold.reset();
  if (ctl) {
    ctl->reset();
    // A fresh controller starts Sparse. Before training the cheap model
    // does not exist yet; routing is then applied by the first
    // post-training reset.
    if (trr.cheap_fitted()) trr.set_use_cheap(ctl->decision().use_cheap);
  }
}

}  // namespace highrpm::core
