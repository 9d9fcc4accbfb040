// The three benchmark workloads. Each generates its inputs from the run
// seed before any timing starts, sets up (timed as setup_s), warms up
// untimed, measures for its share of --seconds, checks its outputs, and
// returns the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). README.md beside this directory says why each exists.
#pragma once

#include "harness.hpp"

namespace perfbench {

Report run_fleet_batch(const Options& opt);
Report run_agent_finetune(const Options& opt);
Report run_serve_daemon(const Options& opt);

}  // namespace perfbench
