// highrpm_perfbench — the repository benchmark's executable.
//
//   highrpm_perfbench --workload <fleet-batch|agent-finetune|serve-daemon>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress and host facts, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A traced run also
// writes its spans to .bench_out/spans-<workload>.csv. Normally launched
// through perfbench/run.py, which builds it first.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "highrpm/obs/registry.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "highrpm_perfbench: %s\n"
               "usage: highrpm_perfbench --workload "
               "<fleet-batch|agent-finetune|serve-daemon> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& s, const char* flag) {
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    usage((std::string("bad value for ") + flag + ": '" + s + "'").c_str());
  }
  return v;
}

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_number<std::uint64_t>(val, "--seed");
    } else if (arg == "--seconds") {
      opt.seconds = parse_number<double>(val, "--seconds");
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      const int t = parse_number<int>(val, "--trace");
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      opt.trace = t == 1;
    } else {
      usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse_args(argc, argv);
  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (opt.workload == "fleet-batch") {
    run = perfbench::run_fleet_batch;
  } else if (opt.workload == "agent-finetune") {
    run = perfbench::run_agent_finetune;
  } else if (opt.workload == "serve-daemon") {
    run = perfbench::run_serve_daemon;
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  // End-to-end figures are taken with the costly instrumentation off (the
  // HIGHRPM_OBS=0 regime); a traced run switches it on for its traced half.
  highrpm::obs::Registry::instance().set_enabled(false);
  if (opt.trace) perfbench::spans().enable(std::size_t{1} << 20);

  const perfbench::HostFacts host = perfbench::probe_host(1.0);
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "busy_gap_max_us=%.1f busy_gaps_over_50us=%llu\n",
              host.nproc, host.cpu_model.c_str(), host.compiler.c_str(),
              host.build_type.c_str(), host.busy_gap_max_us,
              static_cast<unsigned long long>(host.busy_gaps_over_50us));
  std::fflush(stdout);

  perfbench::Report rep;
  try {
    rep = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "highrpm_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) {
    perfbench::add_host_metrics(rep, host);
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/spans-" + opt.workload + ".csv";
    const perfbench::SpanLog& log = perfbench::spans();
    if (!log.write_csv(path)) {
      std::fprintf(stderr, "highrpm_perfbench: cannot write %s\n",
                   path.c_str());
      return 1;
    }
    std::printf("spans: %llu recorded, %llu dropped (log full) -> %s\n",
                static_cast<unsigned long long>(log.recorded()),
                static_cast<unsigned long long>(log.dropped()), path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    // JSON has no NaN/Inf; a non-finite figure goes out as null, which
    // run.py rejects.
    char value[32] = "null";
    if (std::isfinite(m.value)) std::snprintf(value, sizeof(value), "%.17g", m.value);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
