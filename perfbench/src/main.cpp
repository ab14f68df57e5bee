// Benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <sim-paper|sim-groups|live-kvstore|live-index>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints one human-readable line per metric (value, unit, sample count,
// how it was measured), then as the last line a JSON object with the keys
// correct / attempted / failed / metrics.  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics plus the tracing
// overhead.  perfbench/run.py builds this program and forwards its output.
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::MetricSpec;

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_qps", "1/s"},
    {"cpu_us_per_query", "us"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"stats.sample_ns_per_draw", "ns"},
    {"stats.tail_ns_per_obs", "ns"},
    {"core.train_s", "s"},
    {"core.optimize_s", "s"},
    {"sim.run_ns_per_query", "ns"},
    {"sim.events_per_query", "count"},
    {"sim.heap_pops_per_query", "count"},
    {"sim.stage_checks_per_query", "count"},
    {"sim.copies_per_query", "count"},
    {"sim.arena_high_water", "count"},
    {"sim.reissue_useful_frac", "frac"},
    {"sim.sibling_wasted_frac", "frac"},
    {"exp.replication_ms", "ms"},
    {"exp.metrics_ns_per_query", "ns"},
    {"exp.cell_setup_ms", "ms"},
    {"exp.idle_frac", "frac"},
    {"dist.shard_io_s", "s"},
    {"dist.merge_s", "s"},
    {"obs.counting_overhead_frac", "frac"},
    {"obs.ring_ns_per_event", "ns"},
    {"obs.tracing_overhead_frac", "frac"},
    {"runtime.submit_us_p50", "us"},
    {"runtime.submit_us_p99", "us"},
    {"runtime.on_response_us_p50", "us"},
    {"runtime.on_response_us_p99", "us"},
    {"runtime.pool_wait_us_p50", "us"},
    {"runtime.pool_wait_us_p99", "us"},
    {"runtime.pool_busy_frac", "frac"},
    {"runtime.pool_queued_peak", "count"},
    {"runtime.reissue_frac", "frac"},
    {"runtime.suppressed_completed_frac", "frac"},
    {"runtime.reissue_late_us_p50", "us"},
    {"runtime.reissue_late_us_p99", "us"},
    {"runtime.hedge_win_frac", "frac"},
    {"systems.exec_us_p50", "us"},
    {"systems.exec_us_p99", "us"},
    {"systems.exec_us_mean", "us"},
    {"systems.ops_per_query", "count"},
    {"systems.wasted_frac", "frac"},
};

int usage(const std::string& message) {
  std::cerr << "error: " << message
            << "\nusage: perfbench --workload <sim-paper|sim-groups|"
               "live-kvstore|live-index> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.work_dir = ".";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value, nullptr, 0);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;

      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");

  perfbench::Report report;
  try {
    const std::filesystem::path work =
        std::filesystem::path(options.work_dir) /
        ("perfbench-" + std::to_string(getpid()));
    std::filesystem::create_directories(work);
    perfbench::Options run = options;
    run.work_dir = work.string();
    if (options.workload == "sim-paper") {
      perfbench::run_sim_paper(run, report);
    } else if (options.workload == "sim-groups") {
      perfbench::run_sim_groups(run, report);
    } else if (options.workload == "live-kvstore") {
      perfbench::run_live_kvstore(run, report);
    } else if (options.workload == "live-index") {
      perfbench::run_live_index(run, report);
    } else {
      std::filesystem::remove_all(work);
      return usage("unknown workload '" + options.workload + "'");
    }
    std::filesystem::remove_all(work);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (options.trace) report.fill_absent(kPerLayer, options.workload);
  const std::span<const MetricSpec> contract =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  return report.print(std::cout, contract) ? 0 : 1;
}
