// Shared plumbing of the benchmark program: run options, wall/CPU/RSS
// probes, order statistics, and the Report that collects metrics and
// output checks and prints them in the benchmark's output format.
//
// The statistics here are the benchmark's own (not the library's), so a
// change under test cannot also change how it is measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Nanoseconds on the steady clock (arbitrary epoch).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of the process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Interpolated median; 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Nearest-rank percentile of an already sorted sequence.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p);

/// FNV-1a 64-bit digest (output pinning).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files the workload writes (shard CSVs).
  std::string work_dir;
};

/// The seed whose sweep CSV digests are pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

class Report {
 public:
  /// Records one metric.  `samples` is how many observations it was
  /// computed from; `note` says how (printed on the human-readable line).
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = {});

  /// Records an output check; a false `ok` marks the run incorrect and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what);

  /// Counts operations against failed_frac.
  void operations(std::uint64_t attempted, std::uint64_t failed);

  /// Records every `contract` metric not recorded yet as zero with no
  /// samples: a layer `workload` does not exercise.
  void fill_absent(std::span<const MetricSpec> contract,
                   const std::string& workload);

  [[nodiscard]] bool correct() const noexcept { return checks_failed_ == 0; }

  /// Prints every recorded metric as a human-readable line, then the
  /// result object holding exactly `contract` as the last line.  Returns
  /// false without printing the object when a contract metric is
  /// missing, has another unit, or is not finite.
  bool print(std::ostream& out, std::span<const MetricSpec> contract) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
    std::string note;
  };

  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

}  // namespace perfbench
