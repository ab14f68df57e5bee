#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Shortest round-trip decimal form: every digit the double carries.
std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples, std::string note) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            std::move(note)});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  std::cerr << "check failed: " << what << "\n";
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::fill_absent(std::span<const MetricSpec> contract,
                         const std::string& workload) {
  for (const MetricSpec& spec : contract) {
    const bool recorded =
        std::any_of(metrics_.begin(), metrics_.end(),
                    [&](const Metric& m) { return m.name == spec.name; });
    if (!recorded) {
      add(std::string(spec.name), 0.0, std::string(spec.unit), 0,
          "not exercised by " + workload);
    }
  }
}

bool Report::print(std::ostream& out,
                   std::span<const MetricSpec> contract) const {
  const double failed_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  char line[160];
  std::snprintf(line, sizeof(line), "%-34s %14.6g %-6s n=%llu", "failed_frac",
                failed_frac, "frac",
                static_cast<unsigned long long>(attempted_));
  out << line << "  (failed ops / attempted)\n";
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "%-34s %14.6g %-6s n=%llu",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    out << line;
    if (!m.note.empty()) out << "  (" << m.note << ")";
    out << "\n";
  }

  std::string json = "{\"correct\": ";
  json += correct() && failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : contract) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    if (it == metrics_.end() || it->unit != spec.unit ||
        !std::isfinite(it->value)) {
      std::cerr << "error: metric '" << spec.name
                << "' is missing, not finite, or not in " << spec.unit
                << "\n";
      return false;
    }
    if (!first) json += ", ";
    first = false;
    json += "\"" + it->name + "\": {\"value\": " + number(it->value) +
            ", \"unit\": \"" + it->unit + "\"}";
  }
  json += "}}";
  out << json << "\n";
  return true;
}

}  // namespace perfbench
