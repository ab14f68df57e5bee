// Simulation workloads: sim-paper (exp::run_sweep over the §5 queueing
// cells, optimizer in the loop) and sim-groups (fan-out and fault cells as
// two dist shards plus a merge).
//
// End-to-end (untraced) runs repeat the same seeded sweep until the time
// budget is spent: every repetition must reproduce the first one's CSV
// byte for byte, and the per-repetition figures give the medians.  Traced
// runs alternate untraced and traced sweeps (CountingObserver +
// PhaseTimers attached) for the tracing overhead, then probe single cells
// from outside each layer: the sim run with a no-op observer, the full
// replication, the service sampler and the tail accumulator.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "reissue/dist/manifest.hpp"
#include "reissue/dist/merge.hpp"
#include "reissue/dist/worker.hpp"
#include "reissue/exp/aggregate.hpp"
#include "reissue/exp/registry.hpp"
#include "reissue/exp/runner.hpp"
#include "reissue/obs/counters.hpp"
#include "reissue/obs/trace_ring.hpp"
#include "reissue/sim/cluster.hpp"
#include "reissue/stats/distributions.hpp"
#include "reissue/stats/tail_summary.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace reissue;

/// Sweep worker threads (of the 4-core budget; see perfbench/README.md).
constexpr std::size_t kSimThreads = 2;
/// Replications per cell.
constexpr std::size_t kReplications = 2;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 9;

/// Digests of the aggregated CSV at kDefaultSeed.
constexpr std::uint64_t kSimPaperDigest = 0x7651fa3ec66d2b4f;
constexpr std::uint64_t kSimGroupsDigest = 0xeed606a4f8d170d6;

// ------------------------------------------------------------------ inputs

std::vector<exp::ScenarioSpec> sim_paper_scenarios() {
  std::vector<exp::ScenarioSpec> specs;
  for (const char* name : {"queueing-u30", "queueing-u50"}) {
    exp::ScenarioSpec spec = *exp::ScenarioRegistry::built_in().find(name);
    spec.queries = 1'000'000;
    spec.warmup = 100'000;
    spec.policies = {exp::parse_policy_spec("none"),
                     exp::parse_policy_spec("r:30:0.5"),
                     exp::parse_policy_spec("optimal:0.05")};
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<exp::ScenarioSpec> sim_groups_scenarios() {
  std::vector<exp::ScenarioSpec> specs;
  for (const char* name : {"fanout-replicated", "partition-aggregate",
                           "fanout-ec", "crash-recovery",
                           "correlated-degrade"}) {
    exp::ScenarioSpec spec = *exp::ScenarioRegistry::built_in().find(name);
    spec.queries *= 10;
    spec.warmup *= 10;
    specs.push_back(std::move(spec));
  }
  return specs;
}

bool is_optimal(const exp::PolicySpec& spec) {
  return spec.kind == exp::PolicySpec::Kind::kOptimalSingleR ||
         spec.kind == exp::PolicySpec::Kind::kOptimalSingleD;
}

/// Queries one sweep simulates: every replication's measured run, plus
/// the training run of optimal:* cells.
std::uint64_t simulated_queries(const std::vector<exp::ScenarioSpec>& specs) {
  std::uint64_t total = 0;
  for (const auto& spec : specs) {
    for (const auto& policy : spec.policies) {
      total += kReplications * spec.queries * (is_optimal(policy) ? 2 : 1);
    }
  }
  return total;
}

exp::SweepOptions sweep_options(std::uint64_t seed) {
  exp::SweepOptions options;
  options.replications = kReplications;
  options.threads = kSimThreads;
  options.seed = seed;
  return options;
}

std::string sweep_csv(const std::vector<exp::CellResult>& cells) {
  std::ostringstream os;
  exp::write_csv(os, exp::aggregate(cells));
  return os.str();
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

/// Seed-independent output checks; returns how many cells fail them.
std::size_t check_cells(const std::vector<exp::CellResult>& cells,
                        const std::vector<exp::ScenarioSpec>& specs,
                        Report& report) {
  std::size_t expected = 0;
  for (const auto& spec : specs) expected += spec.policies.size();
  report.check(cells.size() == expected,
               "sweep returned " + std::to_string(cells.size()) +
                   " cells, expected " + std::to_string(expected));
  std::size_t failed = 0;
  std::size_t index = 0;
  for (const auto& spec : specs) {
    for (const auto& policy : spec.policies) {
      if (index >= cells.size()) return failed + (expected - index);
      const exp::CellResult& cell = cells[index++];
      bool ok = cell.scenario == spec.name &&
                cell.policy == exp::to_string(policy) &&
                cell.replications.size() == kReplications;
      for (const auto& rep : cell.replications) {
        ok = ok && std::isfinite(rep.tail) && rep.tail > 0.0 &&
             std::isfinite(rep.tail_psquare) && std::isfinite(rep.mean_latency);
        if (cell.policy == "none") ok = ok && rep.reissue_rate == 0.0;
        if (is_optimal(policy)) {
          ok = ok && rep.policy.stage_count() == 1 &&
               std::isfinite(rep.policy.delay()) && rep.policy.delay() >= 0.0 &&
               rep.policy.probability() > 0.0 &&
               rep.policy.probability() <= 1.0;
        }
      }
      report.check(ok, "cell " + cell.scenario + " " + cell.policy +
                           " failed its output checks");
      failed += ok ? 0 : 1;
    }
  }
  return failed;
}

/// Default-seed check against the pinned digest; a mismatch fails every
/// cell of the sweep (returned as the failed count).
std::size_t check_digest(const std::string& csv, std::uint64_t pinned,
                         const char* workload,
                         const std::vector<exp::ScenarioSpec>& specs,
                         Report& report) {
  const std::uint64_t digest = fnv1a64(csv);
  report.check(digest == pinned, std::string(workload) + " CSV digest " +
                                     hex(digest) + " differs from the pinned " +
                                     hex(pinned));
  if (digest == pinned) return 0;
  std::size_t cells = 0;
  for (const auto& spec : specs) cells += spec.policies.size();
  return cells;
}

// ----------------------------------------------------------------- timing

/// Runs `iteration` until the next one would overrun `seconds` (at least
/// once).
template <class Fn>
void repeat_for(double seconds, Fn&& iteration) {
  const auto start = SteadyClock::now();
  double longest = 0.0;
  do {
    const auto t0 = SteadyClock::now();
    iteration();
    longest = std::max(longest, seconds_since(t0));
  } while (seconds_since(start) + longest <= seconds);
}

struct NoopRunObserver final : core::RunObserver {
  void on_query(double, double) override {}
  void on_reissue(double, double, double, bool) override {}
  void on_complete(std::size_t, std::size_t, double) override {}
};

struct LatencyRecorder final : core::RunObserver {
  std::vector<double> latencies;
  void on_query(double latency, double) override {
    latencies.push_back(latency);
  }
  void on_reissue(double, double, double, bool) override {}
  void on_complete(std::size_t, std::size_t, double) override {}
};

/// One setup: build every scenario's system and warm its scratch with a
/// run at the scenario's warmup size.
double setup_once(const std::vector<exp::ScenarioSpec>& specs,
                  std::uint64_t seed) {
  const auto start = SteadyClock::now();
  for (const auto& spec : specs) {
    exp::ScenarioSpec warm = spec;
    warm.queries = spec.warmup;
    warm.warmup = spec.warmup / 10;
    auto system = exp::make_system(warm, exp::construction_seed(seed, spec.name));
    NoopRunObserver sink;
    system->run_streaming_unordered(core::ReissuePolicy::none(), sink);
  }
  return seconds_since(start);
}

void report_setup(const std::vector<exp::ScenarioSpec>& specs,
                  std::uint64_t seed, Report& report) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(setup_once(specs, seed));
  report.add("setup_s", median(setups), "s", setups.size(),
             "median setup: make_system + warm-up run per scenario");
}

void report_end_to_end(const std::vector<double>& qps, double cpu_s,
                       std::uint64_t queries, const char* what,
                       Report& report) {
  report.add("throughput_qps", median(qps), "1/s", qps.size(),
             std::string("sim_qps: simulated queries per host second, "
                         "median over ") +
                 what);
  report.add("cpu_us_per_query", cpu_s / static_cast<double>(queries) * 1e6,
             "us", queries, "process CPU per simulated query");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB", 1, "getrusage maxrss");
}

// ------------------------------------------------------------ traced probes

/// Counter-derived sim.* metrics over every run the observer saw.
void report_counters(const obs::CountingObserver& counting, Report& report) {
  const sim::RunCounters c = counting.total();
  const double arrivals = static_cast<double>(std::max<std::uint64_t>(
      c.arrivals, 1));
  const std::uint64_t events =
      c.arrivals + c.heap_pops + c.scan_pops + c.stage_checks + c.stage_retired;
  report.add("sim.events_per_query", static_cast<double>(events) / arrivals,
             "count", c.arrivals,
             "arrivals + heap pops + scan pops + stage checks/retires");
  report.add("sim.heap_pops_per_query",
             static_cast<double>(c.heap_pops) / arrivals, "count", c.arrivals);
  report.add("sim.stage_checks_per_query",
             static_cast<double>(c.stage_checks + c.stage_retired) / arrivals,
             "count", c.arrivals);
  const std::uint64_t copies = c.arrivals + c.reissues_issued +
                               c.siblings_issued + c.fault_primary_retries;
  report.add("sim.copies_per_query", static_cast<double>(copies) / arrivals,
             "count", c.arrivals,
             "primaries + reissues + siblings + crash retries");
  report.add("sim.arena_high_water", static_cast<double>(c.arena_slots),
             "count", counting.runs(), "largest reissue arena of any run");
  const double issued = static_cast<double>(c.reissues_issued);
  report.add("sim.reissue_useful_frac",
             c.reissues_issued == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(c.reissues_wasted) / issued,
             "frac", c.reissues_issued,
             "1 - wasted/issued; base " + std::to_string(c.reissues_issued) +
                 " issued reissues");
  report.add("sim.sibling_wasted_frac",
             c.siblings_issued == 0
                 ? 0.0
                 : static_cast<double>(c.siblings_wasted) /
                       static_cast<double>(c.siblings_issued),
             "frac", c.siblings_issued,
             "base " + std::to_string(c.siblings_issued) + " issued siblings");
}

/// core.* and exp.idle_frac from the traced sweeps' phase timers.
void report_phases(const obs::PhaseTimers& timers, double traced_wall_s,
                   Report& report) {
  double busy = 0.0;
  double train = 0.0;
  double optimize = 0.0;
  std::uint64_t phases = 0;
  std::uint64_t train_n = 0;
  std::uint64_t optimize_n = 0;
  for (const auto& entry : timers.entries()) {
    busy += entry.seconds;
    phases += entry.count;
    if (entry.phase == "train") {
      train = entry.seconds;
      train_n = entry.count;
    } else if (entry.phase == "optimize") {
      optimize = entry.seconds;
      optimize_n = entry.count;
    }
  }
  report.add("core.train_s",
             train_n == 0 ? 0.0 : train / static_cast<double>(train_n), "s",
             train_n, "mean training run of an optimal:* replication");
  report.add("core.optimize_s",
             optimize_n == 0 ? 0.0 : optimize / static_cast<double>(optimize_n),
             "s", optimize_n, "mean optimizer call");
  report.add("exp.idle_frac",
             traced_wall_s > 0.0
                 ? 1.0 - busy / (static_cast<double>(kSimThreads) *
                                 traced_wall_s)
                 : 0.0,
             "frac", phases,
             "1 - sum of phase time / (threads x wall), traced sweeps");
}

/// Times one cell's layers from outside, single-threaded: exp::make_system,
/// the sim run with a no-op observer, the full replication, the run with a
/// CountingObserver and with a RingTraceObserver, the service sampler and
/// the tail accumulator.  `policy` must be a fixed policy.
void probe_cell(const exp::ScenarioSpec& spec, const exp::PolicySpec& policy,
                std::uint64_t root_seed, Report& report) {
  constexpr int kRounds = 3;
  const std::uint64_t construction = exp::construction_seed(root_seed, spec.name);
  const std::uint64_t seed = exp::replication_seed(root_seed, spec.name, 0);
  const double queries = static_cast<double>(spec.queries);

  std::vector<double> setup_ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = SteadyClock::now();
    auto built = exp::make_system(spec, construction);
    setup_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.add("exp.cell_setup_ms", median(setup_ms), "ms", setup_ms.size(),
             "exp::make_system for the probe cell " + spec.name);

  auto system = exp::make_system(spec, construction);
  auto* cluster = dynamic_cast<sim::Cluster*>(system.get());
  if (cluster == nullptr) throw std::logic_error("probe cell is not a Cluster");
  const core::ReissuePolicy fixed = policy.fixed;
  const auto timed_run = [&](sim::SimObserver* observer) {
    cluster->set_sim_observer(observer);
    cluster->reseed(seed);
    NoopRunObserver sink;
    const auto t0 = SteadyClock::now();
    cluster->run_streaming_unordered(fixed, sink);
    const double seconds = seconds_since(t0);
    cluster->set_sim_observer(nullptr);
    return seconds;
  };
  (void)timed_run(nullptr);  // warm the scratch

  std::vector<double> plain;
  std::vector<double> replication;
  std::vector<double> counted;
  std::vector<double> ringed;
  std::uint64_t ring_events = 0;
  for (int round = 0; round < kRounds; ++round) {
    plain.push_back(timed_run(nullptr));
    cluster->reseed(seed);
    const auto t0 = SteadyClock::now();
    const exp::ReplicationMetrics metrics = exp::run_cell_replication(
        *cluster, policy, spec.percentile, seed,
        core::LogMode::kStreamingUnordered);
    replication.push_back(seconds_since(t0));
    report.check(std::isfinite(metrics.tail), "probe replication tail");
    obs::CountingObserver counting;
    counted.push_back(timed_run(&counting));
    obs::RingTraceObserver ring(std::size_t{1} << 16);
    ringed.push_back(timed_run(&ring));
    ring_events = ring.ring().total_pushed();
  }
  const double plain_s = median(plain);
  const std::string cell = spec.name + " " + exp::to_string(policy);
  report.add("sim.run_ns_per_query", plain_s / queries * 1e9, "ns",
             plain.size(),
             "Cluster::run_streaming_unordered, no-op observer, " + cell);
  report.add("exp.replication_ms", median(replication) * 1e3, "ms",
             replication.size(), "exp::run_cell_replication, " + cell);
  report.add("exp.metrics_ns_per_query",
             (median(replication) - plain_s) / queries * 1e9, "ns",
             replication.size(), "replication minus the no-op sim run");
  report.add("obs.counting_overhead_frac", median(counted) / plain_s - 1.0,
             "frac", counted.size(), "CountingObserver attached vs none");
  report.add("obs.ring_ns_per_event",
             (median(ringed) - plain_s) / static_cast<double>(ring_events) *
                 1e9,
             "ns", ring_events, "RingTraceObserver attached vs none");

  // Service sampler of the cell.
  stats::DistributionPtr service = exp::parse_distribution(spec.service);
  if (spec.service_cap > 0.0) {
    service = stats::make_truncated(service, spec.service_cap);
  }
  std::vector<double> block(4096);
  constexpr std::size_t kDraws = std::size_t{1} << 21;
  std::vector<double> draw_ns;
  double sink = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    stats::Xoshiro256 rng(seed + static_cast<std::uint64_t>(round));
    const auto t0 = SteadyClock::now();
    for (std::size_t done = 0; done < kDraws; done += block.size()) {
      service->sample_batch(block, rng);
      sink += block.back();
    }
    draw_ns.push_back(seconds_since(t0) / static_cast<double>(kDraws) * 1e9);
  }
  report.check(std::isfinite(sink), "sampled service times are finite");
  report.add("stats.sample_ns_per_draw", median(draw_ns), "ns",
             kDraws * draw_ns.size(),
             "Distribution::sample_batch on " + service->name());

  // Tail accumulator over the cell's recorded observation stream.
  LatencyRecorder recorder;
  recorder.latencies.reserve(spec.queries);
  cluster->reseed(seed);
  cluster->run_streaming_unordered(fixed, recorder);
  std::vector<double> obs_ns;
  for (int round = 0; round < kRounds; ++round) {
    stats::TailSummary summary(spec.percentile);
    const auto t0 = SteadyClock::now();
    for (const double x : recorder.latencies) summary.add(x);
    obs_ns.push_back(seconds_since(t0) /
                     static_cast<double>(recorder.latencies.size()) * 1e9);
    report.check(std::isfinite(summary.quantile()), "tail summary quantile");
  }
  report.add("stats.tail_ns_per_obs", median(obs_ns), "ns",
             recorder.latencies.size() * obs_ns.size(),
             "TailSummary::add (histogram + P2) over the observation stream");
}

}  // namespace

// ------------------------------------------------------------- sim-paper

void run_sim_paper(const Options& options, Report& report) {
  const auto specs = sim_paper_scenarios();
  const std::uint64_t queries = simulated_queries(specs);
  const exp::SweepOptions sweep = sweep_options(options.seed);

  std::string reference;
  std::size_t cells_run = 0;
  std::size_t cells_failed = 0;
  const auto one_sweep = [&](const exp::SweepOptions& opts) {
    const auto t0 = SteadyClock::now();
    const auto cells = exp::run_sweep(specs, opts);
    const double wall = seconds_since(t0);
    const std::string csv = sweep_csv(cells);
    cells_run += cells.size();
    if (reference.empty()) {
      reference = csv;
      cells_failed += check_cells(cells, specs, report);
    } else if (csv != reference) {
      report.check(false, "sweep CSV differs between repetitions");
      cells_failed += cells.size();
    }
    return wall;
  };

  if (!options.trace) {
    report_setup(specs, options.seed, report);
    std::vector<double> qps;
    const double cpu0 = process_cpu_seconds();
    repeat_for(options.seconds, [&] {
      qps.push_back(static_cast<double>(queries) / one_sweep(sweep));
    });
    const double cpu = process_cpu_seconds() - cpu0;
    report_end_to_end(qps, cpu, queries * qps.size(), "sweep repetitions",
                      report);
  } else {
    // Alternate untraced and traced sweeps for the tracing overhead,
    // leaving the rest of the budget for the cell probes.
    obs::CountingObserver counting;
    obs::PhaseTimers timers;
    exp::SweepOptions traced = sweep;
    traced.sim_observer = &counting;
    traced.timers = &timers;
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    repeat_for(options.seconds * 0.6, [&] {
      if (untraced_s.size() <= traced_s.size()) {
        untraced_s.push_back(one_sweep(sweep));
      } else {
        traced_s.push_back(one_sweep(traced));
      }
    });
    if (traced_s.empty()) traced_s.push_back(one_sweep(traced));
    report.check(counting.total().arrivals == queries * traced_s.size(),
                 "CountingObserver saw every simulated query");
    report.add("obs.tracing_overhead_frac",
               median(traced_s) / median(untraced_s) - 1.0, "frac",
               traced_s.size() + untraced_s.size(),
               "traced vs untraced sweep wall time, alternating");
    report_counters(counting, report);
    double traced_wall = 0.0;
    for (const double s : traced_s) traced_wall += s;
    report_phases(timers, traced_wall, report);
    probe_cell(specs[0], specs[0].policies[1], options.seed, report);
  }
  if (options.seed == kDefaultSeed) {
    cells_failed += check_digest(reference, kSimPaperDigest, "sim-paper",
                                 specs, report);
  }
  report.operations(cells_run, cells_failed);
}

// ------------------------------------------------------------ sim-groups

void run_sim_groups(const Options& options, Report& report) {
  const auto specs = sim_groups_scenarios();
  const std::uint64_t queries = simulated_queries(specs);
  const exp::SweepOptions sweep = sweep_options(options.seed);
  const std::filesystem::path dir(options.work_dir);

  // The in-process sweep the merged shards must reproduce.
  obs::CountingObserver counting;
  obs::PhaseTimers timers;
  const auto local_sweep = [&](bool traced) {
    exp::SweepOptions opts = sweep;
    if (traced) {
      opts.sim_observer = &counting;
      opts.timers = &timers;
    }
    const auto t0 = SteadyClock::now();
    auto cells = exp::run_sweep(specs, opts);
    return std::make_pair(std::move(cells), seconds_since(t0));
  };

  if (!options.trace) report_setup(specs, options.seed, report);
  const auto [reference_cells, reference_s] = local_sweep(false);
  const std::string reference = sweep_csv(reference_cells);
  std::size_t cells_failed = check_cells(reference_cells, specs, report);
  std::size_t cells_run = reference_cells.size();

  std::vector<double> qps;
  std::vector<double> shard_io_s;
  std::vector<double> merge_s;
  const auto shards_and_merge = [&] {
    const auto t0 = SteadyClock::now();
    std::vector<std::string> raw;
    for (std::size_t shard = 0; shard < 2; ++shard) {
      dist::WorkerOptions worker;
      worker.shard = dist::ShardRef{shard, 2};
      worker.raw_output = (dir / ("shard-" + std::to_string(shard) + ".csv"))
                              .string();
      worker.sweep = sweep;
      auto last_cell = SteadyClock::now();
      worker.on_cell_done = [&](std::size_t, std::size_t) {
        last_cell = SteadyClock::now();
      };
      const dist::WorkerReport done = dist::run_shard(specs, worker);
      shard_io_s.push_back(seconds_since(last_cell));
      report.check(done.finished, "shard " + std::to_string(shard) +
                                      " did not finish");
      raw.push_back(worker.raw_output);
    }
    const auto m0 = SteadyClock::now();
    const dist::MergeReport merged = dist::merge_shards(raw);
    merge_s.push_back(seconds_since(m0));
    const double wall = seconds_since(t0);
    const std::string csv = sweep_csv(merged.cells);
    cells_run += merged.cells.size();
    if (csv != reference) {
      report.check(false, "merged shard CSV differs from in-process sweep");
      cells_failed += merged.cells.size();
    }
    for (const auto& path : raw) {
      std::filesystem::remove(path);
      std::filesystem::remove(dist::manifest_path(path));
    }
    qps.push_back(static_cast<double>(queries) / wall);
  };

  if (!options.trace) {
    const double cpu0 = process_cpu_seconds();
    repeat_for(std::max(options.seconds - reference_s, 0.0), shards_and_merge);
    const double cpu = process_cpu_seconds() - cpu0;
    report_end_to_end(qps, cpu, queries * qps.size(),
                      "shard+merge repetitions", report);
  } else {
    // Traced: the in-process sweep with CountingObserver + PhaseTimers
    // (run_shard takes no observer) against its untraced twin, then the
    // shard/merge path for the dist timings, then the cell probes.
    std::vector<double> untraced_s{reference_s};
    std::vector<double> traced_s;
    repeat_for(options.seconds * 0.4, [&] {
      if (traced_s.size() < untraced_s.size()) {
        traced_s.push_back(local_sweep(true).second);
      } else {
        untraced_s.push_back(local_sweep(false).second);
      }
    });
    if (traced_s.empty()) traced_s.push_back(local_sweep(true).second);
    report.check(counting.total().arrivals == queries * traced_s.size(),
                 "CountingObserver saw every simulated query");
    report.add("obs.tracing_overhead_frac",
               median(traced_s) / median(untraced_s) - 1.0, "frac",
               traced_s.size() + untraced_s.size(),
               "traced vs untraced in-process sweep wall time, alternating");
    report_counters(counting, report);
    double traced_wall = 0.0;
    for (const double s : traced_s) traced_wall += s;
    report_phases(timers, traced_wall, report);
    shards_and_merge();
    report.add("dist.shard_io_s", median(shard_io_s), "s", shard_io_s.size(),
               "run_shard after its last cell: raw CSV, hash, manifest");
    report.add("dist.merge_s", median(merge_s), "s", merge_s.size(),
               "dist::merge_shards of the two shards");
    const auto& crash = specs[3];  // crash-recovery, r:30:0.5
    probe_cell(crash, crash.policies[1], options.seed, report);
  }
  if (options.seed == kDefaultSeed) {
    cells_failed += check_digest(reference, kSimGroupsDigest, "sim-groups",
                                 specs, report);
  }
  report.operations(cells_run, cells_failed);
}

}  // namespace perfbench
