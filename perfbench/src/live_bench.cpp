// Live workloads: open-loop Poisson traffic through runtime::ReissueClient
// and a 2-worker runtime::ThreadPool onto a systems::LiveBackend.
//
// No coordinated omission: the schedule is drawn up front from the seed,
// every request is timed from its *scheduled* send time to its first
// response, and the generator's own lateness is reported separately.
//
// An untraced run measures a nominal-rate phase (latency, CPU per query,
// generator lag) and then searches for the highest rate whose p99 stays
// under the workload's limit with no growing backlog.  A traced run
// measures an untraced and a traced nominal phase back to back; the traced
// one stamps the benchmark-owned DispatchFn and pool task (submit,
// pool wait, backend execute, on_response) for the per-layer figures.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "reissue/core/policy.hpp"
#include "reissue/obs/runtime_trace.hpp"
#include "reissue/runtime/clock.hpp"
#include "reissue/runtime/executor.hpp"
#include "reissue/runtime/reissue_client.hpp"
#include "reissue/stats/distributions.hpp"
#include "reissue/stats/tail_summary.hpp"
#include "reissue/systems/live_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace reissue;

constexpr std::size_t kWorkers = 2;
constexpr int kSetups = 3;
/// Requests per latency window.  Latency percentiles are medians over
/// windows (each window's p99 has 20 samples beyond it), so millisecond
/// host stalls confined to a minority of windows do not set them; the
/// stall-inclusive p99/p999 over the whole phase are printed beside them.
constexpr std::size_t kWindowRequests = 2000;
/// A phase stops generating once this many requests are outstanding: well
/// inside the client's 65536-slot completion table, so an overloaded
/// phase stays measurable and every request keeps its slot.
constexpr std::uint64_t kBacklogCap = 20000;

struct LiveWorkload {
  const char* backend;
  double scale;
  /// Offered rate of the nominal phase, queries/s.
  double nominal_qps;
  core::ReissuePolicy policy;
  /// p99 limit of the max-rate search, ms.  Set above the millisecond
  /// stalls of a shared host, so the search finds where the backlog
  /// starts to grow rather than where a stall happened to land.
  double p99_limit_ms;
  /// First rate the max-rate search tries, queries/s.
  double ladder_start_qps;
};

/// Per-copy stamps of a traced phase.  Each slot is written by the one
/// worker that ran the copy and read after the pool is idle.
struct CopyStamps {
  std::int64_t enqueue_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t exec_ns = 0;
  std::int64_t response_ns = 0;
  std::uint64_t ops = 0;
  bool dispatched = false;
  bool first = false;
};

/// One open-loop phase: the schedule, what happened to each request, and
/// the client's own accounting.
struct Phase {
  double rate = 0.0;
  std::int64_t start_ns = 0;
  std::vector<std::int64_t> sched_ns;  // offsets from start_ns
  std::vector<std::int64_t> sent_ns;
  std::vector<std::int64_t> done_ns;
  std::unique_ptr<std::atomic<std::uint8_t>[]> firsts;
  std::uint64_t submitted = 0;
  /// Requests with at least one / more than one first response.
  std::uint64_t completed = 0;
  std::uint64_t duplicates = 0;
  bool aborted = false;
  double cpu_s = 0.0;
  double schedule_ns_per_draw = 0.0;
  runtime::ReissueClientStats client;
  std::size_t ring_samples = 0;

  // Traced phases only.
  std::vector<std::int64_t> submit_call_ns;
  std::vector<CopyStamps> primary;
  std::vector<CopyStamps> copy;
  std::uint64_t queued_peak = 0;

  /// Latency of each completed request from its scheduled send, ms, in
  /// schedule order.
  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> out;
    out.reserve(submitted);
    for (std::size_t i = 0; i < submitted; ++i) {
      if (done_ns[i] != 0) {
        out.push_back(static_cast<double>(done_ns[i] -
                                          (start_ns + sched_ns[i])) *
                      1e-6);
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<double> lags_ms() const {
    std::vector<double> out;
    out.reserve(submitted);
    for (std::size_t i = 0; i < submitted; ++i) {
      out.push_back(static_cast<double>(sent_ns[i] -
                                        (start_ns + sched_ns[i])) *
                    1e-6);
    }
    return out;
  }
};

/// Poisson arrival offsets for `seconds` at `rate`, drawn from the stats
/// layer's exponential sampler.
std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::uint64_t seed,
                                           double* ns_per_draw) {
  const auto gaps = stats::make_exponential(rate * 1e-9);  // per ns
  stats::Xoshiro256 rng(seed);
  std::vector<double> block(1024);
  std::vector<std::int64_t> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double horizon = seconds * 1e9;
  double t = 0.0;
  std::uint64_t draws = 0;
  const auto t0 = SteadyClock::now();
  for (;;) {
    gaps->sample_batch(block, rng);
    draws += block.size();
    for (const double gap : block) {
      t += gap;
      if (t >= horizon) {
        *ns_per_draw = seconds_since(t0) / static_cast<double>(draws) * 1e9;
        return schedule;
      }
      schedule.push_back(static_cast<std::int64_t>(t));
    }
  }
}

/// Runs one open-loop phase against `backend`.  Query ids are
/// `id_base + i`; the backend maps them onto its trace.
template <bool kTraced>
Phase run_phase(const systems::LiveBackend& backend,
                const core::ReissuePolicy& policy, double rate,
                double seconds, std::uint64_t seed, std::uint64_t id_base) {
  Phase phase;
  phase.rate = rate;
  phase.sched_ns =
      poisson_schedule(rate, seconds, seed, &phase.schedule_ns_per_draw);
  const std::size_t n = phase.sched_ns.size();
  phase.sent_ns.assign(n, 0);
  phase.done_ns.assign(n, 0);
  phase.firsts = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) phase.firsts[i].store(0);
  if constexpr (kTraced) {
    phase.submit_call_ns.assign(n, 0);
    phase.primary.assign(n, {});
    if (policy.reissues()) phase.copy.assign(n, {});
  }

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> queued_peak{0};

  runtime::WallClock clock;
  runtime::ThreadPool pool(kWorkers);
  runtime::ReissueClientConfig config;
  config.seed = seed ^ 0xc011;
  config.latency_ring_capacity = (n + 64) * config.latency_ring_shards;
  runtime::ReissueClient* client_ptr = nullptr;
  // The reissue thread can pop an entry, let drain() return, and dispatch
  // afterwards; `closed` turns such late copies away once the phase has
  // settled, so no task outlives the phase or the client.
  std::mutex dispatch_mutex;
  bool closed = false;
  runtime::DispatchFn dispatch = [&](std::uint64_t id, bool is_reissue) {
    std::lock_guard lock(dispatch_mutex);
    if (closed) return;
    const std::size_t i = id - id_base;
    if constexpr (kTraced) {
      const std::int64_t enqueue = now_ns();
      const std::uint64_t depth =
          enqueued.fetch_add(1, std::memory_order_relaxed) + 1 -
          started.load(std::memory_order_relaxed);
      std::uint64_t peak = queued_peak.load(std::memory_order_relaxed);
      while (depth > peak &&
             !queued_peak.compare_exchange_weak(peak, depth,
                                                std::memory_order_relaxed)) {
      }
      pool.submit([&, id, i, is_reissue, enqueue] {
        started.fetch_add(1, std::memory_order_relaxed);
        CopyStamps& s = is_reissue ? phase.copy[i] : phase.primary[i];
        s.enqueue_ns = enqueue;
        s.start_ns = now_ns();
        s.ops = backend.execute(id);
        const std::int64_t executed = now_ns();
        s.exec_ns = executed - s.start_ns;
        s.first = client_ptr->on_response(id, is_reissue);
        s.end_ns = now_ns();
        s.response_ns = s.end_ns - executed;
        s.dispatched = true;
        if (s.first) {
          phase.done_ns[i] = s.end_ns;
          phase.firsts[i].fetch_add(1, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    } else {
      pool.submit([&, id, i, is_reissue] {
        (void)backend.execute(id);
        if (client_ptr->on_response(id, is_reissue)) {
          phase.done_ns[i] = now_ns();
          phase.firsts[i].fetch_add(1, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  };
  runtime::ReissueClient client(clock, std::move(dispatch), policy, config);
  client_ptr = &client;

  const double cpu0 = process_cpu_seconds();
  phase.start_ns = now_ns() + 1'000'000;  // 1 ms lead
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = phase.start_ns + phase.sched_ns[i];
    if (now_ns() < due) {
      std::this_thread::sleep_until(
          SteadyClock::time_point(std::chrono::nanoseconds(due)));
    }
    phase.sent_ns[i] = now_ns();
    if constexpr (kTraced) {
      client.submit(id_base + i);
      phase.submit_call_ns[i] = now_ns() - phase.sent_ns[i];
    } else {
      client.submit(id_base + i);
    }
    ++phase.submitted;
    if ((i & 63) == 63 &&
        phase.submitted >
            completed.load(std::memory_order_relaxed) + kBacklogCap) {
      phase.aborted = true;
      break;
    }
  }

  // Settle: decide every pending reissue, finish in-flight work, collect
  // straggling responses (bounded).
  client.drain();
  pool.wait_idle();
  const auto settle = SteadyClock::now();
  while (completed.load() < phase.submitted && seconds_since(settle) < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    client.drain();
    pool.wait_idle();
  }
  {
    std::lock_guard lock(dispatch_mutex);
    closed = true;
  }
  pool.wait_idle();
  phase.cpu_s = process_cpu_seconds() - cpu0;
  phase.queued_peak = queued_peak.load();
  phase.client = client.stats();
  phase.ring_samples = client.drain_samples().size();
  for (std::size_t i = 0; i < phase.submitted; ++i) {
    const std::uint8_t firsts = phase.firsts[i].load();
    phase.completed += firsts > 0 ? 1 : 0;
    phase.duplicates += firsts > 1 ? 1 : 0;
  }
  return phase;
}

/// Output checks of one phase: every submitted id got exactly one first
/// response, the client's sample count equals its first responses, and
/// the sample ring dropped nothing.  Returns the failed requests.
std::uint64_t check_phase(const Phase& phase, Report& report) {
  const std::uint64_t missing = phase.submitted - phase.completed;
  report.check(missing == 0, std::to_string(missing) + " of " +
                                 std::to_string(phase.submitted) +
                                 " requests got no first response");
  report.check(phase.duplicates == 0,
               std::to_string(phase.duplicates) +
                   " requests got more than one first response");
  const runtime::ReissueClientStats& s = phase.client;
  report.check(s.queries_submitted == phase.submitted,
               "client counted " + std::to_string(s.queries_submitted) +
                   " submissions, generator " +
                   std::to_string(phase.submitted));
  report.check(s.first_responses == phase.completed &&
                   s.latency_samples == s.first_responses &&
                   phase.ring_samples == s.first_responses,
               "client sample counts disagree with its first responses");
  report.check(s.latency_ring_dropped == 0, "sample ring dropped samples");
  return missing + phase.duplicates;
}

/// Percentile `p` of each consecutive kWindowRequests-long slice of the
/// schedule-ordered latencies (the trailing partial slice joins the last
/// one; one slice when there are too few).
std::vector<double> window_percentiles(const std::vector<double>& latencies,
                                       double p) {
  const std::size_t windows =
      std::max<std::size_t>(latencies.size() / kWindowRequests, 1);
  std::vector<double> out;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = latencies.begin() +
                       static_cast<std::ptrdiff_t>(w * kWindowRequests);
    const auto last = w + 1 == windows
                          ? latencies.end()
                          : first + static_cast<std::ptrdiff_t>(kWindowRequests);
    out.push_back(percentile(std::vector<double>(first, last), p));
  }
  return out;
}

/// One rate of the max-rate search.  Its score is the larger of the median
/// window p99 and the median window p50 over the rung's last third, where
/// a growing backlog shows first; the rung passes when the score is
/// within the limit.
struct Rung {
  double rate = 0.0;
  double score_ms = 0.0;
  bool ok = false;
};

Rung run_rung(const systems::LiveBackend& backend, const LiveWorkload& w,
              double rate, double seconds, std::uint64_t seed,
              std::uint64_t id_base, Report& report, std::uint64_t* attempted,
              std::uint64_t* failed) {
  const Phase phase =
      run_phase<false>(backend, w.policy, rate, seconds, seed, id_base);
  *attempted += phase.submitted;
  *failed += check_phase(phase, report);
  Rung rung;
  rung.rate = rate;
  const std::vector<double> lat = phase.latencies_ms();
  const double p99 = median(window_percentiles(lat, 99.0));
  const std::vector<double> p50s = window_percentiles(lat, 50.0);
  const double tail_p50 = median(std::vector<double>(
      p50s.begin() + static_cast<std::ptrdiff_t>(p50s.size() * 2 / 3),
      p50s.end()));
  rung.score_ms = std::max(p99, tail_p50);
  rung.ok = !phase.aborted && rung.score_ms <= w.p99_limit_ms;
  return rung;
}

/// Highest rate whose p99 stays under the limit with no growing backlog:
/// geometric steps up to the first failing rung, then bisection, then
/// log-linear interpolation of the rung score between the bracketing
/// rungs.  Host noise only ever adds latency, so a failing rung is run
/// once more and keeps the better score: one stall (or, with a hedge, the
/// burst of copies it sets off) must not decide the rate.
void report_max_rate(const systems::LiveBackend& backend,
                     const LiveWorkload& w, double budget_s,
                     std::uint64_t seed, std::uint64_t id_base,
                     Report& report, std::uint64_t* attempted,
                     std::uint64_t* failed) {
  constexpr double kStep = 1.2;
  const double rung_s = std::clamp(budget_s / 9.0, 0.3, 2.0);
  const auto start = SteadyClock::now();
  double rate = w.ladder_start_qps;
  Rung lo;
  Rung hi;
  std::string ladder;
  std::uint64_t rungs = 0;
  while (seconds_since(start) + rung_s * 1.3 <= budget_s) {
    Rung rung = run_rung(backend, w, rate, rung_s, seed + 101 + rungs,
                         id_base, report, attempted, failed);
    if (!rung.ok) {
      const Rung again = run_rung(backend, w, rate, rung_s,
                                  seed + 1101 + rungs, id_base, report,
                                  attempted, failed);
      if (again.score_ms < rung.score_ms) rung = again;
    }
    ++rungs;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %.0f:%s%.3g", rate,
                  rung.ok ? "" : "FAIL:", rung.score_ms);
    ladder += buf;
    (rung.ok ? lo : hi) = rung;
    if (hi.rate == 0.0) {
      rate *= kStep;
    } else if (lo.rate == 0.0) {
      rate /= kStep;
    } else {
      if (hi.rate / lo.rate < 1.02) break;
      rate = std::sqrt(lo.rate * hi.rate);
    }
  }
  double result = lo.rate;
  if (lo.rate > 0.0 && hi.rate > lo.rate && hi.score_ms > w.p99_limit_ms &&
      lo.score_ms > 0.0) {
    const double f = (std::log(w.p99_limit_ms) - std::log(lo.score_ms)) /
                     (std::log(hi.score_ms) - std::log(lo.score_ms));
    result = lo.rate + (hi.rate - lo.rate) * std::clamp(f, 0.0, 1.0);
  }
  report.check(lo.rate > 0.0, "max-rate search found no passing rate:" +
                                  ladder);
  char limit[32];
  std::snprintf(limit, sizeof(limit), "%g", w.p99_limit_ms);
  report.add("throughput_qps", result, "1/s", rungs,
             std::string("max_rate_qps: p99 <= ") + limit +
                 " ms, no backlog; rate:score_ms rungs" + ladder);
}

void report_nominal(const Phase& phase, Report& report) {
  std::vector<double> lat = phase.latencies_ms();
  const std::vector<double> p50s = window_percentiles(lat, 50.0);
  const std::vector<double> p99s = window_percentiles(lat, 99.0);
  std::sort(lat.begin(), lat.end());
  const std::string at = "at " + std::to_string(static_cast<int>(phase.rate)) +
                         " q/s from scheduled send";
  const std::string windows = "median of " + std::to_string(p99s.size()) +
                              " windows of " +
                              std::to_string(kWindowRequests) + " requests, ";
  report.add("latency_p50_ms", median(p50s), "ms", lat.size(),
             windows + at);
  report.add("latency_p99_ms", median(p99s), "ms", lat.size(),
             windows + at);
  report.add("latency_p99_phase_ms", percentile_sorted(lat, 99.0), "ms",
             lat.size(), "whole phase, stalls included, " + at);
  report.add("latency_p999_ms", percentile_sorted(lat, 99.9), "ms",
             lat.size(), "whole phase, stalls included, " + at);
  report.add("gen_lag_p99_ms", percentile(phase.lags_ms(), 99.0), "ms",
             phase.submitted, "generator lateness vs schedule");
  report.add("cpu_us_per_query",
             phase.cpu_s / static_cast<double>(std::max<std::uint64_t>(
                               phase.completed, 1)) *
                 1e6,
             "us", phase.completed, "process CPU per completed query");
}

/// Per-layer figures of a traced phase.
void report_traced(const Phase& phase, const LiveWorkload& w,
                   Report& report) {
  std::vector<double> submit_us;
  for (std::size_t i = 0; i < phase.submitted; ++i) {
    submit_us.push_back(static_cast<double>(phase.submit_call_ns[i]) * 1e-3);
  }
  std::vector<double> wait_us;
  std::vector<double> response_us;
  std::vector<double> exec_us;
  std::vector<double> late_us;
  double busy_ns = 0.0;
  double exec_total = 0.0;
  double exec_wasted = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t copies = 0;
  std::uint64_t copy_wins = 0;
  std::int64_t last_end = phase.start_ns;
  const double delay_ns = w.policy.reissues() ? w.policy.delay() * 1e6 : 0.0;
  const auto visit = [&](const CopyStamps& s) {
    wait_us.push_back(static_cast<double>(s.start_ns - s.enqueue_ns) * 1e-3);
    response_us.push_back(static_cast<double>(s.response_ns) * 1e-3);
    exec_us.push_back(static_cast<double>(s.exec_ns) * 1e-3);
    busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    exec_total += static_cast<double>(s.exec_ns);
    if (!s.first) exec_wasted += static_cast<double>(s.exec_ns);
    ops += s.ops;
    last_end = std::max(last_end, s.end_ns);
  };
  for (std::size_t i = 0; i < phase.submitted; ++i) {
    if (phase.primary[i].dispatched) visit(phase.primary[i]);
    if (!phase.copy.empty() && phase.copy[i].dispatched) {
      const CopyStamps& s = phase.copy[i];
      visit(s);
      ++copies;
      copy_wins += s.first ? 1 : 0;
      late_us.push_back(
          (static_cast<double>(s.enqueue_ns - phase.sent_ns[i]) - delay_ns) *
          1e-3);
    }
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(phase.submitted, 1));
  report.add("runtime.submit_us_p50", percentile(submit_us, 50.0), "us",
             submit_us.size(), "ReissueClient::submit call");
  report.add("runtime.submit_us_p99", percentile(submit_us, 99.0), "us",
             submit_us.size());
  report.add("runtime.on_response_us_p50", percentile(response_us, 50.0),
             "us", response_us.size(), "ReissueClient::on_response call");
  report.add("runtime.on_response_us_p99", percentile(response_us, 99.0),
             "us", response_us.size());
  report.add("runtime.pool_wait_us_p50", percentile(wait_us, 50.0), "us",
             wait_us.size(), "ThreadPool::submit to task start");
  report.add("runtime.pool_wait_us_p99", percentile(wait_us, 99.0), "us",
             wait_us.size());
  report.add("runtime.pool_busy_frac",
             busy_ns / (static_cast<double>(kWorkers) *
                        static_cast<double>(last_end - phase.start_ns)),
             "frac", wait_us.size(), "task time / (workers x phase wall)");
  report.add("runtime.pool_queued_peak", static_cast<double>(phase.queued_peak),
             "count", wait_us.size(), "tasks enqueued but not started");
  const runtime::ReissueClientStats& s = phase.client;
  const std::uint64_t checks = s.reissues_issued +
                               s.reissues_suppressed_completed +
                               s.reissues_suppressed_coin;
  report.add("runtime.reissue_frac",
             static_cast<double>(s.reissues_issued) / n, "frac",
             phase.submitted, "issued reissues / submitted queries");
  report.add("runtime.suppressed_completed_frac",
             checks == 0 ? 0.0
                         : static_cast<double>(s.reissues_suppressed_completed) /
                               static_cast<double>(checks),
             "frac", checks,
             "base " + std::to_string(checks) + " reissue decisions");
  report.add("runtime.reissue_late_us_p50", percentile(late_us, 50.0), "us",
             late_us.size(), "copy dispatch - (submit + d)");
  report.add("runtime.reissue_late_us_p99", percentile(late_us, 99.0), "us",
             late_us.size());
  report.add("runtime.hedge_win_frac",
             copies == 0 ? 0.0
                         : static_cast<double>(copy_wins) /
                               static_cast<double>(copies),
             "frac", copies,
             "base " + std::to_string(copies) + " dispatched copies");
  double exec_mean = 0.0;
  for (const double x : exec_us) exec_mean += x;
  exec_mean /= static_cast<double>(std::max<std::size_t>(exec_us.size(), 1));
  report.add("systems.exec_us_p50", percentile(exec_us, 50.0), "us",
             exec_us.size(), std::string("LiveBackend::execute, ") + w.backend);
  report.add("systems.exec_us_p99", percentile(exec_us, 99.0), "us",
             exec_us.size());
  report.add("systems.exec_us_mean", exec_mean, "us", exec_us.size());
  report.add("systems.ops_per_query",
             static_cast<double>(ops) /
                 static_cast<double>(std::max<std::uint64_t>(phase.completed, 1)),
             "count", phase.completed, "backend ops over every copy");
  report.add("systems.wasted_frac",
             exec_total > 0.0 ? exec_wasted / exec_total : 0.0, "frac",
             exec_us.size(), "execute time on already-answered copies");

  // stats layer: the schedule's exponential sampler and the tail
  // accumulator over the phase's latency stream.
  report.add("stats.sample_ns_per_draw", phase.schedule_ns_per_draw, "ns",
             phase.sched_ns.size(), "exponential arrival gaps, sample_batch");
  const std::vector<double> lat = phase.latencies_ms();
  std::vector<double> obs_ns;
  for (int round = 0; round < 5; ++round) {
    stats::TailSummary summary(0.99);
    const auto t0 = SteadyClock::now();
    for (const double x : lat) summary.add(x);
    obs_ns.push_back(seconds_since(t0) /
                     static_cast<double>(std::max<std::size_t>(lat.size(), 1)) *
                     1e9);
  }
  report.add("stats.tail_ns_per_obs", median(obs_ns), "ns", lat.size() * 5,
             "TailSummary::add over the latency stream");
}

/// obs layer: RuntimeRingTracer hook cost, uncontended.
void probe_runtime_tracer(Report& report) {
  constexpr std::uint64_t kEvents = 1'000'000;
  obs::RuntimeRingTracer tracer(std::size_t{1} << 16);
  std::vector<double> ns;
  for (int round = 0; round < 3; ++round) {
    const auto t0 = SteadyClock::now();
    for (std::uint64_t i = 0; i < kEvents / 2; ++i) {
      tracer.on_submit(static_cast<double>(i), i);
      tracer.on_first_response(static_cast<double>(i), i, 0.5, false);
    }
    ns.push_back(seconds_since(t0) / static_cast<double>(kEvents) * 1e9);
  }
  report.add("obs.ring_ns_per_event", median(ns), "ns", kEvents * 3,
             "RuntimeRingTracer hooks, one thread");
}

/// Builds the backend kSetups times, reporting the median as setup_s.
/// The dataset is the same for every seed, like a service's stored data;
/// the seed drives the traffic: arrival times, which queries, reissue
/// coins.
std::unique_ptr<systems::LiveBackend> setup_backend(const LiveWorkload& w,
                                                    Report& report) {
  std::unique_ptr<systems::LiveBackend> backend;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    backend.reset();
    const auto t0 = SteadyClock::now();
    systems::LiveBackendOptions options;
    options.scale = w.scale;
    backend = systems::make_live_backend(w.backend, options);
    // Warm: touch the first stretch of the query trace once.
    std::uint64_t sink = 0;
    const std::size_t warm = std::min<std::size_t>(backend->trace_length(), 2000);
    for (std::size_t id = 0; id < warm; ++id) sink += backend->execute(id);
    report.check(sink > 0, "backend warm-up did no work");
    setups.push_back(seconds_since(t0));
  }
  report.add("setup_s", median(setups), "s", setups.size(),
             "median of make_live_backend + warm-up");
  return backend;
}

void run_live(const LiveWorkload& w, const Options& options,
              Report& report) {
  // Accurate sleeps for the generator (the default 50 us timer slack
  // would show up as generator lag).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto backend = setup_backend(w, report);
  // Query ids start at a seed-dependent point of the backend's trace.
  const std::uint64_t id_base =
      stats::Xoshiro256(options.seed).below(backend->trace_length());
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (!options.trace) {
    const Phase nominal =
        run_phase<false>(*backend, w.policy, w.nominal_qps,
                         options.seconds * 0.4, options.seed, id_base);
    attempted += nominal.submitted;
    failed += check_phase(nominal, report);
    report_nominal(nominal, report);
    report_max_rate(*backend, w, options.seconds * 0.6, options.seed,
                    id_base, report, &attempted, &failed);
    report.add("peak_rss_mb", peak_rss_mib(), "MiB", 1, "getrusage maxrss");
  } else {
    const Phase plain =
        run_phase<false>(*backend, w.policy, w.nominal_qps,
                         options.seconds * 0.45, options.seed, id_base);
    const Phase traced =
        run_phase<true>(*backend, w.policy, w.nominal_qps,
                        options.seconds * 0.45, options.seed, id_base);
    for (const Phase* phase : {&plain, &traced}) {
      attempted += phase->submitted;
      failed += check_phase(*phase, report);
    }
    const double plain_cpu =
        plain.cpu_s / static_cast<double>(std::max<std::uint64_t>(plain.completed, 1));
    const double traced_cpu =
        traced.cpu_s / static_cast<double>(std::max<std::uint64_t>(traced.completed, 1));
    report.add("obs.tracing_overhead_frac", traced_cpu / plain_cpu - 1.0,
               "frac", traced.completed,
               "CPU per query, traced vs untraced nominal phase");
    report_traced(traced, w, report);
    probe_runtime_tracer(report);
  }
  report.operations(attempted, failed);
}

}  // namespace

// Nominal rates sit near half of each workload's measured knee; the hedge
// delay is near the unhedged p90, so a minority of queries send a copy.
void run_live_kvstore(const Options& options, Report& report) {
  run_live({"kvstore", 0.5, 8000.0, core::ReissuePolicy::single_r(0.5, 1.0),
            20.0, 15000.0},
           options, report);
}

void run_live_index(const Options& options, Report& report) {
  run_live({"index", 1.0, 50000.0, core::ReissuePolicy::none(), 20.0,
            150000.0},
           options, report);
}

}  // namespace perfbench
