// serve — open-loop request serving through ExtractionService: Poisson
// arrivals with burst episodes and a priority and size mix from
// serve::GenerateTrace, at a nominal rate under capacity and then at every
// rate of a fixed ladder.
//
// Every request is timed from its due time (trace start + arrival offset),
// not from when the scheduler enqueued it, so a producer that falls behind
// charges its own lateness to the requests it delays. A shed or failed
// request counts as a miss (infinite latency).
//
// End-to-end, over repeated sweeps of the same traces:
// throughput_per_s = highest rate meeting the p99 limit with
// no growing backlog, interpolated on log p99 between the highest passing
// and the next ladder rate; secondary_per_s = capacity, the completion rate
// under a fixed saturating rate (every batch full); p50_ms / p99_ms =
// due-time latency at the nominal rate.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "runtime/thread_pool.h"
#include "serve/scheduler.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using goalex::serve::TimedRequest;
using Clock = std::chrono::steady_clock;

constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Submits one request; the service or a bare scheduler.
using SubmitFn = std::function<goalex::StatusOr<goalex::serve::ResultFuture>(
    const TimedRequest&)>;

struct ReplayResult {
  std::vector<double> due_ms;  ///< Per request in trace order; kMiss = miss.
  std::vector<double> lag_ms;  ///< Submit time minus due time.
  std::vector<double> enqueue_to_done_ms;
  int64_t shed = 0;
  int64_t failed = 0;
  double first_due_s = 0.0;
  double last_done_s = 0.0;
  /// Every sample_every-th served record, with its trace index.
  std::vector<std::pair<size_t, goalex::data::DetailRecord>> sampled;
};

/// The open-loop replay: one producer walks the arrival schedule
/// and never waits on completions; futures are collected afterwards.
ReplayResult Replay(const SubmitFn& submit,
                    const std::vector<TimedRequest>& trace,
                    size_t sample_every) {
  ReplayResult result;
  result.due_ms.assign(trace.size(), kMiss);
  result.lag_ms.reserve(trace.size());
  struct Pending {
    size_t index;
    Clock::time_point submitted;
    goalex::serve::ResultFuture future;
  };
  std::vector<Pending> pending;
  pending.reserve(trace.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due_of = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(trace[i].arrival_s));
  };
  for (size_t i = 0; i < trace.size(); ++i) {
    const Clock::time_point due = due_of(i);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const Clock::time_point before = Clock::now();
    result.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(before - due).count());
    goalex::StatusOr<goalex::serve::ResultFuture> submitted = [&] {
      Span span("serve.submit");
      return submit(trace[i]);
    }();
    if (!submitted.ok()) {
      ++result.shed;
      continue;
    }
    pending.push_back({i, Clock::now(), std::move(submitted).value()});
  }
  double last_done = 0.0;
  for (Pending& p : pending) {
    goalex::StatusOr<goalex::serve::Completion> completion = p.future.get();
    if (!completion.ok()) {
      ++result.failed;
      continue;
    }
    // Enqueue happens inside Submit; taking the time after Submit returned
    // makes the due-time latency an upper bound by the Submit call's length.
    const double enqueue_s =
        std::chrono::duration<double>(p.submitted - start).count();
    const double done_s = enqueue_s + completion->latency_seconds;
    result.due_ms[p.index] = (done_s - trace[p.index].arrival_s) * 1e3;
    result.enqueue_to_done_ms.push_back(completion->latency_seconds * 1e3);
    last_done = std::max(last_done, done_s);
    if (p.index % sample_every == 0) {
      result.sampled.emplace_back(p.index, std::move(completion->record));
    }
  }
  result.first_due_s = trace.empty() ? 0.0 : trace.front().arrival_s;
  result.last_done_s = last_done;
  return result;
}

goalex::core::ServeConfig MakeServeConfig(const Params& params) {
  goalex::core::ServeConfig config;
  config.num_threads = params.Int("pool_threads");
  config.max_batch_size = params.Int("max_batch_size");
  config.batch_deadline_ms = params.Double("batch_deadline_ms");
  config.max_queue_depth = params.Int("max_queue_depth");
  config.max_queue_delay_ms = params.Double("max_queue_delay_ms");
  config.slo_p99_ms = params.Double("slo_p99_ms");
  GOALEX_CHECK_OK(config.Validate());
  return config;
}

goalex::serve::TrafficConfig Traffic(const Params& params, double rate_qps,
                                     double duration_s, uint64_t seed) {
  goalex::serve::TrafficConfig traffic;
  traffic.rate_qps = rate_qps;
  traffic.duration_s = duration_s;
  traffic.seed = seed;
  traffic.burst_period_s = params.Double("burst_period_s");
  traffic.burst_duration_s = params.Double("burst_duration_s");
  traffic.burst_multiplier = params.Double("burst_multiplier");
  traffic.interactive_fraction = params.Double("interactive_fraction");
  return traffic;
}

struct Inputs {
  std::unique_ptr<goalex::core::DetailExtractor> extractor;
  std::vector<TimedRequest> nominal;
  std::vector<std::vector<TimedRequest>> ladder;
  std::vector<TimedRequest> saturation;
};

Inputs MakeInputs(const Params& params, uint64_t seed) {
  Inputs inputs;
  inputs.extractor = TrainDeploymentExtractor(params, seed);
  inputs.nominal = goalex::serve::GenerateTrace(
      Traffic(params, params.Double("nominal_qps"),
              params.Double("nominal_s"), 31 * seed + 1));
  const std::vector<double> rates = params.DoubleList("ladder_qps");
  for (size_t i = 0; i < rates.size(); ++i) {
    // Ladder rates run without bursts: each measures one steady rate.
    goalex::serve::TrafficConfig traffic = Traffic(
        params, rates[i], params.Double("ladder_s"), 31 * seed + 2 + i);
    traffic.burst_period_s = 0.0;
    inputs.ladder.push_back(goalex::serve::GenerateTrace(traffic));
  }
  goalex::serve::TrafficConfig saturation =
      Traffic(params, params.Double("saturation_qps"),
              params.Double("saturation_s"), 31 * seed + 1000);
  saturation.burst_period_s = 0.0;
  inputs.saturation = goalex::serve::GenerateTrace(saturation);
  return inputs;
}

/// p99 of due-time latency (misses included), and whether the backlog grew:
/// the median latency of the last quarter of requests is over the limit.
struct RateVerdict {
  double p99_ms = 0.0;
  bool backlog = false;
};

RateVerdict Judge(const ReplayResult& replay, double slo_ms) {
  RateVerdict verdict;
  verdict.p99_ms = Percentile(replay.due_ms, 0.99);
  const size_t n = replay.due_ms.size();
  std::vector<double> tail(replay.due_ms.begin() + 3 * n / 4,
                           replay.due_ms.end());
  verdict.backlog = Median(tail) > slo_ms;
  return verdict;
}

/// Least-squares non-decreasing fit of `values` (pool adjacent violators).
std::vector<double> MonotoneFit(const std::vector<double>& values) {
  std::vector<double> level;
  std::vector<size_t> count;
  for (double v : values) {
    level.push_back(v);
    count.push_back(1);
    while (level.size() > 1 && level[level.size() - 2] > level.back()) {
      const size_t n = count.back() + count[count.size() - 2];
      const double merged = (level[level.size() - 2] * count[count.size() - 2] +
                             level.back() * count.back()) /
                            static_cast<double>(n);
      level.pop_back();
      count.pop_back();
      level.back() = merged;
      count.back() = n;
    }
  }
  std::vector<double> fit;
  for (size_t i = 0; i < level.size(); ++i) fit.insert(fit.end(), count[i], level[i]);
  return fit;
}

/// Highest rate meeting the limit. Latency can only grow with load, so
/// log p99 is first fitted non-decreasing over the ladder: a transient
/// stall at one rate is pooled with its neighbours instead of deciding the
/// result alone. The rate is then interpolated where the fit crosses
/// log(limit), so the value is continuous in the service's speed. A rate
/// whose backlog grew counts as far over the limit.
double MaxQpsAtSlo(const std::vector<double>& rates,
                   const std::vector<RateVerdict>& verdicts, double slo_ms) {
  std::vector<double> log_p99;
  for (const RateVerdict& verdict : verdicts) {
    const double p99 = verdict.backlog ? std::max(verdict.p99_ms, 10 * slo_ms)
                                       : verdict.p99_ms;
    log_p99.push_back(std::log(std::clamp(p99, 1e-3, 1e9)));
  }
  const std::vector<double> fit = MonotoneFit(log_p99);
  const double limit = std::log(slo_ms);
  size_t over = 0;
  while (over < fit.size() && fit[over] <= limit) ++over;
  if (over == fit.size()) return rates.back();
  if (over == 0) return rates[0] * std::exp(limit - fit[0]);
  const double fraction = (limit - fit[over - 1]) / (fit[over] - fit[over - 1]);
  return rates[over - 1] + fraction * (rates[over] - rates[over - 1]);
}

int64_t CountMismatches(const goalex::core::DetailExtractor& extractor,
                        const std::vector<TimedRequest>& trace,
                        const ReplayResult& replay) {
  int64_t mismatches = 0;
  for (const auto& [index, record] : replay.sampled) {
    if (!SameRecord(extractor.Extract(trace[index].objective), record)) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

void RunServe(const Args& args, Report& report) {
  const Params& params = args.params;
  const goalex::core::ServeConfig config = MakeServeConfig(params);
  const double slo_ms = config.slo_p99_ms;
  const size_t sample_every =
      static_cast<size_t>(params.Int("check_sample_every"));

  Inputs inputs;
  std::vector<double> setup_s;
  for (int r = 0; r < params.Int("setup_repeats"); ++r) {
    double t0 = NowSeconds();
    inputs = MakeInputs(params, args.seed);
    setup_s.push_back(NowSeconds() - t0);
  }
  const goalex::core::DetailExtractor& extractor = *inputs.extractor;

  auto via_service = [&](const std::vector<TimedRequest>& trace) {
    goalex::serve::ExtractionService service(&extractor, config);
    ReplayResult replay = Replay(
        [&](const TimedRequest& request) {
          return service.Submit(request.objective, request.priority);
        },
        trace, sample_every);
    service.Stop();
    return replay;
  };

  int64_t mismatches = 0;
  int64_t failed = 0;
  int64_t nominal_shed = 0;
  auto run_phase = [&](const std::vector<TimedRequest>& trace) {
    ReplayResult replay = via_service(trace);
    mismatches += CountMismatches(extractor, trace, replay);
    failed += replay.failed;
    report.AddAttempted(static_cast<int64_t>(trace.size()));
    return replay;
  };

  if (!args.trace) {
    // Warm-up at saturation (not measured) so allocator growth and first
    // touches are paid before timing.
    via_service(inputs.saturation);
    // Sweeps repeat the same traces until the measured time is used (at
    // least min_sweeps): the nominal rate, every ladder rate, saturation.
    // Latencies of the same trace pool across sweeps, so a percentile rests
    // on several sweeps' samples and one stalled sweep cannot decide it.
    const std::vector<double> rates = params.DoubleList("ladder_qps");
    std::vector<double> nominal_ms, capacity_qps;
    std::vector<std::vector<double>> rate_ms(rates.size());
    std::vector<int> backlog_sweeps(rates.size(), 0);
    int sweeps = 0;
    const double measure_start = NowSeconds();
    while (sweeps < params.Int("min_sweeps") ||
           NowSeconds() - measure_start < args.seconds) {
      ReplayResult nominal = run_phase(inputs.nominal);
      nominal_shed += nominal.shed;
      nominal_ms.insert(nominal_ms.end(), nominal.due_ms.begin(),
                        nominal.due_ms.end());
      std::string line = "sweep " + std::to_string(++sweeps) +
                         ": ladder p99 ms";
      for (size_t i = 0; i < rates.size(); ++i) {
        ReplayResult rung = run_phase(inputs.ladder[i]);
        const RateVerdict verdict = Judge(rung, slo_ms);
        backlog_sweeps[i] += verdict.backlog ? 1 : 0;
        rate_ms[i].insert(rate_ms[i].end(), rung.due_ms.begin(),
                          rung.due_ms.end());
        char rate_p99[48];
        std::snprintf(rate_p99, sizeof(rate_p99), " %.0f:%.0f", rates[i],
                      verdict.p99_ms);
        line += rate_p99;
      }
      // Capacity: a fixed rate far above it keeps every batch full; the
      // completion rate is then the service's drain rate.
      ReplayResult saturated = run_phase(inputs.saturation);
      capacity_qps.push_back(
          static_cast<double>(saturated.enqueue_to_done_ms.size()) /
          (saturated.last_done_s - saturated.first_due_s));
      report.Note(line + "; capacity " +
                  std::to_string(static_cast<int>(capacity_qps.back())) +
                  " qps");
    }
    std::vector<RateVerdict> verdicts;
    for (size_t i = 0; i < rates.size(); ++i) {
      RateVerdict verdict;
      verdict.p99_ms = Percentile(rate_ms[i], 0.99);
      verdict.backlog = 2 * backlog_sweeps[i] > sweeps;
      verdicts.push_back(verdict);
    }
    report.Check(failed == 0, "no admitted request failed (" +
                                  std::to_string(failed) + " failed)");
    report.Check(mismatches == 0,
                 "sampled served records byte-identical to Extract() (" +
                     std::to_string(mismatches) + " mismatches)");
    report.Check(nominal_shed == 0, "nothing shed at the nominal rate");
    report.AddFailed(failed);
    EndToEnd e2e;
    e2e.names = {"serve.max_qps_at_slo", "serve.capacity_qps", "serve.p50_ms",
                 "serve.p99_ms"};
    e2e.setup_s = Median(setup_s);
    e2e.throughput_per_s = MaxQpsAtSlo(rates, verdicts, slo_ms);
    e2e.secondary_per_s = Median(capacity_qps);
    e2e.p50_ms = Percentile(nominal_ms, 0.50);
    e2e.p99_ms = Percentile(nominal_ms, 0.99);
    report.Note(std::to_string(sweeps) + " sweeps; nominal latency over " +
                std::to_string(nominal_ms.size()) + " requests");
    EmitEndToEnd(e2e, report);
    return;
  }

  // Traced run: the nominal trace untraced (the overhead reference), then
  // again through a Scheduler whose handler is ExtractionService's
  // (ExtractBatch on a pool of pool_threads) with a span and a timer around
  // each batch.
  ReplayResult nominal = run_phase(inputs.nominal);
  SampleSink batch_s;
  goalex::serve::ServeStats traced_stats;
  ReplayResult traced;
  const RegistryReading before = RegistryReading::Take();
  {
    goalex::runtime::ThreadPool pool(config.num_threads);
    SetTracing(true);
    goalex::serve::Scheduler scheduler(
        config, [&](const std::vector<const goalex::data::Objective*>& batch) {
          double t0 = NowSeconds();
          std::vector<goalex::data::DetailRecord> records;
          {
            Span span("serve.batch_extract");
            records = extractor.ExtractBatch(batch, &pool);
          }
          batch_s.Add(NowSeconds() - t0);
          return records;
        });
    traced = Replay(
        [&](const TimedRequest& request) {
          return scheduler.Submit(request.objective, request.priority);
        },
        inputs.nominal, sample_every);
    scheduler.Stop();
    SetTracing(false);
    traced_stats = scheduler.stats();
  }
  const RegistryReading after = RegistryReading::Take();
  mismatches += CountMismatches(extractor, inputs.nominal, traced);
  failed += traced.failed;
  report.AddAttempted(static_cast<int64_t>(inputs.nominal.size()));
  report.Check(failed == 0, "no admitted request failed");
  report.Check(mismatches == 0,
               "sampled served records byte-identical to Extract()");
  report.AddFailed(failed);

  // Direct Extract() probe over the trace's own objectives.
  const size_t probe_n =
      std::min(inputs.nominal.size(),
               static_cast<size_t>(params.Int("direct_probe_requests")));
  double t0 = NowSeconds();
  for (size_t i = 0; i < probe_n; ++i) {
    extractor.Extract(inputs.nominal[i].objective);
  }
  const double direct_s = (NowSeconds() - t0) / probe_n;
  const std::vector<double> batches = batch_s.Merged();
  const double per_request_s =
      Sum(batches) / static_cast<double>(traced_stats.completed);

  std::vector<double> batch_ms;
  for (double s : batches) batch_ms.push_back(s * 1e3);
  std::map<std::string, double> layer;
  layer["serve.generator_lag_p99_ms"] = Percentile(traced.lag_ms, 0.99);
  layer["serve.enqueue_to_done_p50_ms"] =
      Percentile(traced.enqueue_to_done_ms, 0.50);
  layer["serve.enqueue_to_done_p99_ms"] =
      Percentile(traced.enqueue_to_done_ms, 0.99);
  layer["serve.batch_extract_p50_ms"] = Percentile(batch_ms, 0.50);
  layer["serve.batch_extract_p99_ms"] = Percentile(batch_ms, 0.99);
  layer["serve.batch_size_mean"] =
      static_cast<double>(traced_stats.completed) / traced_stats.batches;
  layer["serve.closed_max_size"] =
      static_cast<double>(traced_stats.closed_max_size);
  layer["serve.closed_deadline"] =
      static_cast<double>(traced_stats.closed_deadline);
  layer["serve.overhead_ratio"] = per_request_s / direct_s;
  layer["serve.shed"] = static_cast<double>(traced.shed);
  layer["serve.failed"] = static_cast<double>(traced.failed);
  layer["exec.steals"] = after.CounterDelta(before, "exec.steals");
  layer["trace.overhead_pct"] =
      100.0 * (Mean(traced.due_ms) / Mean(nominal.due_ms) - 1.0);
  EmitPerLayer(layer, report);
}

}  // namespace perfbench
