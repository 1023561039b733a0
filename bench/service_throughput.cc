// Compile-service scheduling bench (BENCH_service.json).
//
// Replays the same seeded open-loop arrival stream (Poisson arrivals over
// a mixed linear/star/random/TPC-H pool) through the service once per
// scheduling policy — FIFO, shortest-estimated-first, deadline-aware —
// and records sustained throughput and queue-latency percentiles. The
// stream is sized for ~1.2x offered load, the overload regime where the
// dispatch order is the only thing that differs between policies: total
// work and makespan match, but who waits changes, which is exactly what
// p95 queue latency measures. Estimates come first (the paper's §6
// admission fee), so SJF's ordering costs nothing extra — the prediction
// it sorts by was already paid for by admission and budget derivation.
//
// Two execution modes, selectable with --mode (default: both):
//   simulated  CompileService::Run — the discrete-event timeline, one
//              compile at a time on the calling thread (1 worker);
//   async      AsyncCompileService — real worker threads over the condvar
//              ready-queue handoff, arrivals paced in wall time
//              (--workers threads, default 4). The queue seconds here are
//              real waits, so this is the live-server counterpart of the
//              simulated figures.
//
// Expected shape: shortest-estimated-first improves mean and p95 queue
// latency over FIFO on the mixed pool (classic SJF vs FCFS, enabled here
// by the estimator); deadline-aware trades some of that for fewer
// deadline misses on the deadline-carrying half of the stream. The async
// mode shows the same policy ordering when its workers saturate.
//
// The scheduling samples above use a time model calibrated on this run.
// The overload sweep that follows them uses a fixed model instead
// (SweepTimeModel), so two runs print identical overload lines.
//
// Usage:
//   service_throughput [--label NAME] [--out FILE] [--arrivals N]
//                      [--max-tables N] [--mode simulated|async|both]
//                      [--workers N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "service/admission.h"
#include "service/async_executor.h"
#include "service/compile_service.h"
#include "workload/workload.h"

namespace cote {
namespace {

struct Sample {
  std::string mode;  // "simulated", "async", "overload", "overload-growth"
  std::string policy;
  int workers = 0;
  int arrivals = 0;
  double queries_per_sec = 0;
  double makespan_seconds = 0;
  double mean_queue_seconds = 0;
  double p50_queue_seconds = 0;
  double p95_queue_seconds = 0;
  int64_t estimates = 0;
  int64_t cache_hits = 0;
  int64_t cache_insertions = 0;
  int64_t degraded = 0;
  int64_t failed = 0;
  int64_t deadline_misses = 0;
  // Overload-sweep columns (zero/empty for the scheduling samples above):
  // offered load multiplier, overload policy, queue capacity (0 =
  // unbounded), the outcome taxonomy, and p95 queue latency over *served*
  // queries only — the resilience headline (shed work must not count as
  // latency the service delivered).
  double load = 0;
  std::string overload;
  int capacity = 0;
  int64_t served_full = 0;
  int64_t served_degraded = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_expired = 0;
  int64_t failed_permanent = 0;
  int64_t retried = 0;
  double p95_served_queue_seconds = 0;
};

/// The model behind the overload sweep: the coefficients of
/// perfbench/models/serial.model, fitted for the same bench::SerialOptions
/// (max_composite_inner = 2). The sweep runs on the virtual clock with
/// estimate-derived service times, so with a model that does not change
/// from run to run its samples replay bit for bit; a model fitted to this
/// run's wall timings would move every predicted second, and with it the
/// trace gaps, the patience ladder and the shed choices.
TimeModel SweepTimeModel() {
  TimeModel m;
  m.ct[static_cast<int>(JoinMethod::kNljn)] = 0x1.1820b6f1b09ecp-18;
  m.ct[static_cast<int>(JoinMethod::kMgjn)] = 0x1.5136c7d20e6c7p-16;
  m.ct[static_cast<int>(JoinMethod::kHsjn)] = 0x1.53cf9acdfb1b3p-17;
  return m;
}

/// Mean predicted compile seconds over `pool` under `model`: one warm
/// estimate per query, the same path admission runs.
double MeanPredictedSeconds(const std::vector<const QueryGraph*>& pool,
                            const OptimizerOptions& options,
                            const TimeModel& model) {
  AdmissionStage probe(options, model, AdmissionOptions(), nullptr, nullptr);
  double sum = 0;
  for (const QueryGraph* q : pool) {
    sum += probe.Admit(*q, ServiceQueryClass(*q)).predicted_seconds;
  }
  return sum / static_cast<double>(pool.size());
}

double Percentile(std::vector<double> xs, int pct) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  size_t rank = (n * static_cast<size_t>(pct) + 99) / 100;  // nearest-rank
  if (rank == 0) rank = 1;
  return xs[rank - 1];
}

void WriteJson(const std::string& path, const std::string& label,
               const std::vector<Sample>& samples) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::abort();
  }
  std::fprintf(f,
               "{\n  \"label\": \"%s\",\n  \"hardware_threads\": %u,\n"
               "  \"results\": [\n",
               label.c_str(), std::thread::hardware_concurrency());
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"policy\": \"%s\", \"workers\": %d, "
        "\"arrivals\": %d, "
        "\"queries_per_sec\": %.2f, \"makespan_seconds\": %.6f, "
        "\"mean_queue_seconds\": %.6f, \"p50_queue_seconds\": %.6f, "
        "\"p95_queue_seconds\": %.6f, \"estimates\": %lld, "
        "\"cache_hits\": %lld, \"cache_insertions\": %lld, "
        "\"degraded\": %lld, \"failed\": %lld, "
        "\"deadline_misses\": %lld, "
        "\"load\": %.2f, \"overload\": \"%s\", \"capacity\": %d, "
        "\"served_full\": %lld, \"served_degraded\": %lld, "
        "\"shed_queue_full\": %lld, \"shed_expired\": %lld, "
        "\"failed_permanent\": %lld, \"retried\": %lld, "
        "\"p95_served_queue_seconds\": %.6f}%s\n",
        s.mode.c_str(), s.policy.c_str(), s.workers, s.arrivals,
        s.queries_per_sec,
        s.makespan_seconds, s.mean_queue_seconds, s.p50_queue_seconds,
        s.p95_queue_seconds, static_cast<long long>(s.estimates),
        static_cast<long long>(s.cache_hits),
        static_cast<long long>(s.cache_insertions),
        static_cast<long long>(s.degraded), static_cast<long long>(s.failed),
        static_cast<long long>(s.deadline_misses), s.load, s.overload.c_str(),
        s.capacity, static_cast<long long>(s.served_full),
        static_cast<long long>(s.served_degraded),
        static_cast<long long>(s.shed_queue_full),
        static_cast<long long>(s.shed_expired),
        static_cast<long long>(s.failed_permanent),
        static_cast<long long>(s.retried), s.p95_served_queue_seconds,
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace cote

int main(int argc, char** argv) {
  using namespace cote;
  std::string label = "current";
  std::string out = "BENCH_service.json";
  int arrivals = 240;
  int max_tables = 8;
  std::string mode = "both";
  int async_workers = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--arrivals") == 0 && i + 1 < argc) {
      arrivals = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-tables") == 0 && i + 1 < argc) {
      max_tables = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      async_workers = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--label NAME] [--out FILE] [--arrivals N] "
                   "[--max-tables N] [--mode simulated|async|both] "
                   "[--workers N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (mode != "simulated" && mode != "async" && mode != "both") {
    std::fprintf(stderr, "--mode must be simulated, async, or both\n");
    return 2;
  }
  const bool run_simulated = mode != "async";
  const bool run_async = mode != "simulated";

  bench::Section("Compile-service scheduling (label: " + label + ")");

  const OptimizerOptions options = bench::SerialOptions();
  const TimeModel model = bench::CalibrateTimeModel(options);

  // The mixed pool: chains, stars, random shapes, TPC-H — heterogeneous
  // enough that predicted cost spans ~2 orders of magnitude, which is the
  // spread SJF exploits. --max-tables bounds per-compile cost so the
  // whole bench stays wall-clock cheap.
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  Workload tpch = TpchWorkload();
  std::vector<const QueryGraph*> pool;
  for (const Workload* w : {&linear, &star, &random, &tpch}) {
    for (const QueryGraph& q : w->queries) {
      if (q.num_tables() <= max_tables) pool.push_back(&q);
    }
  }
  std::printf("pool: %zu queries (<= %d tables)\n", pool.size(), max_tables);

  // Size the stream for ~1.2x offered load from the pool's mean predicted
  // compile time.
  const double mean_predicted = MeanPredictedSeconds(pool, options, model);

  ArrivalTraceOptions trace_options;
  trace_options.num_arrivals = arrivals;
  trace_options.mean_gap_seconds = mean_predicted / 1.2;
  trace_options.seed = 42;
  trace_options.deadline_fraction = 0.5;
  trace_options.deadline_slack_min_seconds = 5 * mean_predicted;
  trace_options.deadline_slack_max_seconds = 50 * mean_predicted;
  const std::vector<Submission> trace = MakeOpenLoopTrace(pool, trace_options);
  std::printf(
      "stream: %d arrivals, mean predicted %.4fs, mean gap %.4fs "
      "(offered load ~1.2x)\n\n",
      arrivals, mean_predicted, trace_options.mean_gap_seconds);

  std::vector<Sample> samples;
  const auto record_sample = [&](const char* sample_mode,
                                 SchedulingPolicy policy, int workers,
                                 const ServiceReport& r) {
    Sample s;
    s.mode = sample_mode;
    s.policy = SchedulingPolicyName(policy);
    s.workers = workers;
    s.arrivals = arrivals;
    s.queries_per_sec = r.QueriesPerSecond();
    s.makespan_seconds = r.makespan_seconds;
    s.mean_queue_seconds = r.MeanQueueSeconds();
    std::vector<double> queue;
    queue.reserve(r.records.size());
    for (const ServiceQueryRecord& rec : r.records) {
      queue.push_back(rec.queue_seconds);
    }
    s.p50_queue_seconds = Percentile(queue, 50);
    s.p95_queue_seconds = Percentile(queue, 95);
    s.estimates = r.estimates;
    s.cache_hits = r.cache_hits;
    s.cache_insertions = r.cache_insertions;
    s.degraded = r.degraded;
    s.failed = r.failed;
    s.deadline_misses = r.deadline_misses;
    samples.push_back(s);
    std::printf(
        "%-9s %-5s w=%d %7.1f q/s  makespan=%7.3fs  queue mean=%7.4fs "
        "p50=%7.4fs p95=%7.4fs  est=%lld hit=%lld miss_ddl=%lld\n",
        s.mode.c_str(), s.policy.c_str(), s.workers, s.queries_per_sec,
        s.makespan_seconds, s.mean_queue_seconds, s.p50_queue_seconds,
        s.p95_queue_seconds, static_cast<long long>(s.estimates),
        static_cast<long long>(s.cache_hits),
        static_cast<long long>(s.deadline_misses));
  };

  constexpr SchedulingPolicy kPolicies[] = {
      SchedulingPolicy::kFifo, SchedulingPolicy::kShortestEstimatedFirst,
      SchedulingPolicy::kDeadlineAware};

  size_t simulated_base = 0;
  if (run_simulated) {
    simulated_base = samples.size();
    for (SchedulingPolicy policy : kPolicies) {
      CompileServiceOptions o;
      o.optimizer = options;
      o.time_model = model;
      o.num_workers = 1;
      o.policy = policy;
      o.time_source = ServiceTimeSource::kClock;
      CompileService service(o);
      ServiceReport r = service.Run(trace);
      record_sample("simulated", policy, o.num_workers, r);
    }
  }

  if (run_async) {
    // Live replay: real worker threads, arrivals paced in wall time. The
    // queue seconds here are actual condvar waits, so dispatch-order
    // effects only show once the workers saturate; with --workers above
    // the offered load the async samples mostly measure handoff overhead.
    for (SchedulingPolicy policy : kPolicies) {
      CompileServiceOptions o;
      o.optimizer = options;
      o.time_model = model;
      o.num_workers = async_workers;
      o.policy = policy;
      o.time_source = ServiceTimeSource::kClock;
      AsyncCompileService service(o);
      ServiceReport r = service.Run(trace, /*pace_arrivals=*/true);
      record_sample("async", policy, o.num_workers, r);
    }
  }

  // -------------------------------------------------------------------------
  // Overload sweep (DESIGN.md §16): offered load 0.5x/1x/2x/4x through
  // three front-door configurations, on the virtual clock with
  // estimate-derived service times from the fixed SweepTimeModel, so the
  // load multiplier is exact and the runs replay bit for bit:
  //   unbounded-fifo    the pre-resilience service — no capacity, no
  //                     patience, no retry; every arrival waits forever;
  //   reject            capacity 8, typed refusal at the door, patience
  //                     ladder and one retry for what gets in;
  //   shed-lowest-value capacity 8, evict the worst estimate-derived
  //                     value under pressure, same ladder and retry.
  // The headline column is p95 queue latency of *served* queries: the
  // bounded doors hold it near the queue's drain time at any load, while
  // the unbounded door's grows with offered load — and with trace
  // length, which the overload-growth samples show directly at 2x.
  struct OverloadConfig {
    const char* name;
    OverloadPolicy policy;
    int capacity;
    double patience_factor;
    int max_retries;
  };
  constexpr OverloadConfig kDoors[] = {
      {"unbounded-fifo", OverloadPolicy::kBlock, 0, 0.0, 0},
      {"reject", OverloadPolicy::kReject, 8, 4.0, 1},
      {"shed-lowest-value", OverloadPolicy::kShedLowestValue, 8, 4.0, 1},
  };
  const TimeModel sweep_model = SweepTimeModel();
  const double sweep_mean_predicted =
      MeanPredictedSeconds(pool, options, sweep_model);
  const auto make_sweep_trace = [&](int n, double load) {
    ArrivalTraceOptions t;
    t.num_arrivals = n;
    t.mean_gap_seconds = sweep_mean_predicted / load;
    t.seed = 1234;
    return MakeOpenLoopTrace(pool, t);
  };
  const auto run_overload = [&](const char* sample_mode, double load,
                                const OverloadConfig& door,
                                const std::vector<Submission>& sweep_trace) {
    CompileServiceOptions o;
    o.optimizer = options;
    o.time_model = sweep_model;
    o.num_workers = 1;
    o.policy = SchedulingPolicy::kFifo;
    o.time_source = ServiceTimeSource::kEstimate;
    o.queue_capacity = door.capacity;
    o.overload = door.policy;
    o.max_retries = door.max_retries;
    o.admission.limits_policy.patience_factor = door.patience_factor;
    VirtualClock clock;
    o.clock = &clock;
    o.drive_clock = &clock;
    CompileService service(o);
    ServiceReport r = service.Run(sweep_trace);
    record_sample(sample_mode, o.policy, o.num_workers, r);
    Sample& s = samples.back();
    s.arrivals = static_cast<int>(sweep_trace.size());
    s.load = load;
    s.overload = door.name;
    s.capacity = door.capacity;
    s.served_full = r.taxonomy.served_full;
    s.served_degraded = r.taxonomy.served_degraded;
    s.shed_queue_full = r.taxonomy.shed_queue_full;
    s.shed_expired = r.taxonomy.shed_expired;
    s.failed_permanent = r.taxonomy.failed_permanent;
    s.retried = r.taxonomy.retried;
    s.p95_served_queue_seconds = r.P95ServedQueueSeconds();
    std::printf(
        "  -> %-17s load=%.1fx cap=%d  served=%lld+%lldd shed=%lld+%llde "
        "retried=%lld  p95(served)=%.4fs\n",
        door.name, load, door.capacity,
        static_cast<long long>(s.served_full),
        static_cast<long long>(s.served_degraded),
        static_cast<long long>(s.shed_queue_full),
        static_cast<long long>(s.shed_expired),
        static_cast<long long>(s.retried), s.p95_served_queue_seconds);
    return s.p95_served_queue_seconds;
  };

  const int sweep_arrivals = std::max(40, arrivals / 2);
  std::printf("\noverload sweep (%d arrivals, virtual clock):\n",
              sweep_arrivals);
  for (double load : {0.5, 1.0, 2.0, 4.0}) {
    const std::vector<Submission> sweep_trace =
        make_sweep_trace(sweep_arrivals, load);
    for (const OverloadConfig& door : kDoors) {
      run_overload("overload", load, door, sweep_trace);
    }
  }

  // Growth check at 2x load: double the trace and the unbounded door's
  // served-p95 roughly doubles with it (the queue just keeps deepening),
  // while the bounded shedding door's stays where it was.
  std::printf("\noverload growth at 2.0x load (N vs 2N arrivals):\n");
  double unbounded_p95[2], shed_p95[2];
  for (int i = 0; i < 2; ++i) {
    const std::vector<Submission> sweep_trace =
        make_sweep_trace(sweep_arrivals * (i + 1), 2.0);
    unbounded_p95[i] = run_overload("overload-growth", 2.0, kDoors[0],
                                    sweep_trace);
    shed_p95[i] = run_overload("overload-growth", 2.0, kDoors[2], sweep_trace);
  }
  std::printf(
      "unbounded-fifo p95(served): %.4fs -> %.4fs (x%.2f)   "
      "shed-lowest-value: %.4fs -> %.4fs (x%.2f)\n",
      unbounded_p95[0], unbounded_p95[1],
      unbounded_p95[0] > 0 ? unbounded_p95[1] / unbounded_p95[0] : 0.0,
      shed_p95[0], shed_p95[1],
      shed_p95[0] > 0 ? shed_p95[1] / shed_p95[0] : 0.0);

  if (run_simulated) {
    const Sample& fifo = samples[simulated_base];
    const Sample& sjf = samples[simulated_base + 1];
    std::printf("\nSJF vs FIFO (simulated): p95 queue %.4fs -> %.4fs (%+.1f%%)\n",
                fifo.p95_queue_seconds, sjf.p95_queue_seconds,
                fifo.p95_queue_seconds > 0
                    ? 100.0 * (sjf.p95_queue_seconds - fifo.p95_queue_seconds) /
                          fifo.p95_queue_seconds
                    : 0.0);
    if (sjf.p95_queue_seconds >= fifo.p95_queue_seconds) {
      std::printf("WARNING: SJF did not improve p95 over FIFO on this run\n");
    }
  }

  WriteJson(out, label, samples);
  std::printf("wrote %s (%zu samples)\n", out.c_str(), samples.size());
  return 0;
}
