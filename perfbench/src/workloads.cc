#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "graph_gen.h"
#include "optimizer/enumerator.h"
#include "optimizer/parallel_enumerator.h"
#include "optimizer/plan/plan_validator.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "service/async_executor.h"
#include "session/session.h"
#include "sql_gen.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

using cote::CompilationSession;
using cote::CompileTimeEstimate;
using cote::OptimizeResult;
using cote::OptimizerOptions;
using cote::QueryGraph;
using cote::StageSeconds;
using cote::StatusOr;
using cote::StrFormat;

constexpr double kNsPerSec = 1e9;

/// The percentile of each input's repeats that the end-to-end timings
/// report (Timings). A thread that keeps its CPU busy (a closed loop, or
/// the open loop's client) runs up to a quarter faster for seconds at a
/// time on a shared host: those fast spells are the outliers, so its
/// timings report the upper quartile. The open loop's mostly idle workers
/// meet both fast spells and the queue build-ups of slow spells, and
/// there the median moved least from run to run.
constexpr double kBusyThreadPct = 75;
constexpr double kOpenLoopPct = 50;
constexpr const char* kMethods[] = {"nljn", "mgjn", "hsjn"};
constexpr const char* kLayers[] = {"parser", "session", "optimizer", "core",
                                   "service"};

/// bench::SerialOptions: DP with a composite-inner limit of 2.
OptimizerOptions SerialOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 2;
  return o;
}

/// bench::ParallelOptions: the same level planned for 4 logical nodes.
OptimizerOptions ParallelOptions() {
  OptimizerOptions o = OptimizerOptions::Parallel(4);
  o.enumeration.max_composite_inner = 2;
  return o;
}

/// Enumeration with no visitor work: the enumeration core alone.
class NullVisitor : public cote::JoinVisitor {
 public:
  void InitializeEntry(cote::TableSet) override {}
  double EntryCardinality(cote::TableSet) override { return 1e18; }
  void OnJoin(cote::TableSet, cote::TableSet, const std::vector<int>&,
              bool) override {}
};

/// One NullVisitor per worker of the rank-parallel enumerator.
class NullShards : public cote::ShardedVisitor {
 public:
  explicit NullShards(int workers) : shards_(static_cast<size_t>(workers)) {}
  cote::JoinVisitor* Shard(int worker) override {
    return &shards_[static_cast<size_t>(worker)];
  }
  void SetShardBudget(int, cote::ResourceBudget*) override {}
  void MergeRank() override {}

 private:
  std::vector<NullVisitor> shards_;
};

/// Restricts the calling thread (and the threads it creates from now on)
/// to `cpus`; a no-op for an empty list.
void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double PerOp(double total, int64_t ops) {
  return ops > 0 ? total / static_cast<double>(ops) : 0;
}
double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Everything the per-layer metrics are computed from, summed over the
/// ops of one traced pass. Fields a workload does not reach stay 0.
struct LayerStats {
  int64_t ops = 0;
  int64_t op_ns = 0;  ///< summed op spans
  // parser
  int64_t parse_ns = 0, bind_ns = 0;
  // session: bind/complete/finalize stages of every call, and binds
  StageSeconds stages;
  int64_t cold_binds = 0, warm_binds = 0;
  // optimizer: enumeration core (null-visitor re-run of each op's graph)
  int64_t enum_core_ns = 0, core_joins = 0, core_entries = 0;
  // optimizer: plan generation
  double plan_enumerate_s = 0, gen_s[3] = {0, 0, 0}, save_s = 0;
  int64_t gen_plans[3] = {0, 0, 0}, plans_stored = 0, plans_all = 0;
  int64_t memo_bytes = 0;
  // optimizer: parallel enumeration
  double busy_s = 0, busy_capacity_s = 0;
  // core: plan counter and time model
  double est_enumerate_s = 0;
  int64_t plan_slots = 0;
  double plan_err[3] = {0, 0, 0};
  int64_t plan_err_n[3] = {0, 0, 0};
  double time_err = 0;
  int64_t time_err_n = 0;
  // core: statement cache (deltas over the pass)
  cote::CacheStats cache;
  // service
  int64_t admit_ns = 0;
  std::vector<double> queue_ms;
  double compile_s = 0, worker_capacity_s = 0;
  int64_t compiled = 0;
  StageSeconds worker_stages;
  int64_t drain_ns = 0, drains = 0;
  cote::OutcomeTaxonomy outcomes;
  int64_t budget_trips = 0;
  double lateness_s = 0;
  // trace: self time by layer
  std::map<std::string, int64_t> self_ns;
};

void AddStages(StageSeconds* sum, const StageSeconds& s) {
  sum->bind += s.bind;
  sum->enumerate += s.enumerate;
  sum->complete += s.complete;
  sum->finalize += s.finalize;
}

StageSeconds Minus(const StageSeconds& a, const StageSeconds& b) {
  return StageSeconds{a.bind - b.bind, a.enumerate - b.enumerate,
                      a.complete - b.complete, a.finalize - b.finalize};
}

/// The per-layer metrics. `s` holds what the workload's own ops measured;
/// `plan` the optimizer and plan-counter figures, which on the service
/// come from a replay of its arrivals (on the closed loops, plan == s).
/// A time that reads 0 on some workload is printed but left out of the
/// result object, so every result metric is measured on every workload.
void AddPerLayer(const LayerStats& s, const LayerStats& plan, MetricSet* m) {
  const int64_t n = s.ops;
  const int64_t pn = plan.ops;
  const double op_ms = PerOp(Ms(s.op_ns), n);
  m->AddText("parser.parse_us", PerOp(s.parse_ns / 1e3, n), "us");
  m->AddText("parser.bind_us", PerOp(s.bind_ns / 1e3, n), "us");
  m->Add("session.bind_us", PerOp(s.stages.bind * 1e6, n), "us");
  m->Add("session.complete_us", PerOp(s.stages.complete * 1e6, n), "us");
  m->Add("session.finalize_us", PerOp(s.stages.finalize * 1e6, n), "us");
  m->Add("session.cold_binds", PerOp(static_cast<double>(s.cold_binds), n),
         "count/op", "a fresh graph: the op's first call");
  m->Add("session.warm_binds", PerOp(static_cast<double>(s.warm_binds), n),
         "count/op", "closed loops: Optimize of the graph just estimated");

  const double core_ms = PerOp(Ms(plan.enum_core_ns), pn);
  const double plangen_ms = PerOp(plan.plan_enumerate_s * 1e3, pn) - core_ms;
  m->Add("optimizer.enum_core_ms", core_ms, "ms");
  m->Add("optimizer.enum_core_share", Ratio(core_ms, op_ms), "ratio",
         "of a mean op");
  m->Add("optimizer.joins_ordered",
         PerOp(static_cast<double>(plan.core_joins), pn), "count/op");
  m->Add("optimizer.memo_entries",
         PerOp(static_cast<double>(plan.core_entries), pn), "count/op");
  m->Add("optimizer.plangen_ms", plangen_ms, "ms");
  m->Add("optimizer.plangen_share", Ratio(plangen_ms, op_ms), "ratio",
         "of a mean op");
  for (int k = 0; k < 3; ++k) {
    m->Add(StrFormat("optimizer.gen_ms.%s", kMethods[k]),
           PerOp(plan.gen_s[k] * 1e3, pn), "ms");
  }
  m->Add("optimizer.save_ms", PerOp(plan.save_s * 1e3, pn), "ms");
  for (int k = 0; k < 3; ++k) {
    m->Add(StrFormat("optimizer.plans_generated.%s", kMethods[k]),
           PerOp(static_cast<double>(plan.gen_plans[k]), pn), "count/op");
  }
  m->Add("optimizer.plans_kept_ratio",
         Ratio(static_cast<double>(plan.plans_stored),
               static_cast<double>(plan.plans_all)),
         "ratio");
  m->Add("optimizer.memo_bytes",
         PerOp(static_cast<double>(plan.memo_bytes), pn), "B/op");
  m->Add("optimizer.parallel_busy_share",
         Ratio(plan.busy_s, plan.busy_capacity_s), "ratio");

  m->Add("core.count_ms", PerOp(plan.est_enumerate_s * 1e3, pn) - core_ms,
         "ms");
  m->Add("core.plan_slots", PerOp(static_cast<double>(plan.plan_slots), pn),
         "count/op");
  for (int k = 0; k < 3; ++k) {
    m->Add(StrFormat("core.plan_error_pct.%s", kMethods[k]),
           PerOp(plan.plan_err[k] * 100, plan.plan_err_n[k]), "%");
  }
  m->Add("core.time_error_pct", PerOp(s.time_err * 100, s.time_err_n), "%");
  m->Add("core.cache_hit_ratio",
         Ratio(static_cast<double>(s.cache.hits),
               static_cast<double>(s.cache.hits + s.cache.misses)),
         "ratio");
  m->Add("core.cache_evictions", static_cast<double>(s.cache.evictions),
         "count");
  m->Add("core.cache_rejections",
         static_cast<double>(s.cache.admission_rejections), "count");

  m->AddText("service.admit_us", PerOp(s.admit_ns / 1e3, n), "us");
  m->AddText("service.queue_p50_ms", Percentile(s.queue_ms, 50), "ms");
  const Tail queue = TailOf(s.queue_ms);
  m->AddText("service.queue_tail_ms", queue.value, "ms",
             StrFormat("p%g of %zu", queue.pct, queue.samples));
  m->AddText("service.compile_ms", PerOp(s.compile_s * 1e3, s.compiled), "ms");
  m->Add("service.worker_busy_share", Ratio(s.compile_s, s.worker_capacity_s),
         "ratio");
  m->AddText("service.worker_stage_ms.bind",
             PerOp(s.worker_stages.bind * 1e3, s.compiled), "ms");
  m->AddText("service.worker_stage_ms.enumerate",
             PerOp(s.worker_stages.enumerate * 1e3, s.compiled), "ms");
  m->AddText("service.worker_stage_ms.complete",
             PerOp(s.worker_stages.complete * 1e3, s.compiled), "ms");
  m->AddText("service.worker_stage_ms.finalize",
             PerOp(s.worker_stages.finalize * 1e3, s.compiled), "ms");
  m->AddText("service.drain_ms", PerOp(Ms(s.drain_ns), s.drains), "ms");
  m->Add("service.degraded", static_cast<double>(s.outcomes.served_degraded),
         "count");
  m->Add("service.shed",
         static_cast<double>(s.outcomes.shed_queue_full +
                             s.outcomes.shed_expired),
         "count");
  m->Add("service.failed", static_cast<double>(s.outcomes.failed_permanent),
         "count");
  m->Add("service.retried", static_cast<double>(s.outcomes.retried), "count");
  m->Add("service.budget_trips", static_cast<double>(s.budget_trips), "count");
  m->AddText("service.lateness_ms", PerOp(s.lateness_s * 1e3, n), "ms");

  // Self time by layer, per op and as a share of the op.
  const auto self = [&](const char* layer) -> int64_t {
    auto it = s.self_ns.find(layer);
    return it == s.self_ns.end() ? 0 : it->second;
  };
  for (const char* layer : kLayers) {
    m->AddText(StrFormat("trace.self_ms.%s", layer), PerOp(Ms(self(layer)), n),
               "ms");
    m->Add(StrFormat("trace.self_share.%s", layer),
           Ratio(static_cast<double>(self(layer)),
                 static_cast<double>(s.op_ns)),
           "ratio");
  }
  m->AddText("trace.self_ms.bench", PerOp(Ms(self("bench")), n), "ms",
             "the benchmark's own checks and waits");
  m->AddText("trace.unattributed_ms", PerOp(Ms(self("unattributed")), n),
             "ms");
  m->Add("trace.unattributed_share",
         Ratio(static_cast<double>(self("unattributed")),
               static_cast<double>(s.op_ns)),
         "ratio");
}

/// The end-to-end samples of one untraced pass. Each input's repeats are
/// reduced to one percentile of them (Timings), chosen for the thread that
/// timed them; `estimate_pct` is the client's.
struct EndToEnd {
  EndToEnd(double pct, double estimate_pct)
      : compile(pct), estimate(estimate_pct), light(pct), busy(pct) {}
  Timings compile, estimate;
  Timings light, busy;  ///< due-time latencies
  int64_t on_time = 0, on_time_of = 0;
  double throughput_qps = 0, capacity_qps = 0;
};

void AddEndToEnd(const EndToEnd& e, MetricSet* m) {
  m->AddTimings("compile_p50_ms", "compile_tail_ms", e.compile, "ms");
  m->AddTimings("estimate_p50_ms", "estimate_tail_ms", e.estimate, "ms");
  m->Add("throughput_qps", e.throughput_qps, "ops/s");
  m->AddTimings("latency_p50_ms.light", "latency_tail_ms.light", e.light, "ms");
  m->AddTimings("latency_p50_ms.busy", "latency_tail_ms.busy", e.busy, "ms");
  m->Add("on_time_share.busy",
         Ratio(static_cast<double>(e.on_time),
               static_cast<double>(e.on_time_of)),
         "fraction",
         StrFormat("%lld of %lld", static_cast<long long>(e.on_time),
                   static_cast<long long>(e.on_time_of)));
  m->Add("capacity_qps", e.capacity_qps, "ops/s");
}

/// The benchmark's own check of one compile: an OK, undegraded result
/// whose plan passes PlanValidator, and, where a reference is recorded,
/// the same counts and cost. Empty when correct.
std::string CheckCompile(const QueryGraph& graph,
                         const CompileTimeEstimate& estimate,
                         const StatusOr<OptimizeResult>& result,
                         const OpRef* ref) {
  if (!result.ok()) return "compile failed: " + result.status().ToString();
  if (result->degraded) return "compile degraded";
  if (result->best_plan == nullptr) return "no plan";
  const cote::Status valid =
      cote::PlanValidator(graph).ValidatePlan(result->best_plan);
  if (!valid.ok()) return "invalid plan: " + valid.ToString();
  if (!(std::isfinite(result->stats.best_cost) &&
        result->stats.best_cost > 0)) {
    return "bad plan cost";
  }
  if (ref != nullptr) {
    const std::string d = CompareRef(*ref, MakeRef(estimate, *result));
    if (!d.empty()) return "reference mismatch: " + d;
  }
  return "";
}

/// One session of a closed loop with the model its estimates use. The two
/// graph slots make sure the session never sees a graph object again: the
/// graph it bound last stays alive while the next one is built.
struct Lane {
  Lane(OptimizerOptions opts, const cote::TimeModel& m)
      : options(opts), model(m),
        session(std::make_unique<CompilationSession>(opts)) {}

  const QueryGraph& Hold(QueryGraph graph) {
    slot ^= 1;
    ring[slot] = std::make_unique<QueryGraph>(std::move(graph));
    return *ring[slot];
  }

  /// Frees the graph the next Hold replaces, so that an op timed across
  /// Hold does not pay for freeing a graph two ops old.
  void FreeNext() { ring[slot ^ 1].reset(); }

  OptimizerOptions options;
  cote::TimeModel model;
  std::unique_ptr<CompilationSession> session;
  /// Runs the enumeration-core probe at the session's worker count;
  /// made by the first traced op that needs it.
  std::unique_ptr<cote::ParallelEnumerator> parallel;
  std::unique_ptr<QueryGraph> ring[2];
  int slot = 0;
};

/// Timestamps of one closed-loop op, steady-clock nanoseconds. Between
/// `bound` and `call` the benchmark hands the graph to the session.
struct OpTimes {
  int64_t start = 0, parsed = 0, bound = 0, call = 0, estimated = 0,
          planned = 0, checked = 0;
};

/// The estimate and the compile of one op, and its check.
struct CompiledOp {
  CompileTimeEstimate estimate;
  StageSeconds estimate_stages, plan_stages;
  StatusOr<OptimizeResult> plan = cote::Status::Internal("not run");
  std::string error;
};

/// Adds what the per-layer metrics need from one compiled op.
void Gather(const CompiledOp& op, const Lane& lane, const OpTimes& t,
            LayerStats* stats) {
  const cote::OptimizeStats& ps = op.plan->stats;
  ++stats->ops;
  for (StageSeconds session_part : {op.estimate_stages, op.plan_stages}) {
    session_part.enumerate = 0;
    AddStages(&stats->stages, session_part);
  }
  stats->est_enumerate_s += op.estimate_stages.enumerate;
  stats->plan_enumerate_s += op.plan_stages.enumerate;
  for (int k = 0; k < 3; ++k) {
    stats->gen_s[k] += ps.gen_seconds[k];
    stats->gen_plans[k] += ps.join_plans_generated.counts[k];
    if (ps.join_plans_generated.counts[k] > 0) {
      stats->plan_err[k] +=
          std::fabs(static_cast<double>(op.estimate.plan_estimates.counts[k] -
                                        ps.join_plans_generated.counts[k])) /
          static_cast<double>(ps.join_plans_generated.counts[k]);
      ++stats->plan_err_n[k];
    }
  }
  stats->save_s += ps.save_seconds;
  stats->plans_stored += ps.plans_stored;
  stats->plans_all +=
      ps.join_plans_generated.total() + ps.enforcer_plans + ps.scan_plans;
  stats->memo_bytes += ps.memo_bytes;
  if (ps.parallel_workers > 1) {
    stats->busy_s += ps.enumeration_busy_seconds;
    stats->busy_capacity_s += ps.parallel_workers * op.plan_stages.enumerate;
  }
  stats->plan_slots += op.estimate.plan_slots;
  const double measured =
      static_cast<double>(t.planned - t.estimated) / kNsPerSec;
  stats->time_err +=
      std::fabs(lane.model.EstimateSeconds(op.estimate.plan_estimates) -
                measured) /
      measured;
  ++stats->time_err_n;
}

CompiledOp EstimateAndCompile(Lane& lane, const QueryGraph& graph,
                              const OpRef* ref, OpTimes* t,
                              LayerStats* stats) {
  CompilationSession& session = *lane.session;
  const int64_t rebinds = session.stats().context_rebinds;
  const int64_t warm = session.stats().warm_resets;
  CompiledOp op;
  t->call = NowNs();
  op.estimate = session.Estimate(graph, lane.model);
  t->estimated = NowNs();
  op.estimate_stages = session.stats().last_stages;
  op.plan = session.Optimize(graph);
  t->planned = NowNs();
  op.plan_stages = session.stats().last_stages;
  op.error = CheckCompile(graph, op.estimate, op.plan, ref);
  t->checked = NowNs();
  if (stats != nullptr && op.plan.ok()) {
    Gather(op, lane, *t, stats);
    stats->cold_binds += session.stats().context_rebinds - rebinds;
    stats->warm_binds += session.stats().warm_resets - warm;
  }
  return op;
}

/// Runs `graph` through the enumeration core alone, at the lane's worker
/// count, and adds its time and counts to `stats`. Returns its interval.
std::pair<int64_t, int64_t> ProbeEnumCore(Lane& lane, const QueryGraph& graph,
                                          LayerStats* stats) {
  cote::EnumerationStats es;
  if (lane.options.parallel_workers > 1 && lane.parallel == nullptr) {
    lane.parallel =
        std::make_unique<cote::ParallelEnumerator>(lane.options.parallel_workers);
  }
  const int64_t a = NowNs();
  if (lane.parallel != nullptr) {
    NullShards shards(lane.parallel->workers());
    es = lane.parallel->Run(graph, lane.options.enumeration, &shards, nullptr)
             .stats;
  } else {
    NullVisitor null_visitor;
    es = cote::RunEnumeration(graph, lane.options.enumeration, &null_visitor);
  }
  const int64_t b = NowNs();
  stats->enum_core_ns += b - a;
  stats->core_joins += es.joins_ordered;
  stats->core_entries += es.entries_created;
  return {a, b};
}

/// Spans of one traced closed-loop op, all from timestamps already taken,
/// plus the enumeration-core probe of its graph (outside the op).
void TraceOp(Tracer* tr, int64_t op, const OpTimes& t, const CompiledOp& c,
             Lane& lane, const QueryGraph& graph, LayerStats* stats) {
  const int root = tr->Add("op", -1, op, t.start, t.planned);
  stats->op_ns += t.planned - t.start;
  if (t.parsed > t.start) {
    tr->Add("parser.parse", root, op, t.start, t.parsed);
    tr->Add("parser.bind", root, op, t.parsed, t.bound);
  }
  const int est = tr->Add("session.estimate", root, op, t.call, t.estimated);
  const int64_t est_enum_start =
      t.call + static_cast<int64_t>(c.estimate_stages.bind * kNsPerSec);
  tr->Add("core.count", est, op, est_enum_start,
          est_enum_start +
              static_cast<int64_t>(c.estimate_stages.enumerate * kNsPerSec));
  const int plan =
      tr->Add("session.optimize", root, op, t.estimated, t.planned);
  const int64_t plan_enum_start =
      t.estimated + static_cast<int64_t>(c.plan_stages.bind * kNsPerSec);
  tr->Add("optimizer.enumerate", plan, op, plan_enum_start,
          plan_enum_start +
              static_cast<int64_t>(c.plan_stages.enumerate * kNsPerSec));
  tr->Add("bench.check", -1, op, t.planned, t.checked);
  const auto [a, b] = ProbeEnumCore(lane, graph, stats);
  tr->Add("probe.enum_core", -1, op, a, b);
}

/// Self time by layer of a traced pass, without the benchmark's probes.
void FinishTrace(const Tracer& tr, LayerStats* stats) {
  stats->self_ns = SelfByLayer(tr.spans());
  stats->self_ns.erase("probe");
}

/// One closed-loop op's end-to-end samples.
void Record(const OpTimes& t, int input, double limit_ms, EndToEnd* e) {
  const double compile = Ms(t.planned - t.start);
  e->compile.Add(input, compile);
  e->estimate.Add(input, Ms(t.estimated - t.start));
  // A closed loop has no arrival schedule: each op is due when the client
  // issues it, so its latency is its compile time at either rate.
  e->light.Add(input, compile);
  e->busy.Add(input, compile);
  e->on_time += compile <= limit_ms;
}

// ---------------------------------------------------------------------------
// sql-stream: one thread, closed loop, SQL text to checked plan.

class SqlStream : public Workload {
 public:
  explicit SqlStream(const RunOptions& o) : opts_(o) {}

  void Setup() override {
    catalogs_ = SqlCatalogs::Make();
    order_ = StreamOrder(opts_.seed, kCorpusSize);
    pool_.clear();
    for (int k : order_) pool_.push_back(MakeStatement(k, catalogs_));
    serial_ = std::make_unique<Lane>(SerialOptions(), opts_.models.serial);
    parallel_ =
        std::make_unique<Lane>(ParallelOptions(), opts_.models.parallel);
    // Warm both sessions on one block of templates outside the corpus.
    Outcome scratch;
    for (int i = 0; i < 20; ++i) {
      const Statement st =
          MakeStatement(kWarmTemplates + i, catalogs_);
      RunOne(st, -1, nullptr, nullptr, nullptr, &scratch);
    }
  }

  void Run(double seconds, Tracer* tr, Outcome* out) override {
    EndToEnd e(kBusyThreadPct, kBusyThreadPct);
    LayerStats stats;
    const int64_t begin = NowNs();
    const int64_t end = begin + static_cast<int64_t>(seconds * kNsPerSec);
    int64_t ops = 0;
    double op_seconds = 0;
    // Whole passes over the corpus, so every run weighs each template alike.
    // Each pass runs on the next CPU in turn: on a shared host the CPUs
    // differ in speed from minute to minute, and a loop left on one of them
    // would measure that CPU rather than the program.
    size_t pass = 0;
    do {
      if (!opts_.cpus.empty()) {
        PinThisThread({opts_.cpus[pass++ % opts_.cpus.size()]});
      }
      for (size_t i = 0; i < pool_.size(); ++i) {
        OpTimes t;
        const bool ok = RunOne(pool_[i], order_[i], &t, tr,
                               tr != nullptr ? &stats : nullptr, out);
        ++ops;
        op_seconds += static_cast<double>(t.planned - t.start) / kNsPerSec;
        if (ok) Record(t, order_[i], kSqlStreamLimit * 1e3, &e);
        ++e.on_time_of;
      }
    } while (NowNs() < end);
    const double wall = static_cast<double>(NowNs() - begin) / kNsPerSec;
    out->op_mean_seconds = PerOp(op_seconds, ops);
    if (tr != nullptr) {
      FinishTrace(*tr, &stats);
      AddPerLayer(stats, stats, &out->metrics);
      return;
    }
    e.throughput_qps = static_cast<double>(ops) / wall;
    e.capacity_qps = static_cast<double>(ops) / op_seconds;
    AddEndToEnd(e, &out->metrics);
  }

 private:
  /// One op; `input` < 0 marks a warm-up statement (no reference).
  bool RunOne(const Statement& st, int input, OpTimes* times, Tracer* tr,
              LayerStats* stats, Outcome* out) {
    OpTimes local;
    OpTimes& t = times != nullptr ? *times : local;
    Lane& lane = st.parallel ? *parallel_ : *serial_;
    ++out->attempted;
    lane.FreeNext();
    t.start = NowNs();
    StatusOr<cote::ast::SelectStatement> ast = cote::Parser::Parse(st.sql);
    t.parsed = NowNs();
    if (!ast.ok()) {
      t.bound = t.estimated = t.planned = t.checked = t.parsed;
      out->Fail("parse: " + ast.status().ToString() + " in " + st.sql);
      return false;
    }
    StatusOr<QueryGraph> bound =
        cote::Binder(catalogs_.Get(st.catalog)).Bind(*ast);
    t.bound = NowNs();
    if (!bound.ok()) {
      t.estimated = t.planned = t.checked = t.bound;
      out->Fail("bind: " + bound.status().ToString() + " in " + st.sql);
      return false;
    }
    const QueryGraph& graph = lane.Hold(std::move(bound).value());
    const OpRef* ref = nullptr;
    if (input >= 0 && opts_.refs != nullptr) {
      ref = opts_.refs->Find(
          StrFormat("%c:%d", st.parallel ? 'p' : 's', input));
    }
    const CompiledOp c = EstimateAndCompile(lane, graph, ref, &t, stats);
    if (stats != nullptr) {
      stats->parse_ns += t.parsed - t.start;
      stats->bind_ns += t.bound - t.parsed;
    }
    if (tr != nullptr) TraceOp(tr, input, t, c, lane, graph, stats);
    if (!c.error.empty()) {
      out->Fail(StrFormat("statement %d: %s", input, c.error.c_str()));
      return false;
    }
    return true;
  }

  RunOptions opts_;
  SqlCatalogs catalogs_;
  std::vector<int> order_;       ///< template of each pool_ entry
  std::vector<Statement> pool_;  ///< the corpus in this seed's order
  std::unique_ptr<Lane> serial_, parallel_;
};

// ---------------------------------------------------------------------------
// big-join: one client thread, closed loop, large join graphs on a session
// whose enumeration runs on nproc workers. It is not listed in
// BENCHMARK.json: on a shared 4-vCPU host its barrier-synchronised workers
// ran 2x slower for minutes at a time, so its medians moved 2x between
// runs. Run it by name for the per-layer figures of the rank-parallel
// enumerator.

class BigJoin : public Workload {
 public:
  explicit BigJoin(const RunOptions& o) : opts_(o) {}

  void Setup() override {
    catalog_ = cote::MakeSyntheticCatalog(kMaxGraphTables);
    pool_ = BigJoinPool(opts_.seed);
    OptimizerOptions options = SerialOptions();
    options.parallel_workers = opts_.nproc;
    lane_ = std::make_unique<Lane>(options, opts_.models.serial);
    // Warm the session and its worker team on the pool's 10-table stars
    // (fresh graph objects, as every op gets): the first compiles on a
    // new team run several times slower than later ones.
    Outcome scratch;
    for (const GraphSpec& spec : pool_) {
      if (spec.shape == "star" && spec.tables == 10) {
        RunOne(spec, -1, nullptr, nullptr, nullptr, &scratch);
      }
    }
  }

  void Run(double seconds, Tracer* tr, Outcome* out) override {
    EndToEnd e(kBusyThreadPct, kBusyThreadPct);
    LayerStats stats;
    const int64_t begin = NowNs();
    const int64_t end = begin + static_cast<int64_t>(seconds * kNsPerSec);
    int64_t ops = 0;
    double op_seconds = 0;
    // Whole passes over the pool, so every run weighs each graph alike.
    do {
      for (size_t k = 0; k < pool_.size(); ++k) {
        OpTimes t;
        const bool ok = RunOne(pool_[k], static_cast<int>(k), &t, tr,
                               tr != nullptr ? &stats : nullptr, out);
        ++ops;
        op_seconds += static_cast<double>(t.planned - t.start) / kNsPerSec;
        if (ok) Record(t, static_cast<int>(k), kBigJoinLimit * 1e3, &e);
        ++e.on_time_of;
      }
    } while (NowNs() < end);
    const double wall = static_cast<double>(NowNs() - begin) / kNsPerSec;
    out->op_mean_seconds = PerOp(op_seconds, ops);
    if (tr != nullptr) {
      FinishTrace(*tr, &stats);
      AddPerLayer(stats, stats, &out->metrics);
      out->notes += ShapeTable();
      return;
    }
    e.throughput_qps = static_cast<double>(ops) / wall;
    e.capacity_qps = static_cast<double>(ops) / op_seconds;
    AddEndToEnd(e, &out->metrics);
  }

 private:
  struct ShapeSums {
    int64_t ops = 0;
    int64_t estimate_ns = 0, enum_core_ns = 0, compile_ns = 0;
  };

  bool RunOne(const GraphSpec& spec, int input, OpTimes* times, Tracer* tr,
              LayerStats* stats, Outcome* out) {
    OpTimes local;
    OpTimes& t = times != nullptr ? *times : local;
    ++out->attempted;
    StatusOr<QueryGraph> built = BuildGraph(*catalog_, spec);
    if (!built.ok()) {
      t = OpTimes{};
      out->Fail("graph build: " + built.status().ToString());
      return false;
    }
    const QueryGraph& graph = lane_->Hold(std::move(built).value());
    const OpRef* ref =
        input >= 0 && opts_.refs != nullptr
            ? opts_.refs->Find("g:" + spec.Name())
            : nullptr;
    t.start = t.parsed = t.bound = NowNs();
    const CompiledOp c = EstimateAndCompile(*lane_, graph, ref, &t, stats);
    if (tr != nullptr) {
      const int64_t core_before = stats->enum_core_ns;
      TraceOp(tr, input, t, c, *lane_, graph, stats);
      ShapeSums& s = shapes_[spec.shape];
      ++s.ops;
      s.estimate_ns += t.estimated - t.start;
      s.enum_core_ns += stats->enum_core_ns - core_before;
      s.compile_ns += t.planned - t.start;
    }
    if (!c.error.empty()) {
      out->Fail(StrFormat("graph %s: %s", spec.Name().c_str(),
                          c.error.c_str()));
      return false;
    }
    return true;
  }

  std::string ShapeTable() const {
    std::string s =
        "  per shape (traced): ops  estimate_ms  enum_core_ms  compile_ms\n";
    for (const auto& [shape, v] : shapes_) {
      s += StrFormat("    %-6s %5lld %12.3f %13.3f %11.3f\n", shape.c_str(),
                     static_cast<long long>(v.ops),
                     PerOp(Ms(v.estimate_ns), v.ops),
                     PerOp(Ms(v.enum_core_ns), v.ops),
                     PerOp(Ms(v.compile_ns), v.ops));
    }
    return s;
  }

  RunOptions opts_;
  std::shared_ptr<cote::Catalog> catalog_;
  std::vector<GraphSpec> pool_;
  std::unique_ptr<Lane> lane_;
  std::map<std::string, ShapeSums> shapes_;
};

// ---------------------------------------------------------------------------
// service-open-loop: one client thread submits corpus statements on a
// seeded Poisson schedule into AsyncCompileService.

class ServiceOpenLoop : public Workload {
 public:
  explicit ServiceOpenLoop(const RunOptions& o) : opts_(o) {}

  void Setup() override {
    using C = ServiceConfig;
    catalogs_ = SqlCatalogs::Make();
    statements_.clear();
    stream_.clear();
    for (int i = 0; i < kCorpusSize; ++i) {
      statements_.push_back(MakeStatement(i, catalogs_));
      if (statements_.back().tables <= C::kMaxTables) stream_.push_back(i);
    }
    // The hot set is the same templates for every seed, so the seed does
    // not change how much work the repeats bring.
    hot_.clear();
    for (int k = 0; k < kCorpusSize && static_cast<int>(hot_.size()) < C::kHotSet;
         ++k) {
      const int tables = statements_[static_cast<size_t>(k)].tables;
      if (tables >= C::kHotMinTables && tables <= C::kMaxTables) {
        hot_.push_back(k);
      }
    }
    cote::CompileServiceOptions o;
    o.optimizer = SerialOptions();
    o.time_model = opts_.models.serial;
    o.num_workers = std::max(1, opts_.nproc - 1);
    o.policy = cote::SchedulingPolicy::kShortestEstimatedFirst;
    o.time_source = cote::ServiceTimeSource::kClock;
    o.enable_cache = true;
    o.cache_capacity = C::kCacheCapacity;
    o.cache_admission_threshold_seconds = C::kCacheThreshold;
    o.admission.derive_limits = true;
    service_.reset();
    // The workers, made in the service's constructor, inherit the calling
    // thread's CPUs: all of them, whichever one Run left the client on.
    PinThisThread(opts_.cpus);
    service_ = std::make_unique<cote::AsyncCompileService>(o);
    spin_ = static_cast<int>(opts_.cpus.size()) > o.num_workers;
    graphs_.clear();
    replay_ = std::make_unique<Lane>(SerialOptions(), opts_.models.serial);
    // Warm every worker session on templates outside the corpus.
    std::vector<Arrival> warm;
    for (int i = 0; i < 6 * o.num_workers; ++i) {
      warm.push_back(Arrival{0, kWarmTemplates + i, 0});
    }
    Outcome scratch;
    RunTotals ignored;
    RunBurst(warm, /*hold=*/true, &ignored, &scratch);
  }

  void Run(double seconds, Tracer* tr, Outcome* out) override {
    using C = ServiceConfig;
    RunTotals pass;
    pass.tracer = tr;
    const cote::CacheStats cache0 = service_->cache()->Stats();
    cote::Rng rng(opts_.seed * 0x2545f4914f6cdd1dULL + 7);

    // The two open-loop rates: the arrival mix of each on a seeded Poisson
    // schedule, cut into windows that are each submitted and then drained
    // (Drain is where the service applies its feedback). Windows of the
    // two rates alternate, and capacity bursts go before, between and
    // after them, so a slow spell of the machine lands on all three
    // measurements alike rather than on one of them whole.
    std::vector<std::vector<Arrival>> windows[2];
    int64_t completed = 0;
    for (int phase = 1; phase <= 2; ++phase) {
      const double rate = phase == 1 ? C::kLightRate : C::kBusyRate;
      const int passes = std::max(
          1, static_cast<int>(std::lround(
                 C::kPhaseShare * seconds * rate * (1 - C::kHotShare) /
                 static_cast<double>(stream_.size()))));
      double due = 0;
      for (Arrival& a : Mix(passes, phase, rng)) {
        due -= std::log(1.0 - rng.NextDouble()) / rate;
        const size_t w = static_cast<size_t>(due / C::kWindowSeconds);
        if (windows[phase - 1].size() <= w) windows[phase - 1].resize(w + 1);
        a.due = due - static_cast<double>(w) * C::kWindowSeconds;
        windows[phase - 1][w].push_back(a);
        ++completed;
      }
    }
    // Capacity: the arrival mix queued whole behind held workers, once
    // before the open-loop windows and once after each round of them.
    // Each worker completes compiles at the rate its own busy time allows,
    // so the pool's rate is workers / mean compile time of the mix, each
    // input's compile time taken over all the bursts as below.
    std::vector<Arrival> mix;
    const auto capacity_burst = [&]() {
      mix = Mix(1, 0, rng);
      RunBurst(mix, /*hold=*/true, &pass, out);
    };
    const size_t rounds = std::max(windows[0].size(), windows[1].size());
    double open_wall = 0;
    capacity_burst();
    size_t window = 0;
    for (size_t w = 0; w < rounds; ++w) {
      for (std::vector<std::vector<Arrival>>& phase : windows) {
        if (w >= phase.size()) continue;
        // Each window's client runs on the next CPU in turn: on a shared
        // host one CPU can run slow for minutes, and a client left on it
        // falls behind its schedule for the whole run.
        if (!opts_.cpus.empty()) {
          PinThisThread({opts_.cpus[window++ % opts_.cpus.size()]});
        }
        const double start = Now() + 0.002;
        for (Arrival& a : phase[w]) a.due += start;
        RunBurst(phase[w], /*hold=*/false, &pass, out);
        open_wall += Now() - start;
      }
      capacity_burst();
    }
    double mix_seconds = 0;
    for (const Arrival& a : mix) {
      mix_seconds += pass.burst_compile.Of(a.statement) / 1e3;
    }
    pass.e.capacity_qps =
        Ratio(static_cast<double>(mix.size() * service_->pool().num_workers()),
              mix_seconds);
    pass.e.throughput_qps = static_cast<double>(completed) / open_wall;

    LayerStats& stats = pass.stats;
    stats.worker_capacity_s = open_wall * service_->pool().num_workers();
    const cote::CacheStats cache1 = service_->cache()->Stats();
    stats.cache.hits = cache1.hits - cache0.hits;
    stats.cache.misses = cache1.misses - cache0.misses;
    stats.cache.evictions = cache1.evictions - cache0.evictions;
    stats.cache.admission_rejections =
        cache1.admission_rejections - cache0.admission_rejections;
    out->op_mean_seconds = PerOp(pass.client_seconds, pass.client_ops);
    if (tr == nullptr) {
      AddEndToEnd(pass.e, &out->metrics);
      out->metrics.AddText("service.lateness_ms",
                           PerOp(stats.lateness_s * 1e3, stats.ops), "ms",
                           "mean; the load generator behind schedule");
      return;
    }
    FinishTrace(*tr, &stats);
    // Worker compiles carry no per-call stage split: move the summed stage
    // times of the pool sessions from the service span into the session
    // and optimizer layers.
    const StageSeconds& w = stats.worker_stages;
    const int64_t session_ns =
        static_cast<int64_t>((w.bind + w.complete + w.finalize) * kNsPerSec);
    const int64_t enum_ns = static_cast<int64_t>(w.enumerate * kNsPerSec);
    stats.self_ns["service"] -= session_ns + enum_ns;
    stats.self_ns["session"] += session_ns;
    stats.self_ns["optimizer"] += enum_ns;
    // The workers report no OptimizeStats: replay every fourth open-loop
    // arrival's graph on a client-side session of the same options, after
    // the timed phases, for the optimizer and plan-counter figures.
    LayerStats replay;
    for (size_t i = 0; i < pass.replay.size(); i += 4) {
      const QueryGraph& graph = *pass.replay[i];
      OpTimes t;
      t.start = NowNs();
      const CompiledOp c =
          EstimateAndCompile(*replay_, graph, nullptr, &t, &replay);
      ProbeEnumCore(*replay_, graph, &replay);
      if (!c.error.empty()) out->Fail("replay: " + c.error);
    }
    out->notes += StrFormat(
        "  optimizer.* and core.count_ms/plan_*: a replay of %lld arrivals "
        "on a client-side session\n",
        static_cast<long long>(replay.ops));
    AddPerLayer(stats, replay, &out->metrics);
  }

 private:
  struct Arrival {
    double due;     ///< scheduled arrival, service-clock seconds (0: burst)
    int statement;  ///< corpus template (>= kWarmTemplates: warm-up)
    int phase;      ///< 0 burst / warm-up, 1 light, 2 busy
  };

  /// What the bursts of one Run add up.
  struct RunTotals {
    Tracer* tracer = nullptr;
    EndToEnd e{kOpenLoopPct, kBusyThreadPct};  ///< estimate: client-side
    LayerStats stats;
    double client_seconds = 0;
    int64_t client_ops = 0;
    int64_t traced_ops = 0;
    std::vector<const QueryGraph*> replay;  ///< open-loop arrivals' graphs
    /// Compile ms of the capacity bursts' inputs, by their medians.
    Timings burst_compile;
  };

  static double Now() { return cote::SystemClock::Get()->NowSeconds(); }

  /// The arrival mix of one phase: `passes` whole passes over the stream
  /// plus the hot-set repeats that make up kHotShare of the arrivals, in
  /// seeded order. Only the order depends on the seed.
  std::vector<Arrival> Mix(int passes, int phase, cote::Rng& rng) const {
    std::vector<Arrival> all;
    for (int p = 0; p < passes; ++p) {
      for (int k : stream_) all.push_back(Arrival{0, k, phase});
    }
    const size_t hot = static_cast<size_t>(
        std::lround(static_cast<double>(all.size()) *
                    ServiceConfig::kHotShare / (1 - ServiceConfig::kHotShare)));
    for (size_t i = 0; i < hot; ++i) {
      all.push_back(Arrival{0, hot_[i % hot_.size()], phase});
    }
    rng.Shuffle(&all);
    return all;
  }

  /// Submits `arrivals` (on schedule unless `hold`, in which case the
  /// workers are held until every one is queued) and drains them.
  void RunBurst(const std::vector<Arrival>& arrivals, bool hold,
                RunTotals* pass, Outcome* out) {
    /// The client's timestamps of one arrival. It parses and binds the
    /// statement before the arrival is due (a client arrives with its
    /// query in hand), then submits it on schedule.
    struct ClientTimes {
      double start = 0, parsed = 0, bound = 0, submit = 0, submitted = 0;
      const QueryGraph* graph = nullptr;
      int ticket = -1;
      /// Parse, bind and admission: the client's own time for it.
      double Busy() const { return (bound - start) + (submitted - submit); }
    };
    LayerStats& stats = pass->stats;
    std::vector<ClientTimes> d(arrivals.size());
    std::vector<double> submit_return, arrival_offset;
    cote::SessionPool& pool = service_->pool();
    std::vector<cote::CompilationStats> before;
    for (int w = 0; w < pool.num_workers(); ++w) {
      before.push_back(pool.session(w).stats());
    }
    if (hold) service_->HoldWorkers();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const Statement st =
          a.statement < kCorpusSize
              ? statements_[static_cast<size_t>(a.statement)]
              : MakeStatement(a.statement, catalogs_);
      ++out->attempted;
      d[i].start = Now();
      StatusOr<cote::ast::SelectStatement> ast = cote::Parser::Parse(st.sql);
      d[i].parsed = Now();
      StatusOr<QueryGraph> bound =
          ast.ok() ? cote::Binder(catalogs_.Get(st.catalog)).Bind(*ast)
                   : StatusOr<QueryGraph>(ast.status());
      d[i].bound = Now();
      if (!bound.ok()) {
        out->Fail("parse/bind: " + bound.status().ToString());
        continue;
      }
      graphs_.push_back(std::make_unique<QueryGraph>(std::move(bound).value()));
      d[i].graph = graphs_.back().get();
      if (!hold) WaitUntil(a.due);
      d[i].submit = Now();
      cote::Submission sub;
      sub.query = d[i].graph;
      d[i].ticket = static_cast<int>(service_->Submit(sub));
      d[i].submitted = Now();
      submit_return.push_back(d[i].submitted);
    }
    if (hold) service_->ReleaseWorkers();
    const int64_t drain_start = NowNs();
    cote::ServiceReport report = service_->Drain();
    const int64_t drain_end = NowNs();
    for (const cote::ServiceQueryRecord& r : report.records) {
      arrival_offset.push_back(r.arrival_seconds);
    }
    const double epoch = BurstEpoch(submit_return, arrival_offset);
    const bool measured =
        !arrivals.empty() && arrivals[0].statement < kWarmTemplates;

    EndToEnd& e = pass->e;
    Tracer* tr = pass->tracer;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      if (d[i].ticket < 0) continue;
      const cote::ServiceQueryRecord& r =
          report.records[static_cast<size_t>(d[i].ticket)];
      const Arrival& a = arrivals[i];
      const double finish = epoch + r.finish_seconds;
      const std::string error = CheckRecord(r, a.statement);
      if (!error.empty()) out->Fail(error);
      if (!measured) continue;
      pass->client_seconds += d[i].Busy();
      ++pass->client_ops;
      e.estimate.Add(a.statement, d[i].Busy() * 1e3);
      if (r.worker >= 0) {
        e.compile.Add(a.statement, r.service_seconds * 1e3);
        if (a.phase == 0) {
          pass->burst_compile.Add(a.statement, r.service_seconds * 1e3);
        }
      }
      if (a.phase == 0) continue;
      const double latency = DueLatency(a.due, epoch, r);
      (a.phase == 1 ? e.light : e.busy).Add(a.statement, latency * 1e3);
      if (a.phase == 2) {
        ++e.on_time_of;
        e.on_time += OnTime(r, latency, ServiceConfig::kLatencyLimit);
      }
      // Per-layer sums cover the open-loop arrivals only.
      pass->replay.push_back(d[i].graph);
      ++stats.ops;
      stats.op_ns += static_cast<int64_t>(latency * kNsPerSec);
      stats.parse_ns +=
          static_cast<int64_t>((d[i].parsed - d[i].start) * kNsPerSec);
      stats.bind_ns +=
          static_cast<int64_t>((d[i].bound - d[i].parsed) * kNsPerSec);
      stats.admit_ns +=
          static_cast<int64_t>((d[i].submitted - d[i].submit) * kNsPerSec);
      stats.lateness_s += d[i].submit - a.due;
      stats.queue_ms.push_back(r.queue_seconds * 1e3);
      if (r.worker >= 0) {
        stats.compile_s += r.service_seconds;
        ++stats.compiled;
      }
      stats.budget_trips += r.budget_tripped;
      if (r.estimated && r.status.ok() && !r.degraded &&
          r.service_seconds > 0) {
        stats.time_err += std::fabs(r.predicted_seconds - r.service_seconds) /
                          r.service_seconds;
        ++stats.time_err_n;
      }
      if (tr != nullptr) {
        const auto ns = [&](double s) {
          return static_cast<int64_t>(s * kNsPerSec) + ns_offset_;
        };
        const int64_t op = pass->traced_ops++;
        // Parse and bind ran before the arrival was due: they are the
        // client's, outside the op, and appear as parser.*_us only.
        const int root = tr->Add("op", -1, op, ns(a.due), ns(finish));
        tr->Add("bench.lateness", root, op, ns(a.due), ns(d[i].submit));
        tr->Add("service.submit", root, op, ns(d[i].submit),
                ns(d[i].submitted));
        const double start = std::max(epoch + r.start_seconds, d[i].submitted);
        tr->Add("service.queue", root, op, ns(d[i].submitted), ns(start));
        tr->Add("service.compile", root, op, ns(start), ns(finish));
      }
    }
    if (measured && arrivals[0].phase > 0) {
      stats.drain_ns += drain_end - drain_start;
      ++stats.drains;
      const cote::OutcomeTaxonomy& t = report.taxonomy;
      stats.outcomes.served_full += t.served_full;
      stats.outcomes.served_degraded += t.served_degraded;
      stats.outcomes.shed_queue_full += t.shed_queue_full;
      stats.outcomes.shed_expired += t.shed_expired;
      stats.outcomes.failed_permanent += t.failed_permanent;
      stats.outcomes.retried += t.retried;
      // Drain has returned, so every worker is parked: its stats are stable.
      for (int w = 0; w < pool.num_workers(); ++w) {
        const cote::CompilationStats& now = pool.session(w).stats();
        const cote::CompilationStats& was = before[static_cast<size_t>(w)];
        const StageSeconds delta =
            Minus(now.cumulative_stages, was.cumulative_stages);
        AddStages(&stats.worker_stages, delta);
        StageSeconds session_part = delta;
        session_part.enumerate = 0;
        AddStages(&stats.stages, session_part);
        stats.cold_binds += now.context_rebinds - was.context_rebinds;
        stats.warm_binds += now.warm_resets - was.warm_resets;
      }
      if (tr != nullptr) {
        tr->Add("service.drain", -1, -1, drain_start, drain_end);
      }
    }
  }

  /// A shed arrival or a non-OK status fails; so does an estimated
  /// arrival whose admission prediction is not the pinned model applied
  /// to the recorded plan estimates.
  std::string CheckRecord(const cote::ServiceQueryRecord& r,
                          int statement) const {
    if (r.outcome == cote::ServiceOutcome::kShedQueueFull ||
        r.outcome == cote::ServiceOutcome::kShedExpired) {
      return StrFormat("statement %d shed: %s", statement,
                       r.status.ToString().c_str());
    }
    if (!r.status.ok()) {
      return StrFormat("statement %d failed: %s", statement,
                       r.status.ToString().c_str());
    }
    const OpRef* ref = opts_.refs != nullptr
                           ? opts_.refs->Find(StrFormat("s:%d", statement))
                           : nullptr;
    if (ref != nullptr && r.estimated) {
      cote::JoinTypeCounts counts;
      for (int k = 0; k < 3; ++k) counts.counts[k] = ref->est_plans[k];
      const double want = opts_.models.serial.EstimateSeconds(counts);
      if (want != r.predicted_seconds) {
        return StrFormat(
            "statement %d: reference mismatch: admission predicted %.17g s, "
            "reference %.17g s",
            statement, r.predicted_seconds, want);
      }
    }
    return "";
  }

  /// Waits until `due`: spinning when a CPU is left over for the client,
  /// since a sleeping client wakes late whenever the host is busy (a
  /// virtual CPU left idle may wait milliseconds for the host to run it
  /// again) and that lateness would count in every latency after it. A
  /// spinning client's CPU is never idle, so workers are woken elsewhere.
  /// With no CPU to spare it sleeps instead.
  void WaitUntil(double due) const {
    for (double wait = due - Now(); wait > 0; wait = due - Now()) {
      if (!spin_) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    }
  }

  RunOptions opts_;
  SqlCatalogs catalogs_;
  std::vector<Statement> statements_;  ///< the corpus, by template
  std::vector<int> stream_;            ///< templates the service is sent
  std::vector<int> hot_;               ///< templates of the hot set
  std::unique_ptr<cote::AsyncCompileService> service_;
  bool spin_ = false;  ///< the client spins to each due time
  /// Every graph submitted in a pass, kept alive so no session is ever
  /// handed an address it has bound before.
  std::vector<std::unique_ptr<QueryGraph>> graphs_;
  std::unique_ptr<Lane> replay_;
  /// NowNs() minus the service clock in nanoseconds (both steady_clock).
  const int64_t ns_offset_ =
      NowNs() - static_cast<int64_t>(Now() * kNsPerSec);
};

}  // namespace

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(what);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunOptions& options) {
  if (name == "sql-stream") return std::make_unique<SqlStream>(options);
  if (name == "big-join") return std::make_unique<BigJoin>(options);
  if (name == "service-open-loop") {
    return std::make_unique<ServiceOpenLoop>(options);
  }
  return nullptr;
}

std::string RefFamily(const std::string& workload) {
  return workload == "big-join" ? "big-join" : "sql";
}

std::string RefPath(const std::string& data, const std::string& family) {
  return data + "/refs/" + family + ".txt";
}

bool RecordRefs(const std::string& family, const RunOptions& options,
                const std::string& path) {
  RefTable table;
  const auto record = [&](Lane& lane, const QueryGraph& graph,
                          const std::string& key) {
    OpTimes t;
    const CompiledOp c = EstimateAndCompile(lane, graph, nullptr, &t, nullptr);
    if (!c.error.empty()) {
      std::fprintf(stderr, "%s: %s\n", key.c_str(), c.error.c_str());
      return false;
    }
    table.Put(key, MakeRef(c.estimate, *c.plan));
    return true;
  };
  if (family == "big-join") {
    auto catalog = cote::MakeSyntheticCatalog(kMaxGraphTables);
    OptimizerOptions o = SerialOptions();
    o.parallel_workers = options.nproc;
    Lane lane(o, options.models.serial);
    const std::vector<GraphSpec> pool = BigJoinPool(/*seed=*/0);
    for (size_t k = 0; k < pool.size(); ++k) {
      StatusOr<QueryGraph> g = BuildGraph(*catalog, pool[k]);
      if (!g.ok() || !record(lane, lane.Hold(std::move(g).value()),
                             "g:" + pool[k].Name())) {
        return false;
      }
    }
  } else {
    const SqlCatalogs catalogs = SqlCatalogs::Make();
    Lane serial(SerialOptions(), options.models.serial);
    Lane parallel(ParallelOptions(), options.models.parallel);
    for (int i = 0; i < kCorpusSize; ++i) {
      const Statement st = MakeStatement(i, catalogs);
      for (bool par : {false, true}) {
        // Every template serially (the service compiles all of them that
        // way), and sql-stream's 4-node templates in that mode as well.
        if (par && !st.parallel) continue;
        StatusOr<QueryGraph> g =
            cote::Binder::BindSql(catalogs.Get(st.catalog), st.sql);
        Lane& lane = par ? parallel : serial;
        if (!g.ok() || !record(lane, lane.Hold(std::move(g).value()),
                               StrFormat("%c:%d", par ? 'p' : 's', i))) {
          return false;
        }
      }
    }
  }
  return table.Save(
      path, StrFormat("# perfbench references: %s inputs, for every seed\n"
                      "# key est_joins est_entries est_nljn est_mgjn est_hsjn "
                      "opt_joins opt_entries gen_nljn gen_mgjn gen_hsjn "
                      "best_cost\n",
                      family.c_str()));
}

}  // namespace perfbench
