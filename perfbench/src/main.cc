// The repository benchmark: one binary, three workloads.
//
//   cote_perfbench --workload sql-stream|big-join|service-open-loop
//                  --seed N --seconds S --trace 0|1
//                  [--data DIR] [--out DIR] [--perturb-ref]
//   cote_perfbench --record-refs sql|big-join [--data DIR]
//   cote_perfbench --calibrate [--data DIR]
//
// --trace 0 prints the end-to-end metrics of one untraced run; --trace 1
// runs the workload untraced and then traced for half the time each and
// prints the per-layer metrics of the traced half. The last line of
// standard output is the result object {"correct", "attempted", "failed",
// "metrics"}. DIR defaults to "perfbench" (models/ and refs/ live there);
// traced runs write their spans under --out (default ".bench_build").
// --perturb-ref changes one recorded reference value, so the run must
// report that op as failed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "core/model_io.h"
#include "core/regression.h"
#include "optimizer/optimizer.h"
#include "workload/workload.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per measured run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data = "perfbench";
  std::string out = ".bench_build";
  bool perturb_ref = false;
  std::string record_refs;
  bool calibrate = false;
};

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      a->trace = std::atoi(argv[++i]);
    } else if (flag == "--data" && has_value) {
      a->data = argv[++i];
    } else if (flag == "--out" && has_value) {
      a->out = argv[++i];
    } else if (flag == "--record-refs" && has_value) {
      a->record_refs = argv[++i];
    } else if (flag == "--perturb-ref") {
      a->perturb_ref = true;
    } else if (flag == "--calibrate") {
      a->calibrate = true;
    } else {
      return false;
    }
  }
  return a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

/// The CPUs this process may run on; empty when the mask is unreadable.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string ModelPath(const Args& a, const char* env) {
  return a.data + "/models/" + env + ".model";
}

bool LoadModels(const Args& a, Models* m) {
  for (const char* env : {"serial", "parallel"}) {
    cote::StatusOr<cote::TimeModel> model = cote::LoadTimeModel(ModelPath(a, env));
    if (!model.ok()) {
      std::fprintf(stderr, "time model %s: %s\n", ModelPath(a, env).c_str(),
                   model.status().ToString().c_str());
      return false;
    }
    (std::strcmp(env, "serial") == 0 ? m->serial : m->parallel) = *model;
  }
  return true;
}

/// Fits the §3.5 model the way bench::CalibrateTimeModel does (training
/// workload, median of 3 compiles, no intercept, 1/t weighting) and stores
/// it. Run once; every benchmark run then loads the stored coefficients.
int Calibrate(const Args& a) {
  cote::Workload training = cote::TrainingWorkload();
  for (int par = 0; par < 2; ++par) {
    cote::OptimizerOptions o = par ? cote::OptimizerOptions::Parallel(4)
                                   : cote::OptimizerOptions();
    o.enumeration.max_composite_inner = 2;
    cote::Optimizer opt(o);
    cote::TimeModelCalibrator cal(/*with_intercept=*/false,
                                  /*relative_weighting=*/true);
    for (const cote::QueryGraph& q : training.queries) {
      std::vector<double> times;
      cote::JoinTypeCounts plans;
      for (int rep = 0; rep < 4; ++rep) {
        const int64_t start = NowNs();
        auto r = opt.Optimize(q);
        const int64_t end = NowNs();
        if (!r.ok()) {
          std::fprintf(stderr, "calibration compile failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        plans = r->stats.join_plans_generated;
        if (rep > 0) times.push_back(static_cast<double>(end - start) / 1e9);
      }
      cal.AddObservation(plans, Median(times));
    }
    cote::StatusOr<cote::TimeModel> model = cal.Fit();
    const std::string path = ModelPath(a, par ? "parallel" : "serial");
    if (!model.ok() || !cote::SaveTimeModel(path, *model).ok()) {
      std::fprintf(stderr, "cannot fit or save %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

void PrintModel(const char* env, const cote::TimeModel& m) {
  std::printf("  time model %-8s nljn=%.4g mgjn=%.4g hsjn=%.4g s/plan, "
              "intercept=%.4g s (Cm:Cn:Ch %s)\n",
              env, m.ct[0], m.ct[1], m.ct[2], m.intercept,
              m.RatioString().c_str());
}

void PrintOutcome(const Outcome& o) {
  std::printf("%s", o.metrics.Text().c_str());
  if (!o.notes.empty()) std::printf("%s", o.notes.c_str());
  for (const std::string& f : o.failures) std::printf("  FAILED: %s\n", f.c_str());
}

int Main(int argc, char** argv) {
  const int64_t process_start = NowNs();
  Args a;
  if (!Parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--data DIR] [--out DIR] [--perturb-ref]\n"
                 "       %s --record-refs sql|big-join [--data DIR]\n"
                 "       %s --calibrate [--data DIR]\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  if (a.calibrate) return Calibrate(a);

  RunOptions run;
  run.seed = a.seed;
  run.cpus = AllowedCpus();
  run.nproc = run.cpus.empty()
                  ? static_cast<int>(
                        std::max(1u, std::thread::hardware_concurrency()))
                  : static_cast<int>(run.cpus.size());
  if (!LoadModels(a, &run.models)) return 1;

  if (!a.record_refs.empty()) {
    const std::string path = RefPath(a.data, a.record_refs);
    if (!RecordRefs(a.record_refs, run, path)) return 1;
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  RefTable refs;
  const std::string refs_path =
      RefPath(a.data, RefFamily(a.workload));
  if (refs.Load(refs_path)) {
    if (a.perturb_ref) {
      // The first input of the family, in each mode it is recorded in.
      for (const char* prefix : {"s:", "p:", "g:"}) refs.Perturb(prefix);
    }
    run.refs = &refs;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);
  std::printf("  nproc=%d hardware_threads=%u build=%s\n", run.nproc,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  PrintModel("serial", run.models.serial);
  PrintModel("parallel", run.models.parallel);
  if (run.refs != nullptr) {
    std::printf("  references: %s (%zu ops%s)\n", refs_path.c_str(),
                refs.size(), a.perturb_ref ? ", one value perturbed" : "");
  } else {
    std::printf("  references: none found; plans are checked by "
                "PlanValidator only\n");
  }

  std::unique_ptr<Workload> w;
  const auto setup = [&]() {
    w.reset();
    w = MakeWorkload(a.workload, run);
    if (w != nullptr) w->Setup();
    return w != nullptr;
  };

  Outcome result;
  if (a.trace == 0) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      const int64_t start = i == 0 ? process_start : NowNs();
      if (!setup()) {
        std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
        return 2;
      }
      setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    result.metrics.Add("setup_s", Median(setups), "s",
                       cote::StrFormat("median of %d set-ups", kSetups));
    w->Run(a.seconds, nullptr, &result);
    result.metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("end-to-end:\n");
    PrintOutcome(result);
  } else {
    Outcome untraced;
    if (!setup()) {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return 2;
    }
    w->Run(a.seconds / 2, nullptr, &untraced);
    setup();
    Tracer tracer;
    w->Run(a.seconds / 2, &tracer, &result);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.failures.insert(result.failures.end(), untraced.failures.begin(),
                           untraced.failures.end());
    result.metrics.Add(
        "trace.overhead_pct",
        untraced.op_mean_seconds > 0
            ? 100 * (result.op_mean_seconds - untraced.op_mean_seconds) /
                  untraced.op_mean_seconds
            : 0,
        "%");
    const std::string spans = cote::StrFormat(
        "%s/trace-%s-seed%llu.jsonl", a.out.c_str(), a.workload.c_str(),
        static_cast<unsigned long long>(a.seed));
    std::printf("per-layer (traced half; per op unless noted):\n");
    PrintOutcome(result);
    std::printf("  mean op: untraced %.4f ms, traced %.4f ms\n",
                untraced.op_mean_seconds * 1e3, result.op_mean_seconds * 1e3);
    if (tracer.Write(spans)) {
      std::printf("  %zu spans written to %s\n", tracer.spans().size(),
                  spans.c_str());
    }
  }
  w.reset();
  std::printf("ops attempted=%lld failed=%lld\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  std::printf("%s\n", result.metrics
                          .ResultJson(result.failed == 0 && result.attempted > 0,
                                      result.attempted, result.failed)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
