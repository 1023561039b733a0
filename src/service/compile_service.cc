#include "service/compile_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"

namespace cote {

namespace {

/// p95 of queue_seconds over records passing `served_only` filtering.
double P95Queue(const std::vector<ServiceQueryRecord>& records,
                bool served_only) {
  std::vector<double> q;
  q.reserve(records.size());
  for (const ServiceQueryRecord& r : records) {
    if (served_only && r.outcome != ServiceOutcome::kServedFull &&
        r.outcome != ServiceOutcome::kServedDegraded) {
      continue;
    }
    q.push_back(r.queue_seconds);
  }
  if (q.empty()) return 0;
  std::sort(q.begin(), q.end());
  // Nearest-rank p95: smallest value ≥ 95% of the sample.
  const size_t rank = (q.size() * 95 + 99) / 100;  // ceil(0.95 n)
  return q[rank == 0 ? 0 : rank - 1];
}

}  // namespace

double ServiceReport::MeanQueueSeconds() const {
  if (records.empty()) return 0;
  double sum = 0;
  // det-ok: record-order fold of timeline arithmetic, order pinned by Run
  for (const ServiceQueryRecord& r : records) sum += r.queue_seconds;
  return sum / static_cast<double>(records.size());
}

double ServiceReport::P95QueueSeconds() const {
  return P95Queue(records, /*served_only=*/false);
}

double ServiceReport::P95ServedQueueSeconds() const {
  return P95Queue(records, /*served_only=*/true);
}

void DispatchTraceObserver(void* ctx, const StageEvent& event) {
  auto* trace = static_cast<DispatchTrace*>(ctx);
  ++trace->events;
  if (event.budget_tripped) trace->budget_tripped = true;
}

bool ThresholdAdmission(void* ctx, uint64_t /*signature*/,
                        double cost_seconds) {
  return cost_seconds >= *static_cast<const double*>(ctx);
}

ServiceOutcome ClassifyRecord(const ServiceQueryRecord& record) {
  // The two shed shapes are typed by construction: queue-full sheds carry
  // kUnavailable, expiry sheds sit at the ladder's bottom tier.
  if (record.status.code() == StatusCode::kUnavailable) {
    return ServiceOutcome::kShedQueueFull;
  }
  if (record.tier >= static_cast<int>(ServiceTier::kShed)) {
    return ServiceOutcome::kShedExpired;
  }
  if (!record.status.ok()) return ServiceOutcome::kFailedPermanent;
  if (record.degraded ||
      record.tier >= static_cast<int>(ServiceTier::kGreedyOnly)) {
    return ServiceOutcome::kServedDegraded;
  }
  return ServiceOutcome::kServedFull;
}

OutcomeTaxonomy BuildTaxonomy(const std::vector<ServiceQueryRecord>& records) {
  OutcomeTaxonomy out;
  for (const ServiceQueryRecord& r : records) {
    switch (r.outcome) {
      case ServiceOutcome::kServedFull:
        ++out.served_full;
        break;
      case ServiceOutcome::kServedDegraded:
        ++out.served_degraded;
        break;
      case ServiceOutcome::kShedQueueFull:
        ++out.shed_queue_full;
        break;
      case ServiceOutcome::kShedExpired:
        ++out.shed_expired;
        break;
      case ServiceOutcome::kFailedPermanent:
        ++out.failed_permanent;
        break;
    }
    out.retried += r.retries;
  }
  return out;
}

ReadyEntry ServiceTicket::Entry(size_t ticket) const {
  ReadyEntry entry;
  entry.ticket = ticket;
  entry.ready_seconds = arrival_seconds;
  entry.predicted_seconds = admission.predicted_seconds;
  entry.deadline_seconds = submission.deadline_seconds;
  entry.patience_seconds = admission.patience_seconds;
  return entry;
}

ServiceCore::ServiceCore(CompileServiceOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : SystemClock::Get()),
      cache_(options_.enable_cache
                 ? std::make_unique<CompileTimeCache>(options_.cache_capacity)
                 : nullptr),
      tracker_(options_.trip_tracker),
      admission_(options_.optimizer, options_.time_model, options_.admission,
                 cache_.get(), &tracker_),
      pool_(options_.num_workers, options_.optimizer) {
  if (cache_ != nullptr) {
    // The ctx points at this core's own options member, so the threshold
    // stays adjustable per service without any allocation.
    cache_->SetAdmissionPolicy(
        &ThresholdAdmission, &options_.cache_admission_threshold_seconds);
  }
}

ServiceTicket ServiceCore::Admit(const Submission& submission) {
  COTE_CHECK(submission.query != nullptr);
  ServiceTicket ticket;
  ticket.submission = submission;
  ticket.admission =
      admission_.Admit(*submission.query, submission.query_class);
  ticket.arrival_seconds = submission.arrival_seconds;
  return ticket;
}

int ServiceCore::TierAt(const ReadyEntry& entry, double now) {
  // Patience <= 0 never demotes.
  int demotions = 0;
  const double waited = now - entry.ready_seconds;
  if (entry.patience_seconds > 0 && waited >= entry.patience_seconds) {
    demotions = static_cast<int>(waited / entry.patience_seconds);
  }
  return std::min(static_cast<int>(ServiceTier::kShed),
                  entry.tier + demotions);
}

ServiceQueryRecord ServiceCore::Begin(const ReadyEntry& entry,
                                      const ServiceTicket& ticket,
                                      double start_seconds) const {
  const AdmissionOutcome& adm = ticket.admission;
  ServiceQueryRecord rec;
  rec.ticket = entry.ticket;
  rec.query_class = adm.query_class;
  rec.arrival_seconds = ticket.arrival_seconds;
  rec.start_seconds = start_seconds;
  rec.queue_seconds = start_seconds - ticket.arrival_seconds;
  rec.deadline_seconds = ticket.submission.deadline_seconds;
  rec.predicted_seconds = adm.predicted_seconds;
  rec.estimated = adm.estimated;
  rec.cache_hit = adm.cache_hit;
  rec.headroom_multiplier = adm.headroom_multiplier;
  rec.retries = entry.retries;
  return rec;
}

ServiceQueryRecord ServiceCore::Shed(const ReadyEntry& entry,
                                     const ServiceTicket& ticket, double at,
                                     bool expired) const {
  // Never dispatched: no worker, no service time, the ladder's bottom
  // tier. The two shed shapes are typed by their Status (ClassifyRecord).
  ServiceQueryRecord rec = Begin(entry, ticket, at);
  rec.worker = -1;
  rec.finish_seconds = at;
  rec.tier = static_cast<int>(ServiceTier::kShed);
  rec.status =
      expired ? Status::DeadlineExceeded(StrFormat(
                    "queue wait %.3fs exhausted patience %.3fs ladder",
                    at - entry.ready_seconds, entry.patience_seconds))
              : Status::Unavailable(StrFormat(
                    "compile queue full (capacity %zu, policy %s)",
                    options_.queue_capacity,
                    OverloadPolicyName(options_.overload)));
  return rec;
}

ServiceQueryRecord ServiceCore::Dispatch(int worker, const ReadyEntry& entry,
                                         const ServiceTicket& ticket, int tier,
                                         double start_seconds) {
  const AdmissionOutcome& adm = ticket.admission;
  ServiceQueryRecord rec = Begin(entry, ticket, start_seconds);
  rec.worker = worker;
  rec.tier = tier;
  // The tier transform: full limits, halved limits, or the ungoverned
  // greedy-only compile.
  rec.limits = adm.limits;
  if (tier == static_cast<int>(ServiceTier::kBudgetHalved)) {
    rec.limits = HalveLimits(rec.limits);
  } else if (tier == static_cast<int>(ServiceTier::kGreedyOnly)) {
    rec.limits = ResourceLimits();
  }

  // The real compile, on this worker's warm session. The observer context
  // is stack-local, so this attempt's stage events (and any budget trip)
  // land on this record however the front-end interleaves dispatches.
  DispatchTrace trace;
  CompilationSession& session = pool_.session(worker);
  session.SetStageObserver(&DispatchTraceObserver, &trace);
  const double wall_before = clock_->NowSeconds();
  StatusOr<OptimizeResult> result =
      tier == static_cast<int>(ServiceTier::kGreedyOnly)
          ? session.OptimizeGreedy(*ticket.submission.query)
          : session.Optimize(*ticket.submission.query, rec.limits);
  const double measured_seconds = clock_->NowSeconds() - wall_before;
  session.SetStageObserver(nullptr, nullptr);

  rec.stage_events = trace.events;
  rec.budget_tripped = trace.budget_tripped;
  if (result.ok()) {
    rec.degraded = result->degraded;
    rec.tripped_limit = result->tripped_limit;
    rec.degraded_stage = result->degraded_stage;
  } else {
    rec.status = result.status();
  }
  rec.service_seconds = options_.time_source == ServiceTimeSource::kClock
                            ? measured_seconds
                            : adm.predicted_seconds;
  rec.finish_seconds = rec.start_seconds + rec.service_seconds;
  return rec;
}

bool ServiceCore::Retry(const ServiceQueryRecord& rec, const ReadyEntry& entry,
                        double now, ReadyEntry* again) const {
  // Bounded retry-with-degradation: a transient failure with budget left
  // re-enqueues one tier down (capacity-blind — the ticket paid admission
  // once).
  if (rec.status.ok() || !IsTransientFailure(rec.status.code()) ||
      entry.retries >= options_.max_retries) {
    return false;
  }
  *again = entry;
  again->ready_seconds = now;
  again->tier =
      std::min(static_cast<int>(ServiceTier::kGreedyOnly), rec.tier + 1);
  again->retries = entry.retries + 1;
  return true;
}

void ServiceCore::Commit(ServiceQueryRecord rec, const ServiceTicket& ticket,
                         ServiceReport* report) {
  // Close the two feedback loops, for compiled final attempts only: a shed
  // never ran (its non-OK Status skips the cache, its unlimited limits the
  // tracker), and a retried attempt never reaches here. Cache: store what
  // this statement actually cost, gated (inside the cache) on what
  // admission predicted it would cost. Tracker: an armed compile that
  // tripped its *applied* budget is evidence the estimator runs low for
  // this class — a greedy-tier run applied no budget, so it is silent.
  const AdmissionOutcome& adm = ticket.admission;
  if (cache_ != nullptr && !adm.cache_hit && rec.status.ok()) {
    rec.cache_inserted = cache_->Insert(*ticket.submission.query,
                                        rec.service_seconds,
                                        adm.predicted_seconds);
  }
  if (!rec.limits.Unlimited()) {
    tracker_.Record(adm.query_class,
                    IsBudgetTrip(rec.degraded, rec.status, rec.budget_tripped));
  }

  // Every path that finishes a ticket — served, failed, or shed — funnels
  // through here, so "exactly one bucket per ticket" holds by
  // construction.
  rec.outcome = ClassifyRecord(rec);
  if (rec.estimated) ++report->estimates;
  if (rec.cache_hit) ++report->cache_hits;
  if (rec.cache_inserted) ++report->cache_insertions;
  if (rec.degraded) ++report->degraded;
  if (!rec.status.ok()) ++report->failed;
  if (rec.deadline_seconds > 0 && rec.finish_seconds > rec.deadline_seconds) {
    ++report->deadline_misses;
  }
  report->makespan_seconds =
      std::max(report->makespan_seconds, rec.finish_seconds);
  report->records.push_back(std::move(rec));
  if (options_.outcome_observer != nullptr) {
    options_.outcome_observer(options_.outcome_observer_ctx,
                              report->records.back());
  }
}

void ServiceCore::Finish(ServiceReport* report) const {
  report->taxonomy = BuildTaxonomy(report->records);
  if (cache_ != nullptr) report->cache_stats = cache_->Stats();
  report->class_feedback = tracker_.Snapshot();
}

CompileService::CompileService(CompileServiceOptions options)
    : core_(std::move(options)) {}

ServiceReport CompileService::Run(const std::vector<Submission>& arrivals) {
  const CompileServiceOptions& options = core_.options();
  ServiceReport report;
  const size_t n = arrivals.size();
  report.records.reserve(n);
  std::vector<double> worker_free(static_cast<size_t>(pool().num_workers()),
                                  0);
  std::vector<ServiceTicket> tickets(n);
  ReadyQueue queue(options.policy, options.queue_capacity, options.overload);
  size_t next = 0;  // first not-yet-admitted arrival

  // Admits every arrival at or before trace time `t` — admission runs at
  // arrival on the front end, so by the time a server picks, everything
  // that has arrived is in the ready queue with its estimate attached.
  // Under kBlock with a bounded queue the door closes while the queue is
  // full (backpressure: the submitter waits, so admission resumes only
  // after a dispatch frees a slot); under the shedding policies the
  // estimate is still paid first — the shed decision *is* estimate-derived
  // — and Offer says who, if anyone, was refused.
  auto admit_up_to = [&](double t) {
    while (next < n && arrivals[next].arrival_seconds <= t) {
      if (options.overload == OverloadPolicy::kBlock && queue.Full()) break;
      const Submission& s = arrivals[next];
      COTE_CHECK(next == 0 ||
                 s.arrival_seconds >= arrivals[next - 1].arrival_seconds);
      tickets[next] = core_.Admit(s);
      const OfferOutcome offer = queue.Offer(tickets[next].Entry(next));
      ++next;
      if (offer.shed_incoming || offer.shed_existing) {
        // The shed instant is the incoming arrival's own timestamp: that
        // is when the queue was observed full.
        const ServiceTicket& shed = tickets[offer.shed.ticket];
        core_.Commit(core_.Shed(offer.shed, shed, s.arrival_seconds,
                                /*expired=*/false),
                     shed, &report);
      }
    }
  };

  while (next < n || !queue.empty()) {
    // The server that frees first dispatches next (lowest index on ties —
    // a deterministic argmin).
    size_t w = 0;
    for (size_t k = 1; k < worker_free.size(); ++k) {
      if (worker_free[k] < worker_free[w]) w = k;
    }
    double t = worker_free[w];
    // An idle server with an empty queue jumps to the next arrival.
    if (queue.empty()) t = std::max(t, arrivals[next].arrival_seconds);
    admit_up_to(t);
    if (queue.empty()) continue;

    const ReadyEntry entry = queue.PopNext();
    const ServiceTicket& ticket = tickets[entry.ticket];
    // Past the ladder's bottom the entry is shed, the worker stays free at
    // t, and the loop immediately picks again.
    const int tier = ServiceCore::TierAt(entry, t);
    if (tier >= static_cast<int>(ServiceTier::kShed)) {
      core_.Commit(core_.Shed(entry, ticket, t, /*expired=*/true), ticket,
                   &report);
      admit_up_to(t);  // the shed freed a slot — reopen the door
      continue;
    }

    ServiceQueryRecord rec =
        core_.Dispatch(static_cast<int>(w), entry, ticket, tier, t);
    worker_free[w] = rec.finish_seconds;
    if (options.drive_clock != nullptr) {
      options.drive_clock->SetAtLeast(rec.finish_seconds);
    }
    ReadyEntry again;
    if (core_.Retry(rec, entry, rec.finish_seconds, &again)) {
      queue.Push(again);
      continue;
    }
    core_.Commit(std::move(rec), ticket, &report);
  }

  core_.Finish(&report);
  return report;
}

}  // namespace cote
