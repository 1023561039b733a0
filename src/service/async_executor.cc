#include "service/async_executor.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "service/outcome.h"

namespace cote {

AsyncCompileService::AsyncCompileService(CompileServiceOptions options)
    : core_(std::move(options)),
      queue_(core_.options().policy, core_.options().queue_capacity,
             core_.options().overload) {
  const int workers = core_.pool().num_workers();
  {
    MutexLock lock(mu_);
    inflight_.resize(static_cast<size_t>(workers));
  }
  threads_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back(&AsyncCompileService::WorkerLoop, this, w);
  }
}

AsyncCompileService::~AsyncCompileService() { Shutdown(); }

size_t AsyncCompileService::Submit(const Submission& submission) {
  // Admission on the caller thread: the stage's warm estimate session is
  // single-threaded, and the cache + tracker it consults are only ever
  // mutated on this same thread (at Drain), so admission never races the
  // workers — they touch neither. The estimate is paid before the
  // overload decision on purpose: the shed choice *is* estimate-derived.
  ServiceTicket p = core_.Admit(submission);
  const double now = core_.clock()->NowSeconds();

  size_t ticket;
  bool notify_worker = false;
  {
    MutexLock lock(mu_);
    COTE_CHECK(!stop_);  // Submit after Shutdown is a driver bug
    if (core_.options().overload == OverloadPolicy::kBlock) {
      // Backpressure: the submitter waits at the door for a worker pop.
      // stop_ cannot rise mid-wait (Shutdown runs on this same driver
      // thread), so the predicate needs no stop clause.
      while (queue_.Full()) space_cv_.Wait(mu_);
    }
    if (pending_.empty()) burst_epoch_ = now;
    p.arrival_seconds = now - burst_epoch_;
    ticket = pending_.size();
    pending_.push_back(p);
    ++submitted_;
    const OfferOutcome offer = queue_.Offer(p.Entry(ticket));
    notify_worker = offer.admitted;
    if (offer.shed_incoming || offer.shed_existing) {
      // The refused ticket terminates right here on the caller thread:
      // its record is complete, it counts finished, and no worker will
      // ever see it — ticket conservation by construction.
      completed_.push_back(core_.Shed(offer.shed, pending_[offer.shed.ticket],
                                      p.arrival_seconds, /*expired=*/false));
      ++finished_;
    }
  }
  if (notify_worker) ready_cv_.NotifyOne();
  return ticket;
}

void AsyncCompileService::WorkerLoop(int worker) {
  Clock* clock = core_.clock();
  for (;;) {
    ReadyEntry entry;
    ServiceTicket work;
    double epoch;
    int tier;
    {
      MutexLock lock(mu_);
      while (!stop_ && (hold_ || queue_.empty())) ready_cv_.Wait(mu_);
      // Stop only takes effect on an empty queue: everything admitted
      // before Shutdown still compiles (shutdown never abandons work).
      if (queue_.empty()) return;
      entry = queue_.PopNext();
      work = pending_[entry.ticket];
      epoch = burst_epoch_;
      const double now_offset = clock->NowSeconds() - epoch;
      // Queue-wait expiry on the wall clock: past the ladder's bottom the
      // entry is shed without compiling.
      tier = ServiceCore::TierAt(entry, now_offset);
      if (tier >= static_cast<int>(ServiceTier::kShed)) {
        completed_.push_back(
            core_.Shed(entry, work, now_offset, /*expired=*/true));
        ++finished_;
      } else {
        // Register for the cancellation supervisor before the compile
        // starts. The budget pointer stays valid for the pool's lifetime;
        // the registration is cleared under mu_ after the compile, so a
        // supervisor trip can never land on a *later* armed compile.
        InFlight& f = inflight_[static_cast<size_t>(worker)];
        f.active = true;
        f.ticket = entry.ticket;
        f.start_seconds = clock->NowSeconds();
        f.patience_seconds = entry.patience_seconds;
        f.budget = &core_.pool().session(worker).context().budget();
      }
    }
    // The pop freed a queue slot either way; wake a kBlock submitter.
    space_cv_.NotifyOne();
    if (tier >= static_cast<int>(ServiceTier::kShed)) {
      done_cv_.NotifyOne();
      continue;
    }

    // The compile itself, lock-free on this worker's own session.
    const ServiceQueryRecord rec = core_.Dispatch(
        worker, entry, work, tier, clock->NowSeconds() - epoch);

    bool retried = false;
    {
      MutexLock lock(mu_);
      inflight_[static_cast<size_t>(worker)].active = false;
      inflight_[static_cast<size_t>(worker)].budget = nullptr;
      // A retry touches neither submitted_ nor finished_.
      ReadyEntry again;
      retried = core_.Retry(rec, entry, clock->NowSeconds() - epoch, &again);
      if (retried) {
        queue_.Push(again);
      } else {
        completed_.push_back(rec);
        ++finished_;
      }
    }
    if (retried) {
      ready_cv_.NotifyOne();
    } else {
      done_cv_.NotifyOne();
    }
  }
}

ServiceReport AsyncCompileService::Drain() {
  const CompileServiceOptions& options = core_.options();
  std::vector<ServiceQueryRecord> records;
  std::vector<ServiceTicket> pending;
  {
    MutexLock lock(mu_);
    while (finished_ < submitted_) {
      if (options.external_cancel_factor <= 0) {
        done_cv_.Wait(mu_);
        continue;
      }
      // Supervisor mode: poll instead of park, and externally trip any
      // registered compile that has overstayed patience * factor. The
      // trip is taken under mu_ while the registration is active, so it
      // can only reach the compile it names (see the class doc); the
      // cancelled compile notices at its next cooperative checkpoint.
      done_cv_.WaitFor(mu_, options.cancel_poll_seconds);
      const double now = core_.clock()->NowSeconds();
      for (InFlight& f : inflight_) {
        if (!f.active || f.patience_seconds <= 0) continue;
        if (now - f.start_seconds >
            f.patience_seconds * options.external_cancel_factor) {
          // Deliberately re-tripped every poll while the registration
          // stays active: TripExternal is an idempotent first-trip-wins
          // CAS, and re-arming (the compile's own Arm resets the flag
          // before any charge) can erase a trip that landed in the
          // register-to-Arm window — the next poll simply lands it again.
          f.budget->TripExternal();
        }
      }
    }
    records = std::move(completed_);
    pending = std::move(pending_);
    completed_.clear();
    pending_.clear();
    submitted_ = 0;
    finished_ = 0;
    burst_epoch_ = 0;
  }
  // Ticket order: input-order recovery, and — more importantly — a
  // *deterministic* feedback order. The core commits each record (cache
  // insert, tracker record, counters, observer) on this thread in ticket
  // order regardless of the workers' completion interleaving, which is
  // what lets the async burst match the simulated oracle's feedback state
  // exactly.
  std::sort(records.begin(), records.end(),
            [](const ServiceQueryRecord& a, const ServiceQueryRecord& b) {
              return a.ticket < b.ticket;
            });
  ServiceReport report;
  report.records.reserve(records.size());
  for (ServiceQueryRecord& rec : records) {
    const ServiceTicket& ticket = pending[rec.ticket];
    core_.Commit(std::move(rec), ticket, &report);
  }
  core_.Finish(&report);
  return report;
}

ServiceReport AsyncCompileService::Run(const std::vector<Submission>& arrivals,
                                       bool pace_arrivals) {
  Clock* clock = core_.clock();
  const double t0 = clock->NowSeconds();
  for (const Submission& s : arrivals) {
    if (pace_arrivals) {
      // Open-loop replay: hold each submission until its trace offset on
      // the service clock. Sleep in short slices so an injected clock
      // that advances coarsely cannot strand the replay.
      for (;;) {
        const double wait = s.arrival_seconds - (clock->NowSeconds() - t0);
        if (wait <= 0) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(wait, 0.001)));
      }
    }
    Submit(s);
  }
  return Drain();
}

void AsyncCompileService::HoldWorkers() {
  MutexLock lock(mu_);
  hold_ = true;
}

void AsyncCompileService::ReleaseWorkers() {
  {
    MutexLock lock(mu_);
    hold_ = false;
  }
  ready_cv_.NotifyAll();
}

void AsyncCompileService::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stop_ && threads_.empty()) return;  // already shut down
    stop_ = true;
    hold_ = false;  // a held worker must still observe the stop
  }
  ready_cv_.NotifyAll();
  space_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

}  // namespace cote
