#include "session/compilation_context.h"

#include <cstring>

#include "common/check.h"
#include "optimizer/gosper_partition.h"

namespace cote {

namespace {

/// SplitMix64 finalizer: cheap, allocation-free, good avalanche — the
/// fingerprint is a change detector, not a security boundary.
uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Mix(uint64_t h, uint64_t v) { return SplitMix(h ^ SplitMix(v)); }

/// Doubles are fingerprinted by bit pattern: any selectivity change —
/// however small — must force a cold rebind (stale cardinalities are the
/// hazard this fingerprint exists to prevent).
uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t MixColumn(uint64_t h, const ColumnRef& c) {
  return Mix(h, c.Encode());
}

}  // namespace

CompilationContext::CompilationContext(OptimizerOptions options,
                                       PlanCounterOptions counter_options)
    : options_((options.Normalize(), std::move(options))),
      counter_options_(counter_options),
      cost_(options_.cost) {}

bool CompilationContext::Reset(const QueryGraph& graph) {
  const uint64_t fp = Fingerprint(graph);
  if (graph_ == &graph && fp == fingerprint_) {
    ++stats_.warm_resets;
    return true;
  }
  graph_ = &graph;
  fingerprint_ = fp;
  // Every per-query component is kept alive (its storage is the point of
  // the session); the cleared flags make the accessors Rebind() it to the
  // new query on first use.
  UnbindComponents();
  ++stats_.context_rebinds;
  return false;
}

void CompilationContext::UnbindComponents() {
  refined_card_bound_ = false;
  simple_card_bound_ = false;
  interesting_bound_ = false;
  counter_bound_ = false;
  enumerator_bound_ = false;
  shard_counters_bound_ = false;
}

void CompilationContext::AbandonBinding() {
  graph_ = nullptr;
  fingerprint_ = 0;
  // The component objects survive (storage reuse); the cleared flags
  // force a Rebind on next use, which drops all their per-query state.
  UnbindComponents();
}

void CompilationContext::Invalidate() {
  graph_ = nullptr;
  fingerprint_ = 0;
  refined_card_.reset();
  simple_card_.reset();
  interesting_.reset();
  counter_.reset();
  enumerator_.reset();
  // The parallel enumerator (worker team) survives — it holds no query
  // state beyond the reusable bitmap — but the shard counters and their
  // graph-referencing cardinality models are dropped with the rest.
  shard_counters_.clear();
  shard_simple_cards_.clear();
  UnbindComponents();
}

const QueryGraph& CompilationContext::graph() const {
  COTE_CHECK(graph_ != nullptr);
  return *graph_;
}

const CardinalityModel& CompilationContext::refined_cardinality() {
  if (!refined_card_) {
    // hotpath-ok: built once per session, then rebound in place
    refined_card_.emplace(graph(), /*use_key_refinement=*/true);
  } else if (!refined_card_bound_) {
    refined_card_->Rebind(graph());
  }
  refined_card_bound_ = true;
  return *refined_card_;
}

const CardinalityModel& CompilationContext::simple_cardinality() {
  // Estimate mode uses the simple model: no key/FD refinement, exactly
  // like the paper's prototype (§4/§5.2).
  if (!simple_card_) {
    // hotpath-ok: built once per session, then rebound in place
    simple_card_.emplace(graph(), /*use_key_refinement=*/false);
  } else if (!simple_card_bound_) {
    simple_card_->Rebind(graph());
  }
  simple_card_bound_ = true;
  return *simple_card_;
}

const InterestingOrders& CompilationContext::interesting_orders() {
  if (!interesting_) {
    // hotpath-ok: built once per session, then rebound in place
    interesting_.emplace(graph());
  } else if (!interesting_bound_) {
    interesting_->Rebind(graph());
  }
  interesting_bound_ = true;
  return *interesting_;
}

PlanCounter& CompilationContext::counter() {
  if (!counter_) {
    // hotpath-ok: built once per session, then rebound in place
    counter_.emplace(graph(), interesting_orders(), simple_cardinality(),
                     options_.plangen, counter_options_);
    counter_bound_ = true;
  } else if (!counter_bound_) {
    counter_->Rebind(graph(), interesting_orders(), simple_cardinality());
    counter_bound_ = true;
  }
  return *counter_;
}

JoinEnumerator& CompilationContext::enumerator() {
  if (!enumerator_) {
    enumerator_.emplace(graph(), options_.enumeration);
  } else if (!enumerator_bound_) {
    enumerator_->Rebind(graph(), options_.enumeration);
  }
  enumerator_bound_ = true;
  return *enumerator_;
}

int CompilationContext::EffectiveParallelWorkers() const {
  if (options_.parallel_workers <= 1) return 1;
  if (options_.enumeration.kind != EnumeratorKind::kBottomUp) return 1;
  const int n = graph().num_tables();
  // Single-table queries have no rank to split; above the flat-bitmap
  // ceiling the Gosper partitioner's binomial table does not reach.
  if (n < 2 || n > kGosperPartitionMaxTables) return 1;
  return options_.parallel_workers;
}

ParallelEnumerator& CompilationContext::parallel_enumerator() {
  COTE_CHECK(options_.parallel_workers > 1);
  if (!parallel_enum_) parallel_enum_.emplace(options_.parallel_workers);
  return *parallel_enum_;
}

PlanCounter& CompilationContext::shard_counter(int w) {
  if (!shard_counters_bound_) {
    const size_t workers = static_cast<size_t>(options_.parallel_workers);
    // Per-worker simple models: CardinalityModel memoizes internally
    // without synchronization, so workers must not share one. Built on
    // first use, then rebound in place like the shard counters.
    for (size_t i = 0; i < workers; ++i) {
      if (i < shard_simple_cards_.size()) {
        shard_simple_cards_[i].Rebind(graph());
      } else {
        // hotpath-ok: built once per session, then rebound in place
        shard_simple_cards_.emplace_back(graph(),
                                         /*use_key_refinement=*/false);
      }
    }
    for (size_t i = 0; i < workers; ++i) {
      if (i < shard_counters_.size()) {
        shard_counters_[i].Rebind(graph(), interesting_orders(),
                                  shard_simple_cards_[i]);
      } else {
        // hotpath-ok: built once per session, then rebound in place
        shard_counters_.emplace_back(graph(), interesting_orders(),
                                     shard_simple_cards_[i],
                                     options_.plangen, counter_options_);
      }
    }
    for (PlanCounter& c : shard_counters_) c.BindShard(&counter());
    shard_counters_bound_ = true;
  }
  return shard_counters_[static_cast<size_t>(w)];
}

EnumerationStats CompilationContext::Enumerate(JoinVisitor* visitor,
                                               ResourceBudget* budget) {
  if (options_.enumeration.kind == EnumeratorKind::kBottomUp) {
    return enumerator().Run(visitor, budget);
  }
  return RunEnumeration(graph(), options_.enumeration, visitor, budget);
}

std::shared_ptr<Memo> CompilationContext::NewMemo() {
  return std::make_shared<Memo>(graph());
}

uint64_t CompilationContext::Fingerprint(const QueryGraph& graph) {
  uint64_t h = SplitMix(static_cast<uint64_t>(graph.num_tables()));
  for (int t = 0; t < graph.num_tables(); ++t) {
    const QueryTableRef& ref = graph.table_ref(t);
    // In-process identity on purpose: rebinding to the same catalog
    // Table object is what makes a warm Reset legal; the fingerprint
    // never persists and is never compared across runs (the cross-run
    // statement-cache key hashes contents instead).
    // det-ok: in-process object identity, never crosses a process
    h = Mix(h, reinterpret_cast<uintptr_t>(ref.table));
    h = Mix(h, ref.inner_only ? 1u : 2u);
  }
  for (const JoinPredicate& p : graph.join_predicates()) {
    h = MixColumn(h, p.left);
    h = MixColumn(h, p.right);
    h = Mix(h, static_cast<uint64_t>(static_cast<int>(p.kind)));
    h = Mix(h, p.derived ? 1u : 2u);
    h = Mix(h, DoubleBits(p.selectivity));
  }
  for (const LocalPredicate& p : graph.local_predicates()) {
    h = MixColumn(h, p.column);
    h = Mix(h, static_cast<uint64_t>(static_cast<int>(p.op)));
    h = Mix(h, DoubleBits(p.selectivity));
  }
  for (const ColumnRef& c : graph.group_by()) h = MixColumn(h, c);
  for (const ColumnRef& c : graph.order_by()) h = MixColumn(h, c);
  h = Mix(h, graph.has_aggregation() ? 1u : 2u);
  h = Mix(h, static_cast<uint64_t>(graph.fetch_first()));
  return h;
}

}  // namespace cote
