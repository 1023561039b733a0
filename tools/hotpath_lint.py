#!/usr/bin/env python3
"""Hot-path purity linter for the COTE enumeration core.

PR 1 made the enumeration hot path allocation- and hash-free; this check
keeps it that way. It parses the hot-path translation units, locates the
functions that run once per enumerated join (or per MEMO probe), and
fails on constructs that would reintroduce per-join heap traffic:

  * `new` expressions and `std::function` objects anywhere in a hot
    function;
  * construction of node-based / hashed containers (`std::unordered_map`,
    `std::unordered_set`, `std::map`, `std::set`) anywhere in a hot
    function;
  * container growth calls (`push_back`, `emplace_back`, `emplace`,
    `insert`, `resize`, `assign`, `reserve`) whose receiver is not a
    registered scratch buffer, entry-state list, or arena;
  * declarations of local standard containers inside loops of a hot
    function.

Escape hatch: a line (or its predecessor) carrying `// hotpath-ok: <why>`
is exempt — the reason is mandatory and reviewed like any comment. The
linter also fails (exit 2) if a configured hot function disappears, so a
rename cannot silently turn the check off; where a file defines same-named
twins (A::F / B::F), the manifest lists each qualified name so deleting
one twin cannot hide behind the other.

The parser, manifest validation, and escape handling live in
tools/lint_common.py, shared with tools/determinism_lint.py.

Runtime counterpart: tests/optimizer/hotpath_alloc_test.cc asserts zero
steady-state allocations with a counting operator-new hook; this file is
the static half of that contract.

Usage: tools/hotpath_lint.py [--repo-root PATH]
Exit status: 0 clean, 1 violations, 2 configuration/parse errors.
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_common import (Violation, escape_annotation_re, is_escaped,
                         scan_manifest_file, strip_comments_and_strings)

# ---------------------------------------------------------------------------
# Configuration: the hot path, and what is allowed to grow.

# Per file: the functions that run per enumerated join / per probe.
# Matching is by definition site; qualified names (`Memo::Find`) pin one
# class's member, unqualified names accept any enclosing class.
HOT_FUNCTIONS = {
    "src/optimizer/enumerator.cc": [
        "RunBottomUp",
        "Run",  # JoinEnumerator::Run
    ],
    "src/optimizer/topdown_enumerator.cc": [
        "Lookup",
        "Store",
        "Run",
        "Explore",
    ],
    "src/core/plan_counter.cc": [
        "Rebind",  # per cold bind: clears the live arena prefix in place
        "EntryIndex",
        "State",
        "FindState",
        "EntryCardinality",
        "PushUnique",  # every list push: dedupe, then grow only if new
        "InitializeEntry",
        "PropagateOrders",
        "PropagatePartitions",
        "OnJoin",
        "AddPlans",  # per-join accumulation funnel, charges the budget
        "AdoptShardRank",  # rank-barrier merge: swaps slots, never copies
    ],
    # The DP step all three enumerators share: the base entries, the rule
    # for one split (run per enumerated join) and the per-mask split loop.
    # Function templates at namespace scope in the header, where the
    # column-0 parser finds them.
    "src/optimizer/dp_step.h": [
        "AddBaseEntries",
        "JoinSplit",
        "JoinMask",
    ],
    # Rank-parallel enumeration: RunRankSlice is one worker's slice of a
    # rank, each mask through the shared DP step (the whole per-join hot
    # path under parallelism); the Gosper helpers run once per (rank,
    # worker) to compute slice boundaries and must stay pure arithmetic.
    "src/optimizer/parallel_enumerator.cc": [
        "RunRankSlice",
    ],
    "src/optimizer/gosper_partition.cc": [
        "GosperRankSize",
        "GosperUnrank",
        "PartitionGosperRank",
    ],
    # Resource governance: the slow half of ResourceBudget::Checkpoint()
    # runs once per deadline stride inside the enumeration loop. (The fast
    # half and the charge methods are inline in the header; their runtime
    # proof is session_alloc_test's armed-budget case.)
    "src/common/resource_budget.cc": [
        "CheckDeadlineSlow",
    ],
    # Session layer: these run once per compile, and the warm path
    # (repeat estimate of the same query) must stay allocation-free —
    # tests/session/session_alloc_test.cc is the runtime half.
    "src/session/compilation_context.cc": [
        "Reset",
        "Fingerprint",
        "Enumerate",
        # A cold bind rebinds each component in place on its first use:
        # after the largest query has been seen, nothing here allocates.
        "UnbindComponents",
        "refined_cardinality",
        "simple_cardinality",
        "interesting_orders",
        "counter",
        "shard_counter",
    ],
    "src/session/pipeline.cc": [
        "CompileEstimate",  # the estimate path proper (arming + checkpoints)
        "Notify",           # stage observer dispatch: raw fn pointer, no heap
    ],
    "src/session/session.cc": [
        "Estimate",   # multi-block aggregation loop
        "FoldBlock",  # per-block estimate fold (degraded-flag propagation)
    ],
    # Session pool: these run once per claimed batch item (CompileOne /
    # EstimateOne) or once per worker at merge time; keeping them pure
    # keeps the batch path's heap traffic identical to the serial loop's.
    "src/session/session_pool.cc": [
        "CompileOne",
        "EstimateOne",
        "MergeDelta",
    ],
    # Service front-end: these run once per arrival (admission + ready-
    # queue pop) or once per pipeline stage event (the observer thunk);
    # the estimate they lean on is the warm zero-allocation path, so the
    # wrapper must not reintroduce heap traffic around it.
    "src/service/admission.cc": [
        "Admit",
    ],
    "src/service/scheduler.cc": [
        "SchedulesBefore",  # the policy comparator, pure arithmetic
        "ShedsFirst",       # the eviction comparator, pure arithmetic
        "Push",     # heap sift-up; heap_ retains capacity (see receivers)
        "PopNext",  # heap sift-down + pop_back; never reallocates
        "Offer",    # capacity gate + O(capacity) eviction scan, no heap
    ],
    "src/service/trip_tracker.cc": [
        "Record",
        "HeadroomMultiplier",
    ],
    "src/service/arrival_trace.cc": [
        "NextGapSeconds",  # per-arrival inversion sample, pure arithmetic
    ],
    # ServiceCore::Dispatch is the per-dispatch body under both front-ends
    # (the async workers run it between their two mutex scopes); any heap
    # traffic here is multiplied by every live dispatch. TierAt runs per
    # pop, under the async executor's lock.
    "src/service/compile_service.cc": [
        "DispatchTraceObserver",  # runs inside the compile per stage event
        "ThresholdAdmission",     # runs under the cache mutex per insert
        "ClassifyRecord",         # per-terminal-record bucket map, pure
        "TierAt",                 # patience demotion arithmetic, pure
        "Dispatch",               # tier limits + compile + record
    ],
    # Async executor: only the threads, queue and lock protocol live here;
    # its per-dispatch work is ServiceCore::Dispatch above. Registered with
    # no functions so run_checks.sh's session/service coverage loop still
    # sees the file and a future hot path in it gets listed here.
    "src/service/async_executor.cc": [],
    # Query completion: runs once per plan-mode compile; its counting twin
    # runs once per estimate and must never touch the heap.
    "src/optimizer/completion.cc": [
        "CompleteQuery",
        "CountCompletionPlans",
    ],
    # The join rules both visitors share run per enumerated join (and the
    # base partition per new entry). JoinPartitions is a function template
    # over a per-input partition visitor, defined at namespace scope in the
    # header, where the column-0 parser finds it.
    "src/optimizer/properties/join_rules.cc": [
        "CanonicalJoinColumns",
        "RetainOrder",
        "BasePartition",
        "IndexLeadsJoin",
        "ProbeColocated",
    ],
    "src/optimizer/properties/join_rules.h": [
        "JoinPartitions",
    ],
    # The per-entry equivalence: Build and BuildInterests run once per new
    # entry (and per warm rerun of a counter entry), Useful is Table 2's
    # retirement test inside every RetainOrder, Find (inline in the header)
    # runs per canonicalized column.
    "src/optimizer/properties/entry_equivalence.cc": [
        "EntryEquivalence::Root",
        "EntryEquivalence::Build",
        "EntryEquivalence::BuildInterests",
        "EntryEquivalence::Useful",
    ],
    "src/optimizer/properties/entry_equivalence.h": [
        "EntryEquivalence::Find",
    ],
    # Property values: canonicalization (function templates at namespace
    # scope in the headers) and the prefix/set/subset comparisons run per
    # enumerated join. The inline column list's copy, append and compare
    # run under all of them; its Grow is the spill path and the one member
    # that allocates, so it is deliberately not listed.
    "src/optimizer/properties/order_property.h": [
        "OrderProperty::Canonicalize",
    ],
    "src/optimizer/properties/order_property.cc": [
        "SatisfiesPrefix",
        "SatisfiesSet",
    ],
    "src/optimizer/properties/partition_property.h": [
        "PartitionProperty::Canonicalize",
    ],
    "src/optimizer/properties/partition_property.cc": [
        "Satisfies",
        "KeysSubsetOf",
    ],
    "src/optimizer/properties/column_list.h": [
        "ColumnList::operator=",
        "ColumnList::Steal",
        "ColumnList::Assign",
        "ColumnList::Append",
        "ColumnList::SortUnique",
        "ColumnList::operator==",
    ],
    "src/optimizer/properties/interesting_orders.cc": [
        "ActiveFor",  # per interest per new entry (BuildInterests)
        "Rebind",  # per cold bind: re-derives the interests in place
        "Add",
    ],
    # Cardinality: JoinRows runs once per new MEMO entry (and recursively
    # under key refinement); Rebind once per cold bind.
    "src/optimizer/cost/cardinality.cc": [
        "Rebind",
        "BaseRows",
        "UnrefinedRows",
        "JoinRows",
    ],
    # Union-find of the graph's global equivalence: Find/RootIndex run per
    # predicate in JoinRows (once per new entry); AddEquivalence runs at
    # the graph's cache build. (Per-entry equivalences are
    # EntryEquivalence's representative arrays, above.)
    "src/query/equivalence.cc": [
        "IndexOf",
        "FindOrInsert",
        "RootIndex",
        "AddEquivalence",
        "Find",
    ],
    # Memo, serial or in shard mode (one body each), under qualified
    # names so each entry stays pinned to Memo's own definition.
    # Memo::AdoptShardRank is the per-rank merge (pointer adoption only —
    # entries and plans stay in the shard arenas they were born in).
    "src/optimizer/memo.cc": [
        "Memo::Index",
        "Memo::Ids",  # the column-id table: built on first use, then read
        "Memo::GetOrCreate",
        "Memo::Find",
        "Memo::NewPlan",
        "Memo::Insert",
        "Memo::AdoptShardRank",
    ],
    # The per-compile column-id table: built at each cold bind of the
    # counter (and once per Memo), in place, keeping its storage.
    "src/query/column_ids.cc": [
        "ColumnIds::Build",
    ],
    "src/query/query_graph.cc": [
        "ConnectingPredicates",
        "InternalPredicates",
        "AreConnected",
        "IsSubgraphConnected",
        "Neighbors",
        "OuterEnabled",
        "OuterJoinOrientationOk",
    ],
}

# Receivers allowed to call growth methods inside hot functions.
ALLOWED_RECEIVERS = {
    # Scratch buffers: cleared per call, capacity retained across calls.
    "out", "out_cols", "preds", "preds_", "pred_scratch", "pred_scratch_",
    "jparts_", "listp_", "listc_", "distinct_orders_", "exists_",
    "cols_scratch_", "cols_scratch2_", "pairs_scratch_", "class_sels_",
    "independent_sels_",
    # Per-entry and per-query lists whose clear() keeps their capacity, so
    # they grow only past the largest query seen: the interest lists (the
    # query's and each entry's canonical ones), an entry's representative
    # array, and live-count arrays.
    "interests_", "rep_", "cache_rows_", "spill_",
    # ColumnIds::Build's lists, rebuilt per cold bind with storage kept.
    "columns_", "table_base_", "id_of_",
    # PlanCounter's dedupe-then-push helper: its `list` is one of the
    # entry-state property lists or OnJoin's value lists below and above.
    "list",
    # Entry-state property lists: grow only while new distinct property
    # values appear, so they are quiescent in steady state (and the
    # dedupe before every push is part of the Table 3 algorithm).
    "orders", "partitions", "compound",
    # Arenas and per-run structures: amortized growth by design (deque
    # arenas for entries/plans, flat bitmaps sized once per run).
    "plans", "plans_", "entry_arena_", "creation_order_", "arena_",
    "states_", "explored_flat_", "constructible_flat_",
    # Shard rank list: one push per entry *created* in the rank (not per
    # join), cleared at the rank-barrier merge with capacity retained — so
    # it is quiescent on warm reruns like the arenas above.
    "created_masks_",
    # ReadyQueue's heap vector: push_back + sift; pops shrink it without
    # releasing capacity, so a steady-state queue stops allocating.
    "heap_",
}

BANNED_ANYWHERE = [
    (re.compile(r"\bnew\b(?!\s*\()?"), "operator new in a hot function"),
    (re.compile(r"\bstd::unordered_map\s*<"), "std::unordered_map in a hot function"),
    (re.compile(r"\bstd::unordered_set\s*<"), "std::unordered_set in a hot function"),
    (re.compile(r"\bstd::map\s*<"), "std::map in a hot function"),
    (re.compile(r"\bstd::set\s*<"), "std::set in a hot function"),
    (re.compile(r"\bstd::function\s*<"), "std::function in a hot function"),
    (re.compile(r"\bstd::make_unique\s*<|\bstd::make_shared\s*<"),
     "heap-owning smart pointer in a hot function"),
]

GROWTH_CALL = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*(?:\s*(?:\.|->)\s*[A-Za-z_][A-Za-z0-9_]*)*)"
    r"\s*(?:\.|->)\s*"
    r"(push_back|emplace_back|emplace|insert|resize|assign|reserve)\s*\(")

LOCAL_CONTAINER_IN_LOOP = re.compile(
    r"\bstd::(?:vector|string|deque|list)\s*<[^;]*>\s+[A-Za-z_]"
    r"|\bstd::string\s+[A-Za-z_]")

ANNOTATION = escape_annotation_re("hotpath-ok")


def lint_function(path, lines, name, start, end):
    violations = []
    # Loop depth tracking within the function body.
    loop_depth_stack = []  # brace depths at which a loop body began
    brace = 0
    pending_loop = False
    for idx in range(start, end + 1):
        raw = lines[idx]
        stripped = strip_comments_and_strings(raw)
        annotated = is_escaped(lines, idx, ANNOTATION)

        in_loop = len(loop_depth_stack) > 0
        if not annotated:
            for pattern, message in BANNED_ANYWHERE:
                if pattern.search(stripped):
                    violations.append(
                        Violation(path, idx + 1, name, message, raw))
            for m in GROWTH_CALL.finditer(stripped):
                receiver = re.split(r"\s*(?:\.|->)\s*", m.group(1))[-1]
                base = re.split(r"\s*(?:\.|->)\s*", m.group(1))[0]
                if receiver not in ALLOWED_RECEIVERS and \
                        base not in ALLOWED_RECEIVERS:
                    violations.append(Violation(
                        path, idx + 1, name,
                        f"growth call {m.group(2)}() on non-scratch "
                        f"receiver '{m.group(1)}'", raw))
            if in_loop and LOCAL_CONTAINER_IN_LOOP.search(stripped):
                violations.append(Violation(
                    path, idx + 1, name,
                    "local standard container declared inside a loop", raw))

        if re.search(r"\b(?:for|while)\s*\(", stripped) or \
                re.search(r"\bdo\s*\{", stripped):
            pending_loop = True
        for ch in stripped:
            if ch == "{":
                brace += 1
                if pending_loop:
                    loop_depth_stack.append(brace)
                    pending_loop = False
            elif ch == "}":
                if loop_depth_stack and loop_depth_stack[-1] == brace:
                    loop_depth_stack.pop()
                brace -= 1
    return violations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: parent of tools/)")
    args = parser.parse_args()
    root = Path(args.repo_root) if args.repo_root else \
        Path(__file__).resolve().parent.parent

    all_violations = []
    config_errors = []
    for rel, wanted in HOT_FUNCTIONS.items():
        lines, spans, errors = scan_manifest_file(root, rel, wanted)
        config_errors.extend(errors)
        for name, start, end in spans:
            all_violations.extend(lint_function(rel, lines, name, start, end))

    for err in config_errors:
        print(f"hotpath_lint: config error: {err}", file=sys.stderr)
    for v in all_violations:
        print(v, file=sys.stderr)
    if config_errors:
        return 2
    if all_violations:
        print(f"hotpath_lint: {len(all_violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"hotpath_lint: clean "
          f"({sum(len(v) for v in HOT_FUNCTIONS.values())} hot functions "
          f"across {len(HOT_FUNCTIONS)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
