#!/usr/bin/env python3
"""Determinism lint for the COTE enumeration / merge / plan-choice paths.

The repo's headline concurrency guarantee is *bit-identical plan choice*:
parallel enumeration, batch compilation, and the statement cache must
produce exactly the plans (and costs, and signatures) a serial run
produces (DESIGN.md §13; pinned dynamically by the 18 golden equivalence
tests and the parallel/serial oracle suites). This lint bans the statically
detectable ways that guarantee quietly rots:

  unordered-iteration   iterating a std::unordered_{map,set,...} in a
                        manifested function (hash-order is
                        implementation- and run-dependent; probes like
                        find()/count() are fine and unflagged)
  pointer-key           std::hash/std::less over pointer types, or
                        pointer-to-integer reinterpret_casts — address-
                        dependent ordering differs run to run under ASLR
  time-source           std::chrono / clock ::now() / StopWatch readings
                        inside a determinism-critical function
  random-source         rand()/srand()/std::mt19937/random_device
  thread-identity       std::this_thread::get_id / std::thread::id
  float-accumulation    `x += f` on a float/double in a merge-tagged
                        function: FP addition is non-associative, so the
                        fold order must be pinned (worker order / input
                        order) and the line annotated
  sync-inventory        drift between tools/sync_inventory.json and the
                        actual mutex/atomic/condvar declarations in src/
                        (both directions: undocumented primitive, or
                        stale inventory entry)

Escape hatch: `// det-ok: <reason>` on the line or the line above, reason
mandatory — for deliberate, documented uses (e.g. instrumentation timers
whose readings never feed plan choice, or float folds whose order is
pinned at a barrier).

Shares the manifest/parser/escape machinery with tools/hotpath_lint.py
via tools/lint_common.py, including the stale-entry discipline: a
manifested function that no longer exists is a configuration error.

Exit status: 0 clean, 1 violations, 2 configuration error.
--selftest runs the lint over its known-bad/known-good fixtures in
tools/fixtures/determinism/ plus regressions for the shared machinery.
"""

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_common import (Violation, escape_annotation_re, is_escaped,
                         scan_manifest_file, strip_comments_and_strings)

DET_OK = escape_annotation_re("det-ok")

# file -> {manifest function name -> tags}. The only tag today is
# "merge": the function folds worker/shard results and additionally gets
# the float-accumulation check. Header files are parsed with
# allow_indented (class-inline definitions).
DET_FUNCTIONS = {
    "src/optimizer/enumerator.cc": {
        "JoinEnumerator::Run": (),
    },
    "src/optimizer/topdown_enumerator.cc": {
        "TopDownEnumerator::Run": (),
        "TopDownEnumerator::Explore": (),
        "TopDownEnumerator::Lookup": (),
        "TopDownEnumerator::Store": (),
    },
    "src/optimizer/parallel_enumerator.cc": {
        "ParallelEnumerator::Run": ("merge",),
        "ParallelEnumerator::RunRankSlice": (),
        "ParallelEnumerator::FoldBudgets": ("merge",),
    },
    "src/optimizer/gosper_partition.cc": {
        "GosperRankSize": (),
        "GosperUnrank": (),
        "PartitionGosperRank": (),
    },
    "src/optimizer/memo.cc": {
        "Memo::Insert": (),
        "Memo::AdoptShardRank": ("merge",),
        "MemoEntry::Cheapest": (),
        "MemoEntry::CheapestSatisfying": (),
    },
    # The split rule and the per-mask step every enumerator runs: their
    # order is the order of InitializeEntry and OnJoin calls, hence of
    # dense ids and plan lists.
    "src/optimizer/dp_step.h": {
        "JoinSplit": (),
        "JoinMask": (),
    },
    # The shared co-location rule: its output order is the order in which
    # plan mode creates a join's plans (and the counter lists partitions).
    "src/optimizer/properties/join_rules.h": {
        "JoinPartitions": (),
    },
    # Order retirement and the join columns: their outputs are property
    # values both visitors list in order.
    "src/optimizer/properties/join_rules.cc": {
        "CanonicalJoinColumns": (),
        "RetainOrder": (),
    },
    # The per-entry equivalence: representatives (the minimum-encoded class
    # member, whatever the predicate order) and the canonical interests in
    # interest order, which the counter's and the generator's base-table
    # seeding iterate.
    "src/optimizer/properties/entry_equivalence.cc": {
        "EntryEquivalence::Build": (),
        "EntryEquivalence::BuildInterests": (),
        "EntryEquivalence::Useful": (),
    },
    # Canonical property values and the inline column list under them.
    "src/optimizer/properties/order_property.h": {
        "OrderProperty::Canonicalize": (),
    },
    "src/optimizer/properties/partition_property.h": {
        "PartitionProperty::Canonicalize": (),
    },
    "src/optimizer/properties/column_list.h": {
        "ColumnList::Assign": (),
        "ColumnList::Append": (),
        "ColumnList::SortUnique": (),
        "ColumnList::operator==": (),
    },
    "src/core/plan_counter.cc": {
        "PlanCounter::AdoptShardRank": ("merge",),
        "PlanCounter::OnJoin": (),
        "PlanCounter::AddPlans": (),
    },
    "src/optimizer/greedy_optimizer.cc": {
        "GreedyOptimizer::ScanPlan": (),
        "GreedyOptimizer::Run": (),
    },
    "src/core/statement_cache.cc": {
        "CompileTimeCache::Signature": (),
    },
    "src/session/compilation_context.cc": {
        "CompilationContext::Fingerprint": (),
    },
    "src/session/session_pool.cc": {
        "MergeDelta": ("merge",),
        "SessionPool::RunBatch": ("merge",),
    },
    # Service front-end: every scheduling/admission decision must replay
    # bit-identically under a virtual clock (the service_test determinism
    # anchor). Run's only time reads go through the injected Clock, and
    # the trace generator's only randomness is the seeded cote::Rng.
    "src/service/scheduler.cc": {
        "SchedulesBefore": (),
        "ShedsFirst": (),
        "ReadyQueue::Push": (),
        "ReadyQueue::PopNext": (),
        "ReadyQueue::Offer": (),
    },
    "src/service/admission.cc": {
        "AdmissionStage::Admit": (),
    },
    "src/service/trip_tracker.cc": {
        "TripRateTracker::Record": (),
    },
    "src/service/arrival_trace.cc": {
        "MakeOpenLoopTrace": (),
    },
    "src/service/compile_service.cc": {
        "CompileService::Run": (),
        "ServiceCore::Admit": (),
        "ServiceCore::TierAt": (),
        "ServiceCore::Retry": (),
        "ServiceCore::Commit": (),
        "ClassifyRecord": (),
        "BuildTaxonomy": (),
    },
    # Cross-thread cancellation wire: the trip itself must stay a pure
    # CAS on the atomic flag — no clock reads, no randomness — so a
    # supervisor trip replays identically wherever it lands.
    "src/common/resource_budget.h": {
        "FoldShardCharges": ("merge",),
        # TripExternal is a one-line delegate to Trip; contracting Trip
        # covers both (the parser attributes the delegate's body to the
        # Trip call inside it anyway).
        "Trip": (),
    },
    # Live async executor: Submit (admission + ticket assignment) and
    # Drain (ticket-order feedback application) are the two halves of its
    # determinism contract — the async-vs-simulated oracle test holds
    # exactly because neither depends on worker interleaving. The worker
    # loop itself is deliberately NOT determinism-critical: its wall-time
    # fields are the documented exclusion.
    "src/service/async_executor.cc": {
        "AsyncCompileService::Submit": (),
        "AsyncCompileService::Drain": (),
    },
}

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<.*>\s+"
    r"([A-Za-z_]\w*)")
RANGE_FOR = re.compile(r"\bfor\s*\([^;()]*:\s*([^)]+)\)")
# begin() only: `it != m.end()` is the universal find()-probe sentinel
# and deterministic; you cannot start iterating without a begin().
ITER_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")

POINTER_KEY = [
    (re.compile(r"\bstd::hash\s*<[^>]*\*\s*>"),
     "std::hash over a pointer type (address-dependent, varies under ASLR)"),
    (re.compile(r"\bstd::less\s*<[^>]*\*\s*>"),
     "std::less over a pointer type (address order varies run to run)"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?(?:u?intptr_t|size_t)"
                r"\s*>"),
     "pointer-to-integer cast: feeding an address into a key or hash is "
     "nondeterministic across runs"),
]

TIME_SOURCE = [
    (re.compile(r"\bstd::chrono\b"), "std::chrono use"),
    (re.compile(r"::now\s*\("), "clock read"),
    (re.compile(r"\b(?:StopWatch|ScopedTimer)\b"),
     "timer in a determinism-critical function (instrumentation must "
     "carry a det-ok annotation)"),
]
RANDOM_SOURCE = [
    (re.compile(r"\b(?:rand|srand)\s*\("), "C random source"),
    (re.compile(r"\bstd::mt19937(?:_64)?\b|\brandom_device\b"),
     "std random source"),
]
THREAD_IDENTITY = [
    (re.compile(r"\bthis_thread\s*::\s*get_id\b|\bstd::thread::id\b"),
     "thread identity read (scheduling-dependent value)"),
]

FLOAT_FIELD_DECL = re.compile(
    r"\b(?:double|float)\s+([A-Za-z_]\w*)\s*(?:=[^;,()]*|\{[^;]*\})?\s*;")
ACCUM = re.compile(
    r"([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*[+\-]=")

# Sync-primitive declaration, applied to comment/string-stripped lines.
# Matches defining member/global/local declarations of std::mutex,
# condition variables, std::atomic<...>, and the annotated cote wrappers;
# `extern` re-declarations and references/parameters do not match.
SYNC_DECL = re.compile(
    r"(?<![\w:])(?:"
    r"(?:std::)?(?P<m>mutex)|"
    r"(?:std::)?(?P<cv>condition_variable(?:_any)?)|"
    r"std::(?P<at>atomic)\s*<[^;{]*>|"
    r"(?P<wm>Mutex)|(?P<wcv>CondVar)"
    r")\s+(?P<name>[A-Za-z_]\w*)\s*(?:\{[^;]*\})?\s*;")


def collect_float_fields(lines):
    """Float/double field and variable names declared in `lines`."""
    out = set()
    for line in lines:
        s = strip_comments_and_strings(line)
        for m in FLOAT_FIELD_DECL.finditer(s):
            out.add(m.group(1))
    return out


def collect_unordered_names(lines):
    out = set()
    for line in lines:
        s = strip_comments_and_strings(line)
        for m in UNORDERED_DECL.finditer(s):
            out.add(m.group(1))
    return out


def lint_span(rel, lines, name, tags, start, end, unordered_names,
              float_fields):
    """All determinism checks over one function body."""
    violations = []
    local_floats = collect_float_fields(lines[start:end + 1])

    def flag(idx, message):
        if not is_escaped(lines, idx, DET_OK):
            violations.append(
                Violation(rel, idx + 1, name, message, lines[idx]))

    for idx in range(start, end + 1):
        s = strip_comments_and_strings(lines[idx])
        iterated = set()
        for m in RANGE_FOR.finditer(s):
            seq = m.group(1)
            for v in unordered_names:
                if re.search(r"\b%s\b" % re.escape(v), seq):
                    iterated.add(v)
            if "unordered" in seq:
                iterated.add(seq.strip())
        for m in ITER_CALL.finditer(s):
            if m.group(1) in unordered_names:
                iterated.add(m.group(1))
        for v in sorted(iterated):
            flag(idx, f"[unordered-iteration] iterates unordered container "
                      f"'{v}': hash order is not deterministic (probe with "
                      f"find()/count() or iterate a sorted copy)")
        for pat, why in POINTER_KEY:
            if pat.search(s):
                flag(idx, f"[pointer-key] {why}")
                break
        for pat, why in TIME_SOURCE:
            if pat.search(s):
                flag(idx, f"[time-source] {why}")
                break
        for pat, why in RANDOM_SOURCE:
            if pat.search(s):
                flag(idx, f"[random-source] {why}")
                break
        for pat, why in THREAD_IDENTITY:
            if pat.search(s):
                flag(idx, f"[thread-identity] {why}")
                break
        if "merge" in tags:
            for m in ACCUM.finditer(s):
                leaf = re.split(r"\.|->", m.group(1).replace(" ", ""))[-1]
                if leaf in float_fields or leaf in local_floats:
                    flag(idx,
                         f"[float-accumulation] '{m.group(1).strip()} +=' on "
                         f"a float in a merge fold: FP addition is "
                         f"non-associative, so the fold order must be "
                         f"pinned and the line det-ok-annotated")
    return violations


def lint_manifest(root, manifest, float_fields):
    """Runs the function checks for a manifest. Returns (violations, errs)."""
    violations, config_errors = [], []
    for rel in sorted(manifest):
        wanted = manifest[rel]
        lines, spans, errors = scan_manifest_file(
            root, rel, sorted(wanted), allow_indented=rel.endswith(".h"))
        config_errors.extend(errors)
        if not lines:
            continue
        unordered = set(collect_unordered_names(lines))
        header = root / (rel[:-3] + ".h")
        if rel.endswith(".cc") and header.exists():
            unordered |= collect_unordered_names(
                header.read_text().splitlines())
        file_floats = float_fields | collect_float_fields(lines)
        for name, start, end in spans:
            violations.extend(
                lint_span(rel, lines, name, wanted[name], start, end,
                          unordered, file_floats))
    return violations, config_errors


def scan_sync_decls(src_root):
    """All defining sync-primitive declarations under src/.

    Returns a set of (relative file, name, kind) with kind in
    {mutex, condvar, atomic}.
    """
    found = set()
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = str(path.relative_to(src_root.parent))
        for line in path.read_text().splitlines():
            s = strip_comments_and_strings(line)
            if re.search(r"\bextern\b|\busing\b|^\s*#", s):
                continue
            for m in SYNC_DECL.finditer(s):
                if m.group("m") or m.group("wm"):
                    kind = "mutex"
                elif m.group("cv") or m.group("wcv"):
                    kind = "condvar"
                else:
                    kind = "atomic"
                found.add((rel, m.group("name"), kind))
    return found


def check_sync_inventory(repo_root, inventory_path):
    """Cross-checks sync_inventory.json against src/ in both directions."""
    violations, config_errors = [], []
    if not inventory_path.exists():
        return [], [f"sync inventory missing: {inventory_path}"]
    try:
        inventory = json.loads(inventory_path.read_text())
        entries = {(e["file"], e["name"], e["kind"])
                   for e in inventory["entries"]}
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        return [], [f"sync inventory unreadable: {inventory_path}: {e}"]
    declared = scan_sync_decls(repo_root / "src")
    inv_rel = str(inventory_path.relative_to(repo_root))
    for file, name, kind in sorted(declared - entries):
        violations.append(Violation(
            file, 0, name,
            f"[sync-inventory] undocumented {kind} '{name}': every "
            f"synchronization primitive in src/ must have an entry in "
            f"{inv_rel}", f"{kind} {name}"))
    for file, name, kind in sorted(entries - declared):
        violations.append(Violation(
            inv_rel, 0, name,
            f"[sync-inventory] stale entry: no {kind} named '{name}' is "
            f"declared in {file} (renamed or deleted? update the "
            f"inventory)", f"{kind} {name}"))
    return violations, config_errors


def run_tree_lint(repo_root):
    repo_root = Path(repo_root)
    float_fields = set()
    for path in sorted((repo_root / "src").rglob("*.h")):
        float_fields |= collect_float_fields(path.read_text().splitlines())
    violations, config_errors = lint_manifest(
        repo_root, DET_FUNCTIONS, float_fields)
    inv_v, inv_e = check_sync_inventory(
        repo_root, repo_root / "tools" / "sync_inventory.json")
    violations.extend(inv_v)
    config_errors.extend(inv_e)

    if config_errors:
        for e in config_errors:
            print(f"determinism_lint: config error: {e}", file=sys.stderr)
        return 2
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"determinism_lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    n_funcs = sum(len(v) for v in DET_FUNCTIONS.values())
    print(f"determinism_lint: clean ({n_funcs} functions across "
          f"{len(DET_FUNCTIONS)} files; sync inventory consistent)")
    return 0


# ---------------------------------------------------------------------------
# Selftest: fixtures + shared-machinery regressions.

FIXTURE_EXPECT = re.compile(r"//\s*expect-(fail|pass)\s*:?\s*([\w-]*)")
FIXTURE_TAGS = re.compile(r"//\s*lint-tags:\s*(.*)")


def selftest_fixtures(fixtures_dir):
    failures = []
    fixtures = sorted(fixtures_dir.glob("*.cc"))
    if not fixtures:
        return [f"no fixtures found in {fixtures_dir}"]
    for path in fixtures:
        lines = path.read_text().splitlines()
        text = "\n".join(lines)
        expects = FIXTURE_EXPECT.findall(text)
        if not expects:
            failures.append(f"{path.name}: no expect-fail/expect-pass marker")
            continue
        tags_m = FIXTURE_TAGS.search(text)
        tags = tuple(tags_m.group(1).split()) if tags_m else ()
        manifest = {path.name: {"TestFn": tags}}
        violations, errors = lint_manifest(
            fixtures_dir, manifest, collect_float_fields(lines))
        if errors:
            failures.append(f"{path.name}: config errors: {errors}")
            continue
        got = {m.group(1) for v in violations
               for m in [re.match(r"\[([\w-]+)\]", v.message)] if m}
        for kind, category in expects:
            if kind == "pass":
                if violations:
                    failures.append(
                        f"{path.name}: expected clean, got: "
                        + "; ".join(str(v) for v in violations))
            elif category not in got:
                failures.append(
                    f"{path.name}: expected a [{category}] violation, "
                    f"got categories {sorted(got) or ['<none>']}")
    return failures


def selftest_stale_manifest(tmp):
    """The shared stale-entry discipline (hotpath_lint regression).

    The hole: with unqualified names, deleting one of two same-named
    member functions (A::F vs B::F in the fixture below) keeps the lint
    green because the survivor still matches. Qualified manifest names
    must catch exactly that.
    """
    failures = []
    twin = tmp / "twin.cc"
    twin.write_text("int A::F(int x) {\n  return x;\n}\n"
                    "int B::F(int x) {\n  return x + 1;\n}\n")
    _, _, errors = scan_manifest_file(tmp, "twin.cc", ["A::F", "B::F"])
    if errors:
        failures.append(f"both twins present, expected clean: {errors}")
    twin.write_text("int A::F(int x) {\n  return x;\n}\n")
    _, _, errors = scan_manifest_file(tmp, "twin.cc", ["A::F", "B::F"])
    if not errors:
        failures.append("deleted twin B::F not reported as stale manifest "
                        "entry (the unqualified-name hole is back)")
    _, _, errors = scan_manifest_file(tmp, "missing.cc", ["F"])
    if not errors:
        failures.append("missing manifested file not reported")
    import hotpath_lint
    if "Memo::Find" not in hotpath_lint.HOT_FUNCTIONS.get(
            "src/optimizer/memo.cc", ()):
        failures.append("hotpath_lint memo.cc manifest no longer uses "
                        "qualified twin names")
    return failures


def selftest_inventory(tmp):
    failures = []
    src = tmp / "src"
    src.mkdir()
    (src / "thing.h").write_text(
        "class Thing {\n"
        "  std::mutex mu_;\n"
        "  std::atomic<bool> flag_{false};\n"
        "  std::mutex& ref_;     // reference: not a declaration\n"
        "};\n"
        "extern std::atomic<int> global_count;  // extern: skipped\n")
    inv = tmp / "inv.json"

    inv.write_text(json.dumps({"entries": [
        {"file": "src/thing.h", "name": "mu_", "kind": "mutex"},
        {"file": "src/thing.h", "name": "flag_", "kind": "atomic"},
    ]}))
    v, e = check_sync_inventory(tmp, inv)
    if v or e:
        failures.append(f"consistent inventory flagged: {[str(x) for x in v]}"
                        f" {e}")

    inv.write_text(json.dumps({"entries": [
        {"file": "src/thing.h", "name": "mu_", "kind": "mutex"},
    ]}))
    v, _ = check_sync_inventory(tmp, inv)
    if not any("undocumented" in x.message for x in v):
        failures.append("undocumented atomic not flagged")

    inv.write_text(json.dumps({"entries": [
        {"file": "src/thing.h", "name": "mu_", "kind": "mutex"},
        {"file": "src/thing.h", "name": "flag_", "kind": "atomic"},
        {"file": "src/thing.h", "name": "gone_", "kind": "mutex"},
    ]}))
    v, _ = check_sync_inventory(tmp, inv)
    if not any("stale entry" in x.message for x in v):
        failures.append("stale inventory entry not flagged")

    inv.write_text("{not json")
    _, e = check_sync_inventory(tmp, inv)
    if not e:
        failures.append("unreadable inventory not a config error")
    return failures


def run_selftest():
    here = Path(__file__).resolve().parent
    failures = selftest_fixtures(here / "fixtures" / "determinism")
    with tempfile.TemporaryDirectory() as td:
        failures += selftest_stale_manifest(Path(td))
    with tempfile.TemporaryDirectory() as td:
        failures += selftest_inventory(Path(td))
    if failures:
        for f in failures:
            print(f"determinism_lint selftest: FAIL: {f}", file=sys.stderr)
        return 1
    print("determinism_lint selftest: all fixtures and regressions pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the lint over its own fixtures")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    root = Path(args.repo_root) if args.repo_root else (
        Path(__file__).resolve().parent.parent)
    return run_tree_lint(root)


if __name__ == "__main__":
    sys.exit(main())
