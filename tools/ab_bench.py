#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark for two checkouts.

    tools/ab_bench.py --parent DIR --change DIR --workload NAME
                      [--seed N] [--seconds S] [--pairs K] [--out FILE]
    tools/ab_bench.py --self-test

Runs `perfbench/run.py --workload NAME --seed N --seconds S --trace 0` in
each checkout, K pairs in all, one run at a time. The side that goes
first alternates from pair to pair (the parent first in even pairs), so
a host whose speed drifts over the session does not favour either side.
Each checkout builds its own benchmark under its own .bench_build/; one
short warm-up run per side, before the pairs and left out of the
results, takes the builds out of the measured runs.

The JSON written to --out (and printed last) holds the host's
hardware_threads, every run's metrics and failed-op count, and for each
end-to-end metric named in BENCHMARK.json:
  * each side's median and quartiles (linear interpolation);
  * change_wins: pairs in which the change is better, oriented by the
    metric's `better`, ties counting for neither side;
  * the median paired relative difference (change - parent) / parent,
    with a bootstrap 95% interval over pairs (fixed resampling seed, so a
    rerun on the same samples gives the same interval);
  * median_shift: the change's median relative to the parent's, signed
    so that positive is worse; within_bound compares it with the metric's
    bound, and unresolved marks a metric whose parent interquartile range
    (relative to its median) is wider than that bound, unless every run
    of the change is better than every run of the parent
    (change_all_better).

Every session ends with one traced pair, parent first: a `--trace 1`
run of each checkout at the same seed and length. The JSON's `per_layer`
holds each side's per-layer metrics as that run prints them (value, unit
and whether the line is `[text only]`, i.e. left out of the result
object, as parser.parse_us, parser.bind_us and service.admit_us are), so
a claim can name the layer it moved.

--self-test checks the statistics and the per-layer parsing on synthetic
samples and exits 0 when they hold; it runs no benchmark.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

BOOTSTRAP_SEED = 20031  # fixed so intervals are reproducible
BOOTSTRAP_RESAMPLES = 2000


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample (0 <= q <= 1)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values):
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "n": len(values)}


def bootstrap_median_ci(diffs, seed=BOOTSTRAP_SEED,
                        resamples=BOOTSTRAP_RESAMPLES):
    """95% percentile-bootstrap interval of the median of `diffs`."""
    rng = random.Random(seed)
    medians = []
    for _ in range(resamples):
        sample = [diffs[rng.randrange(len(diffs))] for _ in diffs]
        medians.append(quantile(sample, 0.5))
    return [quantile(medians, 0.025), quantile(medians, 0.975)]


def compare_metric(parent, change, better, bound):
    """Statistics of one metric over paired samples (parent[i], change[i])."""
    sign = 1.0 if better == "lower" else -1.0  # positive = change is worse
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    diffs = [(c - p) / p for p, c in zip(parent, change) if p != 0]
    ps, cs = summary(parent), summary(change)
    shift = (sign * (cs["median"] - ps["median"]) / ps["median"]
             if ps["median"] != 0 else 0.0)
    spread = ((ps["q3"] - ps["q1"]) / abs(ps["median"])
              if ps["median"] != 0 else 0.0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    out = {"better": better, "bound": bound, "parent": ps, "change": cs,
           "pairs": len(parent), "change_wins": wins, "change_losses": losses,
           "median_shift": shift, "within_bound": shift <= bound,
           "parent_spread": spread, "change_all_better": all_better,
           "unresolved": spread > bound and not all_better}
    if diffs:
        out["median_rel_diff"] = quantile(diffs, 0.5)
        out["ci95_rel_diff"] = bootstrap_median_ci(diffs)
    return out


def first_side(pair):
    """Which side runs first in pair `pair`: alternates, parent first."""
    return "parent" if pair % 2 == 0 else "change"


def result_of(stdout):
    """The benchmark's result object (its last stdout line), or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


PER_LAYER_HEADING = "per-layer ("


def per_layer_of(stdout):
    """The per-layer lines a --trace 1 run prints, by metric name.

    Each line reads `  NAME VALUE UNIT[  NOTE][  [text only]]`; the block
    starts after the heading and ends at the first line that is not a
    metric (`  mean op: ...`).
    """
    out = {}
    lines = stdout.splitlines()
    start = next((i + 1 for i, line in enumerate(lines)
                  if line.startswith(PER_LAYER_HEADING)), len(lines))
    for line in lines[start:]:
        fields = line.split()
        if not line.startswith("  ") or len(fields) < 3:
            break
        try:
            value = float(fields[1])
        except ValueError:
            break
        out[fields[0]] = {"value": value, "unit": fields[2],
                          "text_only": line.endswith("[text only]")}
    return out


def run_once(checkout, workload, seed, seconds, trace=0):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds its own copy
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    result = result_of(proc.stdout)
    if proc.returncode != 0 or result is None:
        return {"exit": proc.returncode, "failed": None, "metrics": {}}
    run = {"exit": 0, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    if trace:
        run["per_layer"] = per_layer_of(proc.stdout)
    return run


def analyse(runs, end_to_end):
    """Per-metric comparison over the pairs in which both sides ran."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    metrics = {}
    for m in end_to_end:
        parent, change = [], []
        for pair in sorted(by_pair):
            sides = by_pair[pair]
            if m["name"] in sides.get("parent", {}) and \
                    m["name"] in sides.get("change", {}):
                parent.append(sides["parent"][m["name"]])
                change.append(sides["change"][m["name"]])
        if parent:
            metrics[m["name"]] = compare_metric(parent, change, m["better"],
                                                m["bound"])
    return metrics


def self_test():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    check(quantile([1, 2, 3, 4], 0.5) == 2.5, "median of an even sample")
    check(quantile([5], 0.25) == 5, "quartile of one sample")
    check(summary([4, 1, 3, 2, 5]) ==
          {"median": 3, "q1": 2, "q3": 4, "n": 5}, "five-sample summary")
    check([first_side(i) for i in range(4)] ==
          ["parent", "change", "parent", "change"], "alternating first side")

    # Lower is better: the change is 10% faster in 9 of 10 pairs, tied in 1.
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
    change = [p * 0.9 for p in parent[:9]] + [parent[9]]
    low = compare_metric(parent, change, "lower", 0.25)
    check(low["change_wins"] == 9 and low["change_losses"] == 0,
          "wins oriented for lower-is-better, ties for neither")
    check(abs(low["median_rel_diff"] + 0.1) < 1e-9, "median paired difference")
    lo, hi = low["ci95_rel_diff"]
    check(lo <= low["median_rel_diff"] <= hi, "interval holds the median")
    check(low["ci95_rel_diff"] == compare_metric(
        parent, change, "lower", 0.25)["ci95_rel_diff"],
        "fixed resampling seed gives the same interval")
    check(low["median_shift"] < 0 and low["within_bound"],
          "a faster change is within bound")

    # Higher is better: the same samples are now losses for the change.
    high = compare_metric(parent, change, "higher", 0.05)
    check(high["change_wins"] == 0 and high["change_losses"] == 9,
          "wins oriented for higher-is-better")
    check(high["median_shift"] > 0.05 and not high["within_bound"],
          "a 10% drop breaks a 5% bound")

    # A parent spread wider than the bound is unresolved, unless every
    # change run beats every parent run.
    noisy = compare_metric([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0],
                           "lower", 0.25)
    check(noisy["unresolved"], "wide parent spread is unresolved")
    clear = compare_metric([1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8],
                           "lower", 0.25)
    check(clear["change_all_better"] and not clear["unresolved"],
          "a change better in every run is resolved despite the spread")

    # Pairing: a pair missing one side is left out of the comparison.
    runs = [{"pair": 0, "side": "parent", "metrics": {"x": 1.0}},
            {"pair": 0, "side": "change", "metrics": {"x": 2.0}},
            {"pair": 1, "side": "parent", "metrics": {"x": 1.0}},
            {"pair": 1, "side": "change", "metrics": {}}]
    got = analyse(runs, [{"name": "x", "better": "lower", "bound": 0.1}])
    check(got["x"]["pairs"] == 1 and got["x"]["change_losses"] == 1,
          "incomplete pairs are dropped")

    check(result_of('build noise\n{"correct": true, "attempted": 3, '
                    '"failed": 0, "metrics": {}}\n')["attempted"] == 3,
          "result object is the last stdout line")
    check(result_of("no json\n") is None, "missing result object")

    traced = "\n".join([
        "perfbench workload=sql-stream seed=3 seconds=2 trace=1",
        "  references: perfbench/refs/sql.txt (310 ops)",
        "per-layer (traced half; per op unless noted):",
        "  parser.parse_us                           26.1353 us        "
        "[text only]",
        "  session.bind_us                           5.11647 us      ",
        "  session.cold_binds                              1 count/op  "
        "a fresh graph: the op's first call",
        "  optimizer.enum_core_share              0.00158547 ratio     "
        "of a mean op",
        "  service.admit_us                                0 us        "
        "[text only]",
        "  service.queue_tail_ms                           0 ms        "
        "p50 of 0  [text only]",
        "  trace.self_ms.bench                     0.0022677 ms        "
        "the benchmark's own checks and waits  [text only]",
        "  trace.overhead_pct                        1.04901 %       ",
        "  mean op: untraced 5.2290 ms, traced 5.2839 ms",
        "ops attempted=498 failed=0",
        '{"correct": true, "attempted": 498, "failed": 0, "metrics": {}}'])
    layers = per_layer_of(traced)
    check(sorted(layers) == sorted([
        "parser.parse_us", "session.bind_us", "session.cold_binds",
        "optimizer.enum_core_share", "service.admit_us",
        "service.queue_tail_ms", "trace.self_ms.bench",
        "trace.overhead_pct"]), "every per-layer line, none after the block")
    check(layers["parser.parse_us"] == {"value": 26.1353, "unit": "us",
                                        "text_only": True},
          "a [text only] line")
    check(layers["session.cold_binds"] == {"value": 1.0, "unit": "count/op",
                                           "text_only": False},
          "a result line with a note")
    check(layers["trace.self_ms.bench"]["text_only"] and
          layers["service.queue_tail_ms"]["value"] == 0.0,
          "a [text only] line with a note")
    check(per_layer_of("no trace\n") == {}, "an untraced run has no layers")

    for f in failures:
        print("ab_bench self-test FAILED: " + f, file=sys.stderr)
    if not failures:
        print("ab_bench self-test: all checks pass")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", help="file for the JSON result")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    if not (a.parent and a.change and a.workload):
        p.error("--parent, --change and --workload are required")

    checkouts = {"parent": str(Path(a.parent).resolve()),
                 "change": str(Path(a.change).resolve())}
    bench = json.loads(
        (Path(checkouts["change"]) / "BENCHMARK.json").read_text())
    for side in ("parent", "change"):
        print(f"ab_bench: warm-up run of {side}", file=sys.stderr)
        if run_once(checkouts[side], a.workload, a.seed, 1)["exit"] != 0:
            print(f"ab_bench: {side} failed to build or run", file=sys.stderr)
            return 1

    runs = []
    for pair in range(a.pairs):
        first = first_side(pair)
        for side in (first, "change" if first == "parent" else "parent"):
            r = run_once(checkouts[side], a.workload, a.seed, a.seconds)
            r.update({"pair": pair, "side": side, "first": side == first})
            runs.append(r)
            print(f"ab_bench: pair {pair} {side}: exit {r['exit']}, "
                  f"failed ops {r['failed']}", file=sys.stderr)

    traced = {}
    for side in ("parent", "change"):
        traced[side] = run_once(checkouts[side], a.workload, a.seed,
                                a.seconds, trace=1)
        print(f"ab_bench: traced run of {side}: exit {traced[side]['exit']}, "
              f"failed ops {traced[side]['failed']}", file=sys.stderr)

    result = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "pairs": a.pairs, "hardware_threads": os.cpu_count(),
        "checkouts": checkouts,
        "failed_ops": {s: [r["failed"] for r in runs if r["side"] == s]
                       for s in ("parent", "change")},
        "metrics": analyse(runs, bench["end_to_end"]),
        "per_layer": {s: traced[s].get("per_layer", {}) for s in traced},
        "traced_failed_ops": {s: traced[s]["failed"] for s in traced},
        "runs": runs,
    }
    text = json.dumps(result, indent=1, sort_keys=True)
    if a.out:
        Path(a.out).write_text(text + "\n")
    print(text)
    bad_runs = sum(1 for r in runs + list(traced.values()) if r["exit"] != 0)
    return 1 if bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
