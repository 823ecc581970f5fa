#!/usr/bin/env python3
"""Compares perfbench runs of a parent and a change, metric by metric.

    python3 bench/compare.py --parent p/*.txt --change c/*.txt \\
        [--claim batch-paper:run_s] [--ledger BENCH_perfbench.json]

Each input file is the stdout of one `perfbench/run.py` invocation: its
`config {...}` line names the workload, seed and trace mode, and its last
line is the result object. Runs pair up by (workload, seed, trace); repeats
of one key pair in file order.

Per workload and metric it prints the parent's and the change's median and
quartiles over runs, the ratio of the medians (change / parent) and the pair
wins: pairs in which the change is better in the metric's direction. A
metric equal in every pair is marked `identical`. Metric names, directions
and bounds come from BENCHMARK.json.

Exits 1 when, on any workload, an end-to-end metric's median is worse than
the parent's by more than its bound (relative to the parent's median), or
the change fails a larger share of operations. A --claim
`workload:metric` additionally requires the change to be better in at
least 9 of 10 pairs (the same share of any pair count) and the median gap
to exceed the parent's interquartile range; an unmet claim also exits 1.

--ledger writes the change's medians over runs for every workload and
metric, with the seeds and run length behind them and the configuration
stamp (the config line without seed, trace mode and run length), to a
JSON file.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_config(text):
    """The config line's object. The batch workloads print their list of
    per-trajectory seed triples without its outer brackets; that list is
    re-bracketed before parsing."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(re.sub(r'("seeds[a-z_]*": )\[', r"\1[[", text))


def load_run(path):
    """(config, result) of one run.py stdout capture."""
    config = None
    result = None
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    for line in lines:
        if line.startswith("config "):
            config = parse_config(line[len("config "):])
            break
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if config is None or not isinstance(result, dict) or \
            "metrics" not in result:
        sys.exit(f"compare: {path} is not a perfbench run log")
    return config, result


def group_runs(paths):
    """{(workload, trace): {seed: [(config, result), ...]}}"""
    groups = {}
    for path in paths:
        config, result = load_run(path)
        key = (config["workload"], int(config["trace"]))
        groups.setdefault(key, {}).setdefault(int(config["seed"]), []).append(
            (config, result))
    return groups


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def config_stamp(config):
    """The configuration a run measured, minus everything seed-derived."""
    stamp = {k: v for k, v in config.items()
             if k not in ("seed", "trace", "seconds")}
    params = stamp.get("params")
    if isinstance(params, dict):
        stamp["params"] = {k: v for k, v in params.items()
                           if "seed" not in k}
    return stamp


def better(a, b, direction):
    """True when value a beats value b in `direction`."""
    return a < b if direction == "lower" else a > b


def compare_group(workload, trace, parent, change, specs, claims):
    """Prints one workload's table; returns a list of failure strings."""
    failures = []
    seeds = sorted(set(parent) & set(change))
    pairs = []  # (parent result, change result)
    for seed in seeds:
        pairs.extend((p, c) for (_, p), (_, c) in zip(parent[seed],
                                                     change[seed]))
    if not pairs:
        return [f"{workload} trace={trace}: no parent/change pairs"]
    kind = "per-layer" if trace else "end-to-end"
    print(f"\n== {workload} ({kind}, {len(pairs)} pairs, seeds "
          f"{seeds[0]}..{seeds[-1]}) ==")
    print(f"{'metric':34s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'ratio':>7s} {'wins':>7s}")

    p_attempted = sum(p["attempted"] for p, _ in pairs)
    c_attempted = sum(c["attempted"] for _, c in pairs)
    p_failed = sum(p["failed"] for p, _ in pairs)
    c_failed = sum(c["failed"] for _, c in pairs)
    p_share = p_failed / p_attempted if p_attempted else 0.0
    c_share = c_failed / c_attempted if c_attempted else 0.0
    if c_share > p_share:
        failures.append(f"{workload}: failed share {c_share:.4g} > parent "
                        f"{p_share:.4g}")

    for name, spec in specs.items():
        if name not in pairs[0][0]["metrics"]:
            continue
        pv = [p["metrics"][name]["value"] for p, _ in pairs]
        cv = [c["metrics"][name]["value"] for _, c in pairs]
        p1, pm, p3 = quartiles(pv)
        c1, cm, c3 = quartiles(cv)
        direction = spec["better"]
        wins = sum(better(c, p, direction) for p, c in zip(pv, cv))
        ratio = cm / pm if pm else float("nan") if cm else 1.0
        status = "  identical" if pv == cv else ""
        bound = spec.get("bound")
        if bound is not None and pm:
            worse = (cm > pm * (1.0 + bound) if direction == "lower"
                     else cm < pm * (1.0 - bound))
            if worse:
                status = "  PAST BOUND"
                failures.append(f"{workload}: {name} median {cm:.6g} vs "
                                f"parent {pm:.6g} (bound {bound})")
        if (workload, name) in claims:
            gap = pm - cm if direction == "lower" else cm - pm
            iqr = p3 - p1
            need = -(-9 * len(pairs) // 10)  # ceil(0.9 * pairs)
            ok = wins >= need and gap > iqr
            status += (f"  CLAIM {'MET' if ok else 'UNMET'} (wins {wins}/"
                       f"{len(pairs)} need {need}, gap {gap:.4g} vs parent "
                       f"IQR {iqr:.4g})")
            claims[(workload, name)] = ok
            if not ok:
                failures.append(f"{workload}: claim on {name} unmet")
        print(f"{name:34s} {p1:10.4g} {pm:10.4g} {p3:10.4g} "
              f"{c1:10.4g} {cm:10.4g} {c3:10.4g} {ratio:7.3f} "
              f"{wins:3d}/{len(pairs):<3d}{status}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True,
                        help="run.py stdout captures of the parent")
    parser.add_argument("--change", nargs="+", required=True,
                        help="run.py stdout captures of the change")
    parser.add_argument("--bench", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    parser.add_argument("--claim", action="append", default=[],
                        help="workload:metric the change claims to improve")
    parser.add_argument("--ledger", help="write the change's medians here")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    specs_by_trace = {
        0: {m["name"]: m for m in bench["end_to_end"]},
        1: {m["name"]: m for m in bench["per_layer"]},
    }
    claims = {}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if not metric:
            sys.exit(f"compare: --claim wants workload:metric, got {claim}")
        claims[(workload, metric)] = None

    parent = group_runs(args.parent)
    change = group_runs(args.change)
    failures = []
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        if key not in parent or key not in change:
            failures.append(f"{workload} trace={trace}: runs on one side "
                            "only")
            continue
        failures += compare_group(workload, trace, parent[key], change[key],
                                  specs_by_trace[trace], claims)
    for (workload, metric), ok in claims.items():
        if ok is None:
            failures.append(f"claim {workload}:{metric} has no runs")

    if args.ledger:
        ledger = {"benchmark": "perfbench", "workloads": {}}
        for (workload, trace), runs in sorted(change.items()):
            entries = [r for seed in sorted(runs) for r in runs[seed]]
            out = ledger["workloads"].setdefault(workload, {})
            out.setdefault("config", config_stamp(entries[0][0]))
            metrics = {}
            for name, spec in specs_by_trace[trace].items():
                values = [res["metrics"][name]["value"]
                          for _, res in entries if name in res["metrics"]]
                if values:
                    metrics[name] = {"median": statistics.median(values),
                                     "unit": spec["unit"]}
            out["per_layer" if trace else "end_to_end"] = {
                "seeds": sorted(runs),
                "seconds": entries[0][0]["seconds"],
                "metrics": metrics,
            }
        with open(args.ledger, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("\nOK: no end-to-end metric past its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
