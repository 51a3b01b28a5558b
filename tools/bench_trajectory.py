#!/usr/bin/env python3
"""Build and check the checked-in performance trajectory (bench/trajectory/).

One trajectory file per change holds the `ftm_bench gate` document (the
simulated cycles) next to the perfbench end-to-end metrics of alternating
parent/change runs: per workload, the median and interquartile range of
each metric on each side, the change/parent ratio of the medians, how
many pairs the change won, the number of pairs and the seeds.

    # one line per perfbench run (run.py prints its result object last)
    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0 |
        tail -n 1 | python3 tools/bench_trajectory.py wrap \\
            --workload W --seed S --seconds 20 --side change >> runs.jsonl

    # gate document + runs -> trajectory file
    python3 tools/bench_trajectory.py merge --gate BENCH_ftimm.json \\
        --runs runs.jsonl --out bench/trajectory/BENCH_<n>.json

    # every trajectory file loads and carries the required fields (CI)
    python3 tools/bench_trajectory.py check bench/trajectory/*.json

Within a workload the i-th parent run pairs with the i-th change run, in
file order. Which metrics are end-to-end, and which way is better, is
read from BENCHMARK.json.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def end_to_end_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def wrap(args):
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "side": args.side,
                      "result": result}))


def summarise(runs, metrics):
    """Per-workload summary of one workload's parent/change runs."""
    by_side = {s: [r for r in runs if r["side"] == s] for s in SIDES}
    pairs = min(len(by_side["parent"]), len(by_side["change"]))
    if pairs == 0:
        sys.exit(f"{runs[0]['workload']}: no parent/change pair")
    out = {
        "pairs": pairs,
        "seeds": sorted({r["seed"] for r in runs}),
        "seconds": sorted({r["seconds"] for r in runs}),
        "failed": {s: sum(r["result"]["failed"] for r in by_side[s][:pairs])
                   for s in SIDES},
        "attempted": {s: sum(r["result"]["attempted"]
                             for r in by_side[s][:pairs]) for s in SIDES},
        "metrics": {},
    }
    for name, spec in metrics.items():
        vals = {s: [r["result"]["metrics"][name]["value"]
                    for r in by_side[s][:pairs]] for s in SIDES}
        entry = {"unit": spec["unit"], "better": spec["better"]}
        for s in SIDES:
            q1, med, q3 = quartiles(vals[s])
            entry[s] = {"median": med, "iqr": q3 - q1}
        base = entry["parent"]["median"]
        entry["ratio"] = entry["change"]["median"] / base if base else None
        sign = 1 if spec["better"] == "higher" else -1
        entry["wins"] = sum(1 for p, c in zip(vals["parent"], vals["change"])
                            if sign * (c - p) > 0)
        out["metrics"][name] = entry
    return out


def merge(args):
    gate = json.loads(pathlib.Path(args.gate).read_text())
    if gate.get("schema") != 1 or "entries" not in gate:
        sys.exit(f"{args.gate}: not an ftm_bench gate document")
    runs = [json.loads(line) for line in
            pathlib.Path(args.runs).read_text().splitlines() if line.strip()]
    metrics = end_to_end_metrics()
    workloads = sorted({r["workload"] for r in runs})
    doc = {
        "schema": 1,
        "gate": gate,
        "perfbench": {w: summarise([r for r in runs if r["workload"] == w],
                                   metrics) for w in workloads},
    }
    errors = validate(doc)
    if errors:
        sys.exit("\n".join(errors))
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for w, s in doc["perfbench"].items():
        m = s["metrics"]["ops_per_s"]
        print(f"{w}: {s['pairs']} pairs, ops_per_s "
              f"{m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
              f" ({m['wins']}/{s['pairs']} wins)")


def validate(doc):
    """Returns the list of problems of one trajectory document."""
    errors = []
    if doc.get("schema") != 1:
        errors.append(f"schema {doc.get('schema')!r}, expected 1")
    gate = doc.get("gate", {})
    if not isinstance(gate.get("entries"), list) or not gate["entries"]:
        errors.append("gate: no entries")
    perf = doc.get("perfbench")
    if not isinstance(perf, dict) or not perf:
        return errors + ["perfbench: no workloads"]
    for w, s in perf.items():
        if not isinstance(s.get("pairs"), int) or s["pairs"] < 1:
            errors.append(f"{w}: pairs must be an int >= 1")
        if not s.get("seeds"):
            errors.append(f"{w}: seeds missing")
        for name in end_to_end_metrics():
            m = s.get("metrics", {}).get(name)
            if m is None:
                errors.append(f"{w}: metric {name} missing")
                continue
            for side in SIDES:
                if not all(isinstance(m.get(side, {}).get(k), (int, float))
                           for k in ("median", "iqr")):
                    errors.append(f"{w}: {name} {side} median/iqr missing")
    return errors


def check(args):
    if not args.files:
        print("no trajectory files given")
        return 1
    bad = 0
    for path in args.files:
        try:
            errors = validate(json.loads(pathlib.Path(path).read_text()))
        except (OSError, ValueError) as e:
            errors = [str(e)]
        for e in errors:
            print(f"{path}: {e}")
        bad += bool(errors)
    print(f"{len(args.files) - bad}/{len(args.files)} trajectory files ok")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("wrap", help="stdin perfbench result -> one runs line")
    w.add_argument("--workload", required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--seconds", type=float, required=True)
    w.add_argument("--side", choices=SIDES, required=True)
    m = sub.add_parser("merge", help="gate document + runs -> trajectory")
    m.add_argument("--gate", required=True)
    m.add_argument("--runs", required=True)
    m.add_argument("--out", required=True)
    c = sub.add_parser("check", help="validate trajectory files")
    c.add_argument("files", nargs="*")
    args = ap.parse_args()
    if args.cmd == "wrap":
        wrap(args)
    elif args.cmd == "merge":
        merge(args)
    else:
        sys.exit(check(args))


if __name__ == "__main__":
    main()
