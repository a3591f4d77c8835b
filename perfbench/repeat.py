"""Repeat benchmark runs over consecutive seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads paper_sweep,checks --runs 10 --first-seed 0 \
        --trace 0 --out perfbench/out/repeat.json

Runs the command in BENCHMARK.json once per (seed, workload), one at a
time, from the root of the checkout.  For each metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and flags an end-to-end spread that is not below a
third of the metric's bound.  The summary, with the provenance of the
first run of each workload, goes to --out.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="summary JSON path")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {w: [] for w in workloads}
    provenance = {}
    for seed in seeds:
        for w in workloads:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{w} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(result)
            if w not in provenance:
                record = HERE / "out" / f"{w}-seed{seed}-trace{args.trace}.json"
                provenance[w] = json.loads(record.read_text())["provenance"]
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    steady = True
    for w, runs in results.items():
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            if name in bounds and name != "setup_s":
                stats["bound"] = bounds[name]
                stats["steady"] = stats["spread"] < bounds[name] / 3
                steady = steady and stats["steady"]
            metrics[name] = stats
        summary["workloads"][w] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "provenance": provenance[w],
            "metrics": metrics,
        }
        print(f"\n{w}")
        for name, s in metrics.items():
            flag = "" if s.get("steady", True) else "  NOT STEADY"
            print(f"  {name:45s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
