"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workloads cli-small oracle --seeds 1 2 3 4 5 --seconds 25

For every workload and metric it prints the median and the distance between
the first and third quartiles (`statistics.quantiles(values, n=4)`) as a
share of the median, the figure BENCHMARK.json's bounds are set against.
`--json PATH` also writes the raw results and the summary.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROVENANCE = ("commit", "source_sha256", "nproc", "python", "numpy", "scipy", "platform")


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="write raw results and summary here")
    args = parser.parse_args()

    raw: dict[str, list[dict]] = {}
    provenance: dict = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        raw[workload] = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])
            provenance = {k: info[k] for k in PROVENANCE}
            raw[workload].append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
                "commands": info["commands"],
                "samples": info["samples"],
            })
            flat = {k: f"{v['value']:.6g}" for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} {flat}", flush=True)
        summary[workload] = {}
        for name, first in raw[workload][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in raw[workload]]
            summary[workload][name] = {
                "median": statistics.median(values),
                "iqr_over_median": spread(values) if len(values) > 1 else 0.0,
                "unit": first["unit"],
                "n": len(values),
            }
            s = summary[workload][name]
            print(f"  {workload:12s} {name:32s} median={s['median']:.6g} {s['unit']} "
                  f"iqr/median={s['iqr_over_median']:.4f}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                       "provenance": provenance, "summary": summary, "runs": raw}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
