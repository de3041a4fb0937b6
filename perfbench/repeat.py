"""Run the benchmark once per seed and workload, and summarise the spread.

Run from the root of a source checkout:

    python3 perfbench/repeat.py --seeds 1-10 --trace 0 --json out.json
    python3 perfbench/repeat.py --workloads mc_op --seeds 1-5

Each run is a fresh ``perfbench/run.py`` process.  The first run's report of
each workload is printed in full; then, for each metric, the summary gives the
median and the quartiles of the runs (``statistics.quantiles`` with ``n=4``)
and their distance as a share of the median.  ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def repeat(workload: str, seed_list: list[int], seconds: int, trace: int) -> dict:
    runs = []
    for seed in seed_list:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, check=True)
        lines = proc.stdout.strip().splitlines()
        if not runs:  # the first run's report: every metric with its unit and counts
            print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
    summary = {name: {**summarise([r["metrics"][name]["value"] for r in runs]),
                      "unit": runs[0]["metrics"][name]["unit"]}
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{workload} {name:30s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  n {s['n']}")
    return {"runs": runs, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]),
                        help="comma list (default: every workload)")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="write every run and summary here")
    args = parser.parse_args(argv)

    results = {w: repeat(w, args.seeds, args.seconds, args.trace)
               for w in args.workloads.split(",")}
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "workloads": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
