"""Sweep benchmark for swipt-plsec.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload figure_ip --seed 1 --seconds 30 --trace 0

One closed-loop client drives the user entry point, ``swipt_plsec.cli.main``
with a ``sweep`` argument vector, in this process: each call starts when the
previous one has returned.  A pass runs every sweep call of the workload once;
passes repeat while one as long as the last still ends within ``--seconds``
(at least one).  During untraced passes a speed probe (``speed.py``)
samples how fast the machine runs, and the pass's program time is also
reported in probe runs (``wall_probes``), which the host's drift in speed
does not move.  Every pass's
CSV output is checked (see ``checks.py``), and every pass must reproduce the
first pass's analytic and MC columns bit for bit, as the seed is fixed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see ``layers.py``); the spans are written to
``.perfbench_out/spans-<workload>-seed<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import layers
import speed
from checks import ANALYTIC_COLUMNS, MC_COLUMNS, CheckReport, Reference, SweepCall, \
    check_sweep, column_digest
from tracer import Tracer
from workloads import MODEL, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
# one cheap sweep (quadrature, closed form and MC), so first-call costs stay
# out of the timing
WARMUP = ["sweep", *MODEL, "--seed", "1", "--scenario", "s1", "--psi-db", "2",
          "--num-sources", "2", "--num-jammers", "1", "--sweep", "psi_db:10:10:1",
          "--scheme", "spsr", "--rho", "0.5", "--outputs", "both", "--trials", "1000",
          "--workers", "1"]

END_TO_END_UNITS = {"wall_probes": "probes", "setup_s": "s", "peak_rss_mb": "MB",
                    "row_ok_frac": "fraction", "mc_agree_frac": "fraction"}


@dataclass
class Call:
    argv: list[str]
    rc: int | None  # None: the call raised
    seconds: float
    csv: str
    output: str


def run_pass(main, argvs: list[list[str]], work: Path,
             sampler: speed.Sampler | None = None) -> list[Call]:
    """Run each sweep once, in order, and keep its exit code and CSV.  A
    call's seconds leave out the time ``sampler`` spent in its probe."""
    calls = []
    for i, argv in enumerate(argvs):
        path = work / f"{i}.csv"
        out = io.StringIO()
        probed = sampler.probe_s if sampler else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = main([*argv, "--output", str(path)])
        except Exception:
            rc = None
            out.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if sampler:
            seconds -= sampler.probe_s - probed
        text = path.read_text() if path.is_file() else ""
        path.unlink(missing_ok=True)
        calls.append(Call(argv, rc, seconds, text, out.getvalue()))
    return calls


def check_pass(calls: list[Call], first: list[Call], reference: Reference) -> CheckReport:
    """Check one pass's outputs, and that they reproduce the first pass's."""
    rep = CheckReport()
    for call, ref_call in zip(calls, first):
        if call.rc is None or not call.csv:
            rep.problems.append(f"sweep crashed or wrote no CSV: {call.output[-2000:]}")
            continue
        sweep = check_sweep(SweepCall.from_argv(call.argv), call.csv, reference)
        rep.add(sweep)
        # exit code 1 with row errors is data; any other nonzero code is not
        if call.rc != 0 and not (call.rc == 1 and sweep.row_errors):
            rep.problems.append(f"sweep exited {call.rc} without row errors: "
                                f"{call.output[-2000:]}")
        for columns in (ANALYTIC_COLUMNS, MC_COLUMNS):
            if column_digest(call.csv, columns) != column_digest(ref_call.csv, columns):
                rep.problems.append(f"columns {columns} differ between passes with one seed")
    return rep


def probe_setup(src: Path, scenario: str, n: int) -> list[dict[str, float]]:
    """Time ``n`` fresh processes from spawn to a resolved scenario."""
    samples = []
    for _ in range(n):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src), scenario],
                              capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["setup_s"] = sample.pop("ready") - spawned
        samples.append(sample)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def describe(values: list[float]) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


@dataclass
class Pass:
    calls: list[Call]
    spans: tuple[int, int] | None = None  # traced passes: the tracer's span range
    counts: dict[str, float] | None = None
    rate: float | None = None  # untraced passes: speed probe runs per second

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)


def load_program(src: Path) -> tuple[object, dict[str, object]]:
    """Import the package from ``src``; return it and the traced modules by short name."""
    sys.path.insert(0, str(src))
    import swipt_plsec
    from swipt_plsec import analytic, cli, montecarlo, specfun, sweep
    return swipt_plsec, {"cli": cli, "sweep": sweep, "montecarlo": montecarlo,
                         "analytic": analytic, "specfun": specfun}


def run_passes(modules, argvs, seconds: float, trace: bool, tracer: Tracer,
               work: Path) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, alternating with traced ones under ``trace``; at least
    one of each kind, then more while one as long as the last still ends
    within ``seconds``."""
    main = modules["cli"].main
    traced_main = tracer.wrap("cli.main", main)
    run_pass(main, [WARMUP], work)
    speed.probe()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not untraced or (trace and not traced) or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        if trace and len(traced) < len(untraced):
            tracer.counts = {}
            lo = len(tracer)
            layers.install(tracer, modules)
            try:
                calls = run_pass(traced_main, argvs, work)
            finally:
                tracer.unpatch()
            traced.append(Pass(calls, (lo, len(tracer)), tracer.counts))
        else:
            with speed.Sampler() as sampler:
                calls = run_pass(main, argvs, work, sampler)
            untraced.append(Pass(calls, rate=sampler.rate))
        last = time.perf_counter() - started
    return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "swipt_plsec" / "__init__.py").is_file():
        print(f"perfbench: {src}/swipt_plsec not found; run from the root of a "
              "swipt-plsec source checkout", file=sys.stderr)
        return 2
    pkg, modules = load_program(src)
    argvs = WORKLOADS[args.workload](args.seed)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        untraced, traced = run_passes(modules, argvs, args.seconds, bool(args.trace),
                                      tracer, Path(tmp))
        rss_mb = peak_rss_mb()

    reference = Reference(pkg, out_dir)
    reports = [check_pass(p.calls, untraced[0].calls, reference) for p in untraced + traced]
    reference.save()
    total = CheckReport()
    for rep in reports:
        total.add(rep)
    first = reports[0]

    probes = probe_setup(src, SweepCall.from_argv(argvs[0]).scenario, SETUP_PROBES)
    setup = [p["setup_s"] for p in probes]
    walls = [p.seconds for p in untraced]
    in_probes = [p.seconds * p.rate for p in untraced]
    probe_s = [1.0 / p.rate for p in untraced]

    print(f"workload {args.workload}: {len(argvs)} sweep call(s) per pass, seed {args.seed}, "
          f"{len(untraced)} untraced and {len(traced)} traced pass(es)")
    print(f"  wall_s        {median(walls):.6g} s ({describe(walls)})")
    print(f"  wall_probes   {median(in_probes):.6g} probes ({describe(in_probes)}; probe "
          f"{median(probe_s):.6g} s, harmonic mean per pass, {describe(probe_s)})")
    print(f"  setup_s       {median(setup):.6g} s ({describe(setup)} fresh processes)")
    print(f"  peak_rss_mb   {rss_mb:.6g} MB (this process plus its largest child)")
    rows, cells, pairs = max(first.rows, 1), max(first.analytic_cells, 1), max(first.mc_compared, 1)
    print(f"  rows per pass {first.rows}: {first.row_errors} with errors "
          f"(row_error_frac {first.row_errors / rows:.4g}), "
          f"{first.failed_rows} failed (row_ok_frac {1 - first.failed_rows / rows:.4g})")
    print(f"  analytic cells per pass {first.analytic_cells}: {first.bad_cells} bad "
          f"(bad_value_frac {first.bad_cells / cells:.4g}), "
          f"{first.unverified_cells} unverified (reference failed)")
    print(f"  analytic/MC pairs per pass {first.mc_compared}: {first.mc_flagged} flagged "
          f"(mc_flagged_frac {first.mc_flagged / pairs:.4g}), "
          f"{first.mc_marginal} within one CI of the flag threshold")
    print(f"  MC column digest {column_digest(untraced[0].calls[0].csv, MC_COLUMNS)[:16]} "
          "(first sweep call; equal seeds must give equal digests)")
    for problem in total.problems[:20]:
        print(f"  PROBLEM: {problem}")

    if args.trace:
        metrics = layer_report(tracer, traced, walls, probe_s, probes, first)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        values = {
            "wall_probes": median(in_probes),
            "setup_s": median(setup),
            "peak_rss_mb": rss_mb,
            "row_ok_frac": 1.0 - total.failed_rows / max(total.rows, 1),
            "mc_agree_frac": 1.0 - total.mc_flagged / max(total.mc_compared, 1),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": not total.problems, "attempted": total.rows,
                      "failed": total.failed_rows, "metrics": metrics}))
    return 0


def layer_report(tracer: Tracer, traced: list[Pass], walls: list[float],
                 probe_s: list[float], probes, first: CheckReport) -> dict:
    """Per-layer metrics: medians over traced passes, set-up split from the
    probes, tracing overhead, and the first pass's check counts."""
    per_pass = [layers.layer_metrics(tracer.table(*p.spans), p.counts) for p in traced]
    values = {k: median(p[k] for p in per_pass) for k in layers.UNITS}
    units = dict(layers.UNITS)
    traced_walls = [p.seconds for p in traced]
    values.update({
        "bench.wall_s": median(walls),
        "bench.probe_s": median(probe_s),
        "import_s": median(p["import_s"] for p in probes),
        "scenario.resolve_s": median(p["resolve_s"] for p in probes),
        "trace.wall_s": median(traced_walls),
        "trace.overhead_s": median(traced_walls) - median(walls),
        "trace.spans": median(p.spans[1] - p.spans[0] for p in traced),
        "check.row_errors": first.row_errors,
        "check.bad_cells": first.bad_cells,
        "check.unverified_cells": first.unverified_cells,
        "check.mc_flagged": first.mc_flagged,
        "check.mc_marginal": first.mc_marginal,
    })
    units.update({"bench.wall_s": "s", "bench.probe_s": "s", "import_s": "s",
                  "scenario.resolve_s": "s", "trace.wall_s": "s",
                  "trace.overhead_s": "s"})
    print("per-layer metrics (median over traced passes):")
    for k, v in values.items():
        print(f"  {k:30s} {v:.6g} {units.get(k, 'count')}")
    sim_s = values["montecarlo.simulate_s"] or 1.0
    print("  shares of montecarlo.simulate_s: " + ", ".join(
        f"{k} {values[k] / sim_s:.3f}" for k in ("channel.draw_s", "core.gamma_e_s",
                                                 "core.gamma_d_s", "montecarlo.self_s")))
    return {k: {"value": v, "unit": units.get(k, "count")} for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
