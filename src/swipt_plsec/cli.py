"""Command-line experiment runner.

Subcommands: ``point`` (one parameter point, run as a one-point psi sweep),
``sweep`` (one variable sweep written as CSV), ``compare`` (analytic-vs-MC
agreement report on a sweep CSV), ``scenario-check`` (validate a scenario
file and print its rates).
All dB-valued inputs convert to linear as 10**(x/10) at this boundary (a
value beyond float range is an error); the library below is strictly linear.
The gate options (``--gap-allowance``, ``--max-flagged``, ``--fail-on-flags``)
must be finite, since a NaN gate would never fail.
"""

from __future__ import annotations

import argparse
import math
import sys

from .channel import LINK_KEYS, pathloss_rate
from .core import SCHEMES, SystemParams
from .montecarlo import SimConfig
from .scenario import ScenarioError, packaged_scenarios, resolve_scenario
from .specfun import NumericalError
from .sweep import (
    SchemePoint,
    SweepSpec,
    _db_to_linear,
    compare_report,
    read_csv,
    run_sweep,
    write_csv,
)

__all__ = ["main"]

TABLE_RHOS = (0.225, 0.325, 0.5, 0.875, 0.915)
PAPER_FIDELITY_TRIALS = 5_000_000


def _parse_rho_list(text: str) -> list[float]:
    if text.strip() == "table1":
        return list(TABLE_RHOS)
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rho list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty rho list")
    return values


def _parse_sweep(text: str) -> tuple[str, float, float, float]:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected <var>:<start>:<stop>:<step>, got {text!r}")
    var = parts[0]
    try:
        start, stop, step = (float(v) for v in parts[1:])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep bounds in {text!r}") from None
    return var, start, stop, step


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_model_args(sub: argparse.ArgumentParser, for_sweep: bool) -> None:
    sub.add_argument("--scenario", default="s1",
                     help="scenario file path or packaged name (default: s1)")
    sub.add_argument("--eta", type=float, default=0.8, help="energy-conversion efficiency")
    sub.add_argument("--c-th", type=float, default=0.5, help="target rate, bits/s/Hz")
    sub.add_argument("--psi-db", type=float, default=2.0, help="source power-to-noise ratio, dB")
    sub.add_argument("--phi-db", type=float, default=1.0, help="jammer power-to-noise ratio, dB")
    sub.add_argument("--num-sources", type=int, default=2, help="number of candidate sources")
    sub.add_argument("--num-jammers", type=int, default=1, help="number of friendly jammers")
    sub.add_argument("--jamming", choices=("on", "off"), default="on")
    sub.add_argument("--e1-mode", choices=("exact", "approx"), default="exact",
                     help="first-slot eavesdropper SNR model for the simulation")
    sub.add_argument("--trials", type=int, default=1_000_000,
                     help="Monte-Carlo trials per point (default 10^6)")
    sub.add_argument("--paper-fidelity", action="store_true",
                     help=f"use {PAPER_FIDELITY_TRIALS} trials per point")
    sub.add_argument("--seed", type=int, default=12345, help="master seed")
    sub.add_argument("--workers", type=int, default=1,
                     help="stream partitions, run concurrently on at most as many threads "
                          "as there are usable CPUs; a fixed (seed, workers) reproduces "
                          "bitwise")
    if for_sweep:
        sub.add_argument("--scheme", default="spsr,dpsr",
                         help=f"comma list drawn from {{{', '.join(SCHEMES)}}}")
        sub.add_argument("--rho", type=_parse_rho_list, default=[0.5],
                         help="comma list of splitting ratios for spsr curves, or 'table1'")
    else:
        sub.add_argument("--scheme", choices=SCHEMES, default="spsr")
        sub.add_argument("--rho", type=float, default=0.5, help="splitting ratio for spsr")


def _build_params(args, rho: float) -> SystemParams:
    return SystemParams(
        eta=args.eta, rho=rho,
        psi=_db_to_linear(args.psi_db), phi=_db_to_linear(args.phi_db),
        num_sources=args.num_sources, num_jammers=args.num_jammers,
        c_th=args.c_th,
    )


def _build_sim(args) -> SimConfig:
    trials = PAPER_FIDELITY_TRIALS if args.paper_fidelity else args.trials
    return SimConfig(trials=trials, seed=args.seed, workers=args.workers,
                     jamming=args.jamming == "on", e1_mode=args.e1_mode)


def _cmd_point(args) -> int:
    scheme = SchemePoint("dpsr") if args.scheme == "dpsr" else SchemePoint("spsr", args.rho)
    spec = SweepSpec(
        variable="psi_db", start=args.psi_db, stop=args.psi_db, step=1.0,
        params=_build_params(args, args.rho), stats=resolve_scenario(args.scenario),
        sim=_build_sim(args), schemes=(scheme,),
    )
    result = run_sweep(spec)
    row = result.rows[0]

    print(f"scenario={args.scenario} scheme={row.scheme} psi={args.psi_db:g} dB "
          f"phi={args.phi_db:g} dB jamming={args.jamming} e1_mode={args.e1_mode} "
          f"trials={spec.sim.trials}")
    if row.op_analytic is not None:
        print(f"  OP analytic = {row.op_analytic:.6g}")
    if row.op_mc is not None:
        print(f"  OP mc       = {row.op_mc:.6g} +/- {row.op_ci:.2g}")
    if row.ip_analytic is not None:
        print(f"  IP analytic = {row.ip_analytic:.6g}")
    if row.ip_mc is not None:
        print(f"  IP mc       = {row.ip_mc:.6g} +/- {row.ip_ci:.2g}")
    if row.error:
        print(f"  error: {row.error}", file=sys.stderr)
    if args.output:
        write_csv(result, args.output)
        print(f"wrote {args.output}")
    return 1 if row.error else 0


def _cmd_sweep(args) -> int:
    stats = resolve_scenario(args.scenario)
    var, start, stop, step = args.sweep
    kinds = [k.strip() for k in args.scheme.split(",") if k.strip()]
    unknown = set(kinds) - set(SCHEMES)
    if unknown:
        print(f"unknown scheme(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    schemes: list[SchemePoint] = []
    for kind in kinds:
        if kind == "dpsr":
            schemes.append(SchemePoint("dpsr"))
        elif var == "rho":
            schemes.append(SchemePoint("spsr"))
        else:
            schemes.extend(SchemePoint("spsr", r) for r in args.rho)
    params = _build_params(args, args.rho[0] if var != "rho" else 0.5)
    spec = SweepSpec(
        variable=var, start=start, stop=stop, step=step,
        params=params, stats=stats, sim=_build_sim(args),
        schemes=tuple(schemes), outputs=args.outputs,
    )
    result = run_sweep(spec)
    write_csv(result, args.output)
    n_err = sum(1 for r in result.rows if r.error)
    print(f"wrote {args.output}: {len(result.rows)} rows, {n_err} with errors")
    for row in result.rows:
        if row.error:
            print(f"  {result.variable}={row.value:g} {row.scheme}: {row.error}",
                  file=sys.stderr)
    if args.fail_on_flags is not None:
        report = compare_report(result)
        print(f"flagged {len(report.flagged)}/{report.n_compared} comparisons")
        if report.flagged_fraction > args.fail_on_flags:
            return 1
    return 1 if n_err else 0


def _cmd_compare(args) -> int:
    result = read_csv(args.input)
    report = compare_report(result, gap_allowance=args.gap_allowance)
    print(f"{args.input}: compared {report.n_compared} analytic/mc pairs")
    for scheme, stats in sorted(report.per_scheme.items()):
        print(f"  {scheme}: max |analytic-mc| = {stats['max_gap']:.4g}, "
              f"mean = {stats['mean_gap']:.4g} over {stats['n']} pairs")
    for value, scheme, metric, gap, bound in report.flagged:
        print(f"  FLAG {result.variable}={value:g} {scheme} {metric}: "
              f"gap {gap:.4g} > {bound:.4g}")
    print(f"flagged fraction: {report.flagged_fraction:.3f}")
    n_err = sum(1 for r in result.rows if r.error)
    if n_err:
        print(f"{n_err} rows carry errors", file=sys.stderr)
        return 1
    if args.max_flagged is not None and report.flagged_fraction > args.max_flagged:
        return 1
    return 0


def _cmd_scenario_check(args) -> int:
    try:
        stats = resolve_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    print(f"scenario {args.scenario}: chi={stats.chi}, "
          f"distance_decimals={stats.distance_decimals}")
    rc = 0
    if stats.positions is not None:
        dists = stats.distances()
        for link in LINK_KEYS:
            lam = getattr(stats, f"lambda_{link}")
            d = dists[link]
            geo = pathloss_rate(d, stats.chi)
            note = ""
            if abs(geo - lam) > 1e-4 + 1e-3 * lam:
                note = f"  MISMATCH vs geometry {geo:.6g}"
                rc = 1
            print(f"  lambda_{link} = {lam:.6g}  (distance {d:g}){note}")
    else:
        for link in LINK_KEYS:
            print(f"  lambda_{link} = {getattr(stats, f'lambda_{link}'):.6g}")
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="swipt-plsec",
        description="Outage/intercept analysis for an energy-harvesting relay "
                    "network with friendly jammers.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_point = subs.add_parser("point", help="evaluate one parameter point")
    _add_model_args(p_point, for_sweep=False)
    p_point.add_argument("--output", default=None, help="optional single-row CSV")
    p_point.set_defaults(func=_cmd_point)

    p_sweep = subs.add_parser("sweep", help="run a one-variable sweep to CSV")
    _add_model_args(p_sweep, for_sweep=True)
    p_sweep.add_argument("--sweep", type=_parse_sweep, required=True,
                         metavar="VAR:START:STOP:STEP",
                         help="variable in {psi_db, rho, M, K, phi_db} and grid")
    p_sweep.add_argument("--outputs", choices=("op", "ip", "both"), default="both")
    p_sweep.add_argument("--output", required=True, help="CSV destination")
    p_sweep.add_argument("--fail-on-flags", type=_finite_float, default=None, metavar="FRACTION",
                         help="exit nonzero when more than this fraction of rows is flagged")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = subs.add_parser("compare", help="report analytic-vs-MC agreement for a sweep CSV")
    p_cmp.add_argument("--input", required=True)
    p_cmp.add_argument("--gap-allowance", type=_finite_float, default=0.01,
                       help="absolute model-gap allowance added to 3*ci (default 0.01)")
    p_cmp.add_argument("--max-flagged", type=_finite_float, default=None, metavar="FRACTION",
                       help="exit nonzero above this flagged fraction (default: report only)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_chk = subs.add_parser("scenario-check", help="validate a scenario file")
    p_chk.add_argument("--scenario", required=True,
                       help=f"path or packaged name ({', '.join(packaged_scenarios())})")
    p_chk.set_defaults(func=_cmd_scenario_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
