"""Command-line experiment runner.

Subcommands: ``point`` (a one-point psi sweep, printed row by row),
``sweep`` (one variable sweep written as CSV), ``compare`` (analytic-vs-MC
agreement report on a sweep CSV), ``scenario-check`` (validate a scenario
file and print its rates).
``point`` and ``sweep`` take one set of model options and build their
:class:`SweepSpec` in one place, so a point is row for row the one-point
sweep at its ``--psi-db``; ``point`` only defaults ``--scheme`` to ``spsr``
and prints its header from the spec it ran.
The dB-valued options ``--psi-db`` and ``--phi-db`` convert to linear as
10**(x/10) at this boundary (a value beyond float range is an error).  A
``psi_db`` or ``phi_db`` grid stays in dB: the sweep converts each grid value
by the same rule, so every ``SystemParams`` field is linear.
``sweep`` computes and writes the analytic and Monte-Carlo columns; only
``compare`` judges their agreement.  Its gate options are parsed by the
sweep CSV's number rule and must be finite, ``--gap-allowance`` >= 0 and
``--max-flagged`` in [0, 1]: a NaN gate never fails, nor a fraction above
1; a negative fraction fails with no flag, and a negative allowance flags
pairs that agree exactly.  The option choices and defaults
that the library fixes (``--e1-mode``, ``--outputs``, the ``--sweep``
variables, ``--trials``, ``--workers``, its block size) are read from it.
"""

from __future__ import annotations

import argparse
import math
import sys

from .channel import LINK_KEYS, ChannelStats
from .core import E1_MODES, SCHEMES, SystemParams
from .montecarlo import ROW_BLOCK, SimConfig
from .scenario import ScenarioError, packaged_scenarios, resolve_scenario
from .specfun import NumericalError
from .sweep import (
    OUTPUTS,
    SWEEP_VARIABLES,
    SchemePoint,
    SweepSpec,
    _db_to_linear,
    _finite_float as _csv_finite_float,
    compare_report,
    read_csv,
    run_sweep,
    write_csv,
)

__all__ = ["main"]

TABLE_RHOS = (0.225, 0.325, 0.5, 0.875, 0.915)


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


def _parse_schemes(text: str) -> list[str]:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    unknown = sorted(set(kinds) - set(SCHEMES))
    if unknown or not kinds:
        raise argparse.ArgumentTypeError(
            f"unknown scheme(s) {unknown}" if unknown else "empty scheme list")
    return kinds


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


def _gate(low: float, high: float, what: str):
    """Argparse type: a finite number by the sweep CSV's rule, in [low, high]."""
    def parse(text: str) -> float:
        try:
            value = _csv_finite_float(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _add_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", default="s1",
                     help="scenario file path or packaged name (default: s1)")
    sub.add_argument("--eta", type=float, default=0.8, help="energy-conversion efficiency")
    sub.add_argument("--c-th", type=float, default=0.5, help="target rate, bits/s/Hz")
    sub.add_argument("--psi-db", type=float, default=2.0, help="source power-to-noise ratio, dB")
    sub.add_argument("--phi-db", type=float, default=1.0, help="jammer power-to-noise ratio, dB")
    sub.add_argument("--num-sources", type=int, default=2, help="number of candidate sources")
    sub.add_argument("--num-jammers", type=int, default=1, help="number of friendly jammers")
    sub.add_argument("--jamming", choices=("on", "off"), default="on",
                     help="off silences the jammers: phi = 0 whatever --phi-db")
    sub.add_argument("--e1-mode", choices=E1_MODES, default=SimConfig.e1_mode,
                     help="first-slot eavesdropper SNR model for the simulation")
    sub.add_argument("--trials", type=int, default=SimConfig.trials,
                     help="Monte-Carlo trials per point (default 10^6)")
    sub.add_argument("--seed", type=int, default=12345, help="master seed")
    sub.add_argument("--workers", type=int, default=SimConfig.workers,
                     help="stream partitions, run concurrently on at most as many threads "
                          "as there are usable CPUs; a fixed (seed, workers) reproduces "
                          "bitwise. Fewer workers than usable CPUs, with at least "
                          f"2^{ROW_BLOCK.bit_length() - 1} trials each, let a point's "
                          "analytic cells run on a spare CPU beside its Monte-Carlo run")
    sub.add_argument("--scheme", type=_parse_schemes, default=list(SCHEMES),
                     help=f"comma list drawn from {{{', '.join(SCHEMES)}}}")
    sub.add_argument("--rho", type=_parse_rho_list, default=[0.5],
                     help="comma list of splitting ratios for spsr curves, or 'table1'")


def _spec(args, variable: str, start: float, stop: float, step: float,
          outputs: str) -> SweepSpec:
    """The sweep of ``variable`` over start:stop:step that the model options describe."""
    if variable == "phi_db" and args.jamming == "off":
        raise ValueError("--jamming off sets phi = 0, which a phi_db --sweep would replace")
    # a static curve per --rho value, or one whose rho the rho grid supplies
    rhos = [None] if variable == "rho" else args.rho
    schemes = [SchemePoint(kind, rho) for kind in args.scheme
               for rho in ([None] if kind == "dpsr" else rhos)]
    params = SystemParams(
        eta=args.eta, rho=args.rho[0],
        psi=_db_to_linear(args.psi_db),
        phi=_db_to_linear(args.phi_db) if args.jamming == "on" else 0.0,
        num_sources=args.num_sources, num_jammers=args.num_jammers, c_th=args.c_th,
    )
    return SweepSpec(
        variable=variable, start=start, stop=stop, step=step,
        params=params, stats=resolve_scenario(args.scenario),
        sim=SimConfig(trials=args.trials, seed=args.seed, workers=args.workers,
                      e1_mode=args.e1_mode),
        schemes=tuple(schemes), outputs=outputs,
    )


def _report_errors(result) -> int:
    """Print each row error to stderr; return the number of rows with one."""
    failed = [row for row in result.rows if row.error]
    for row in failed:
        print(f"  {result.variable}={row.value:g} {row.scheme}: {row.error}", file=sys.stderr)
    return len(failed)


def _cmd_point(args) -> int:
    spec = _spec(args, "psi_db", args.psi_db, args.psi_db, 1.0, "both")
    result = run_sweep(spec)
    phi = spec.params.phi
    phi_db = 10 * math.log10(phi) if phi > 0 else -math.inf
    print(f"scenario={args.scenario} psi={spec.start:g} dB phi={phi_db:g} dB "
          f"e1_mode={spec.sim.e1_mode} trials={spec.sim.trials}")
    for row in result.rows:
        print(row.scheme)
        for metric in ("op", "ip"):
            a, mc, ci = (getattr(row, f"{metric}_{col}") for col in ("analytic", "mc", "ci"))
            if a is not None:
                print(f"  {metric.upper()} analytic = {a:.6g}")
            if mc is not None:
                print(f"  {metric.upper()} mc       = {mc:.6g} +/- {ci:.2g}")
    n_err = _report_errors(result)
    if args.output:
        write_csv(result, args.output)
        print(f"wrote {args.output}")
    return 1 if n_err else 0


def _cmd_sweep(args) -> int:
    result = run_sweep(_spec(args, *args.sweep, args.outputs))
    write_csv(result, args.output)
    n_err = _report_errors(result)
    print(f"wrote {args.output}: {len(result.rows)} rows, {n_err} with errors")
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
    stats = resolve_scenario(args.scenario)
    print(f"scenario {args.scenario}: chi={stats.chi}, "
          f"distance_decimals={stats.distance_decimals}")
    if stats.positions is None:
        for link in LINK_KEYS:
            print(f"  lambda_{link} = {getattr(stats, f'lambda_{link}'):.6g}")
        return 0
    dists = stats.distances()
    # the rates of the geometry alone, without the file's overrides
    geometry = ChannelStats.from_positions(stats.positions, stats.chi, stats.distance_decimals)
    rc = 0
    for link in LINK_KEYS:
        lam, geo = getattr(stats, f"lambda_{link}"), getattr(geometry, f"lambda_{link}")
        note = ""
        if abs(geo - lam) > 1e-4 + 1e-3 * lam:
            note, rc = f"  MISMATCH vs geometry {geo:.6g}", 1
        print(f"  lambda_{link} = {lam:.6g}  (distance {dists[link]:g}){note}")
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="swipt-plsec",
        description="Outage/intercept analysis for an energy-harvesting relay "
                    "network with friendly jammers.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_point = subs.add_parser("point", help="evaluate one parameter point")
    _add_model_args(p_point)
    p_point.add_argument("--output", default=None, help="optional CSV of the point's rows")
    p_point.set_defaults(func=_cmd_point, scheme=["spsr"])

    p_sweep = subs.add_parser("sweep", help="run a one-variable sweep to CSV")
    _add_model_args(p_sweep)
    p_sweep.add_argument("--sweep", type=_parse_sweep, required=True,
                         metavar="VAR:START:STOP:STEP",
                         help=f"variable in {{{', '.join(SWEEP_VARIABLES)}}} and grid")
    p_sweep.add_argument("--outputs", choices=tuple(OUTPUTS), default="both")
    p_sweep.add_argument("--output", required=True, help="CSV destination")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = subs.add_parser("compare", help="report analytic-vs-MC agreement for a sweep CSV")
    p_cmp.add_argument("--input", required=True)
    p_cmp.add_argument("--gap-allowance", type=_gate(0.0, math.inf, "a number >= 0"),
                       default=0.01,
                       help="absolute model-gap allowance added to 3*ci (default 0.01)")
    p_cmp.add_argument("--max-flagged", type=_gate(0.0, 1.0, "a fraction in [0, 1]"),
                       default=None, metavar="FRACTION",
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
