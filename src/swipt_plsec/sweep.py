"""Parameter-sweep harness pairing analytic values with Monte-Carlo estimates.

A sweep varies one of ``psi_db``, ``rho``, ``M``, ``K``, ``phi_db`` and
produces one row per (point, scheme).  The analytic routes run at their
default accuracy, and all come from :mod:`swipt_plsec.analytic`.  Outage
comes from ``op_spsr``/``op_dpsr``, the best-source CDF averaged over the
relay-to-destination gain by its Gauss-Kronrod (G10/K21) kernel.  Intercept
comes from ``ip_*_quadrature``, the closed-form slot factors averaged over
the jammer aggregate by the same kernel, or from ``ip_*_no_jamming`` with
the jammers silent.  No cell comes from :mod:`swipt_plsec.reference`: the
paper's outage closed form and series cancel or stop converging inside the
sweep envelope, and its intercept series is asymptotic.  The swept variable
is applied once per point, by the field and conversion ``_VARIABLE_FIELDS``
gives it, and each scheme changes only ``rho`` (its own, or the point's), so
the schemes of a point differ in nothing else.  Each point draws
its Monte-Carlo seed from (master seed, point index), so points can be
computed in any order, or concurrently, without changing results.  The rows
of one point share its per-link streams (common random numbers), and one
Monte-Carlo run per point draws them once and counts every scheme on the
draw; each row's estimates are bitwise those of a run of its scheme alone.
The run counts only the metrics ``outputs`` asks for and draws only the
links they read, so its estimates are bitwise those of a joint run.  A grid
value that gives no usable parameters marks its point's rows, and the sweep
goes on.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .analytic import (
    ip_dpsr_no_jamming,
    ip_dpsr_quadrature,
    ip_spsr_no_jamming,
    ip_spsr_quadrature,
    op_dpsr,
    op_spsr,
)
from .channel import ChannelStats, derive_seed
from .core import SCHEMES, SystemParams
from .montecarlo import METRICS, SimConfig, simulate_point
from .specfun import NumericalError

__all__ = [
    "SWEEP_VARIABLES",
    "SchemePoint",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "CompareReport",
    "sweep_values",
    "run_sweep",
    "compare_report",
    "write_csv",
    "read_csv",
]


def _db_to_linear(db: float) -> float:
    """10**(db/10); ``ValueError`` where that is beyond float range."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db:g} dB is beyond float range in linear units") from None


# swept variable -> (SystemParams field it sets, conversion of the grid value)
_VARIABLE_FIELDS = {
    "psi_db": ("psi", _db_to_linear),
    "rho": ("rho", float),
    "M": ("num_sources", int),
    "K": ("num_jammers", int),
    "phi_db": ("phi", _db_to_linear),
}
SWEEP_VARIABLES = tuple(_VARIABLE_FIELDS)

_CSV_FIELDS = ("scheme", "op_analytic", "op_mc", "op_ci",
               "ip_analytic", "ip_mc", "ip_ci", "runtime_ms", "error")


@dataclass(frozen=True)
class SchemePoint:
    """One curve of a sweep: static splitting at a fixed rho, or dynamic.

    ``rho=None`` on a static-splitting scheme means the swept variable
    supplies rho (only valid in a rho sweep).
    """

    kind: str
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "dpsr" and self.rho is not None:
            raise ValueError("dynamic splitting takes no rho")

    @property
    def label(self) -> str:
        if self.kind == "spsr" and self.rho is not None:
            return f"spsr@{self.rho:g}"
        return self.kind


@dataclass(frozen=True)
class SweepSpec:
    """Full description of a sweep: grid, fixed parameters, and outputs."""

    variable: str
    start: float
    stop: float
    step: float
    params: SystemParams
    stats: ChannelStats
    sim: SimConfig
    schemes: tuple[SchemePoint, ...] = (SchemePoint("spsr", 0.5), SchemePoint("dpsr"))
    outputs: str = "both"

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.start > self.stop:
            raise ValueError("need start <= stop")
        if self.outputs not in ("op", "ip", "both"):
            raise ValueError(f"outputs must be op, ip or both, got {self.outputs!r}")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if self.variable == "rho":
            if not (0 < self.start and self.stop < 1):
                raise ValueError("rho sweeps must stay inside the open interval (0, 1)")
            for sp in self.schemes:
                if sp.kind == "spsr" and sp.rho is not None:
                    raise ValueError("rho sweep supplies rho; use SchemePoint('spsr')")
        else:
            for sp in self.schemes:
                if sp.kind == "spsr" and sp.rho is None:
                    raise ValueError(f"{self.variable} sweep needs an explicit rho per spsr scheme")
        if self.variable in ("M", "K"):
            for v in (self.start, self.stop, self.step):
                if v != int(v):
                    raise ValueError(f"{self.variable} sweep requires integer start/stop/step")


@dataclass
class SweepRow:
    """One (point, scheme) cell set.

    ``runtime_ms`` is the row's analytic time plus an equal share of its
    point's Monte-Carlo time, which all the point's rows share.
    """

    value: float
    scheme: str
    op_analytic: float | None = None
    op_mc: float | None = None
    op_ci: float | None = None
    ip_analytic: float | None = None
    ip_mc: float | None = None
    ip_ci: float | None = None
    runtime_ms: float | None = None
    error: str = ""


@dataclass
class SweepResult:
    variable: str
    rows: list[SweepRow]


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    """Grid start, start+step, ... up to stop (inclusive within 1e-9 of a step).

    Raises ``ValueError`` on a non-finite bound or step, or a step <= 0, on
    which the grid would never end."""
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
        raise ValueError(f"need a finite grid with step > 0, got {start!r}:{stop!r}:{step!r}")
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + step * 1e-9:
            break
        values.append(round(v, 12))
        i += 1
    return values


def analytic_op(p: SystemParams, s: ChannelStats, scheme_kind: str) -> float:
    return op_dpsr(p, s) if scheme_kind == "dpsr" else op_spsr(p, s)


def analytic_ip(p: SystemParams, s: ChannelStats, scheme_kind: str, jamming: bool) -> float:
    if scheme_kind == "dpsr":
        return ip_dpsr_quadrature(p, s) if jamming else ip_dpsr_no_jamming(p, s)
    return ip_spsr_quadrature(p, s) if jamming else ip_spsr_no_jamming(p, s)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute the sweep; failures mark the row and the sweep continues.

    Each analytic metric is computed on its own, so a failure of one leaves
    the other's cell filled; the row error names the metric that failed.  A
    Monte-Carlo failure marks every row of its point, which share one run,
    and so does a grid value that gives no usable parameters.
    """
    rows: list[SweepRow] = []
    s = spec.stats
    metrics = METRICS if spec.outputs == "both" else (spec.outputs,)
    field, convert = _VARIABLE_FIELDS[spec.variable]
    for index, value in enumerate(sweep_values(spec.start, spec.stop, spec.step)):
        try:
            p = replace(spec.params, **{field: convert(value)})
        except ValueError as exc:  # an unusable point marks its rows only
            rows.extend(SweepRow(value=value, scheme=sp.label, error=f"params: {exc}")
                        for sp in spec.schemes)
            continue
        # the schemes' params differ only in rho: a static curve's own, else the point's
        schemes = [(sp.kind, p.rho if sp.rho is None else sp.rho) for sp in spec.schemes]
        point = []  # (row, its errors) per scheme
        for scheme, (kind, rho) in zip(spec.schemes, schemes):
            t0 = time.perf_counter()
            # replace validates every field again, so skip it where nothing changes
            rp = p if rho == p.rho else replace(p, rho=rho)
            row = SweepRow(value=value, scheme=scheme.label)
            errors = []
            if spec.outputs in ("op", "both"):
                try:
                    row.op_analytic = analytic_op(rp, s, kind)
                except (NumericalError, ValueError) as exc:
                    errors.append(f"analytic op: {exc}")
            if spec.outputs in ("ip", "both"):
                try:
                    row.ip_analytic = analytic_ip(rp, s, kind, spec.sim.jamming)
                except (NumericalError, ValueError) as exc:
                    errors.append(f"analytic ip: {exc}")
            row.runtime_ms = (time.perf_counter() - t0) * 1e3
            point.append((row, errors))
        t0 = time.perf_counter()
        try:
            sim = replace(spec.sim, seed=derive_seed(spec.sim.seed, index))
            estimates = simulate_point(p, s, sim, schemes, metrics)
            for (row, _), (op_est, ip_est) in zip(point, estimates):
                if op_est is not None:
                    row.op_mc, row.op_ci = op_est.estimate, op_est.ci_halfwidth
                if ip_est is not None:
                    row.ip_mc, row.ip_ci = ip_est.estimate, ip_est.ci_halfwidth
        except ValueError as exc:
            for _, errors in point:
                errors.append(f"mc: {exc}")
        mc_share_ms = (time.perf_counter() - t0) * 1e3 / len(point)
        for row, errors in point:
            row.error = "; ".join(errors)
            row.runtime_ms += mc_share_ms
            rows.append(row)
    return SweepResult(spec.variable, rows)


@dataclass
class CompareReport:
    """Analytic-vs-MC agreement summary: per-scheme gap statistics and flags."""

    per_scheme: dict[str, dict[str, float]]
    flagged: list[tuple[float, str, str, float, float]]  # (value, scheme, metric, gap, bound)
    n_compared: int

    @property
    def flagged_fraction(self) -> float:
        return len(self.flagged) / self.n_compared if self.n_compared else 0.0


def compare_report(result: SweepResult, gap_allowance: float = 0.01) -> CompareReport:
    """Flag rows where |analytic - mc| exceeds 3*ci + ``gap_allowance``.

    The allowance absorbs the first-slot modeling gap between the analytic
    intercept expressions and an exact-mode simulation; it must be finite.
    """
    if not math.isfinite(gap_allowance):
        raise ValueError(f"gap_allowance must be finite, got {gap_allowance!r}")
    per_scheme: dict[str, dict[str, float]] = {}
    flagged = []
    n_compared = 0
    for row in result.rows:
        for metric in ("op", "ip"):
            a = getattr(row, f"{metric}_analytic")
            m = getattr(row, f"{metric}_mc")
            ci = getattr(row, f"{metric}_ci")
            if a is None or m is None or ci is None:
                continue
            n_compared += 1
            gap = abs(a - m)
            stats = per_scheme.setdefault(row.scheme, {"max_gap": 0.0, "sum_gap": 0.0, "n": 0})
            stats["max_gap"] = max(stats["max_gap"], gap)
            stats["sum_gap"] += gap
            stats["n"] += 1
            bound = 3.0 * ci + gap_allowance
            if gap > bound:
                flagged.append((row.value, row.scheme, metric, gap, bound))
    for stats in per_scheme.values():
        stats["mean_gap"] = stats["sum_gap"] / stats["n"]
        del stats["sum_gap"]
    return CompareReport(per_scheme, flagged, n_compared)


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def write_csv(result: SweepResult, path: str | Path) -> None:
    """12-significant-digit decimal CSV, LF line endings, nulls as empty fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((result.variable,) + _CSV_FIELDS)
        for row in result.rows:
            writer.writerow([
                _fmt(row.value), row.scheme,
                _fmt(row.op_analytic), _fmt(row.op_mc), _fmt(row.op_ci),
                _fmt(row.ip_analytic), _fmt(row.ip_mc), _fmt(row.ip_ci),
                _fmt(row.runtime_ms), row.error,
            ])


def read_csv(path: str | Path) -> SweepResult:
    """Read a :func:`write_csv` file back; raises ``ValueError`` naming the
    file and line for an empty file, a foreign header, a row whose field
    count differs from the header's, or a record the csv module rejects."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a sweep CSV header")
            if tuple(header[1:]) != _CSV_FIELDS:
                raise ValueError(f"unexpected sweep CSV header in {path}")
            rows = []
            for rec in reader:
                if len(rec) != len(header):
                    raise ValueError(f"{path}, line {reader.line_num}: {len(rec)} fields, "
                                     f"the header has {len(header)}")
                opt = [float(v) if v else None for v in rec[2:9]]
                rows.append(SweepRow(
                    value=float(rec[0]), scheme=rec[1],
                    op_analytic=opt[0], op_mc=opt[1], op_ci=opt[2],
                    ip_analytic=opt[3], ip_mc=opt[4], ip_ci=opt[5],
                    runtime_ms=opt[6], error=rec[9],
                ))
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return SweepResult(header[0], rows)
