"""Parameter-sweep harness pairing analytic values with Monte-Carlo estimates.

A sweep varies one of ``psi_db``, ``rho``, ``M``, ``K``, ``phi_db`` and
produces one row per (point, scheme).  The analytic routes run at their
default accuracy, and all come from :mod:`swipt_plsec.analytic`: outage
from ``op_spsr``/``op_dpsr``, intercept from ``ip_*_quadrature``, or from
``ip_*_no_jamming`` at phi = 0, where the jammers are silent in the
Monte-Carlo run too.  No cell comes from :mod:`swipt_plsec.reference`, whose
closed forms and series cancel, stop converging or are asymptotic inside
the sweep envelope.  The swept variable is applied once per point, by the
field and conversion ``_VARIABLE_FIELDS`` gives it, and each scheme changes
only ``rho`` (its own, or the point's), so the schemes of a point differ in
nothing else.  Each point draws its Monte-Carlo seed from (master seed,
point index), so points can be computed in any order without changing
results, and makes one :func:`~swipt_plsec.montecarlo.simulate_point` run
for all its schemes and the metrics ``outputs`` asks for; the engine's
docstring says why each row is bitwise that of a run of its scheme and
metric alone.  A grid value that gives no usable parameters marks its
point's rows, and the sweep goes on.  Where the engine's
``leaves_cpu_idle`` holds, :func:`run_sweep` overlaps each point's analytic
cells with its Monte-Carlo run.
"""

from __future__ import annotations

import contextvars
import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Collection, Sequence

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
from .montecarlo import METRICS, SimConfig, leaves_cpu_idle, simulate_point
from .specfun import NumericalError

__all__ = [
    "SWEEP_VARIABLES",
    "OUTPUTS",
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

# a sweep's ``outputs`` -> the metrics its rows carry
OUTPUTS = {"op": ("op",), "ip": ("ip",), "both": METRICS}


@dataclass(frozen=True)
class SchemePoint:
    """One curve of a sweep: static splitting at a fixed rho in [0, 1], or dynamic.

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
        if self.rho is not None and not 0 <= self.rho <= 1:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")

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
        if self.outputs not in OUTPUTS:
            raise ValueError(f"outputs must be one of {tuple(OUTPUTS)}, got {self.outputs!r}")
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
    point's Monte-Carlo time, which all the point's rows share.  Where the
    analytic cells overlap the Monte-Carlo run, a point's row times can add
    up to more than its wall time.
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


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _optional_float(text: str) -> float | None:
    return _finite_float(text) if text else None


# CSV columns: SweepRow's fields in order, ``value`` headed by the swept
# variable; each is read back by the parser of its annotated type
_CSV_FIELDS = tuple(f.name for f in fields(SweepRow))
_CSV_CELLS = attrgetter(*_CSV_FIELDS)
_CSV_PARSERS = tuple({"float": _finite_float, "str": str, "float | None": _optional_float}[f.type]
                     for f in fields(SweepRow))


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


def analytic_ip(p: SystemParams, s: ChannelStats, scheme_kind: str) -> float:
    if scheme_kind == "dpsr":
        return ip_dpsr_quadrature(p, s) if p.phi > 0 else ip_dpsr_no_jamming(p, s)
    return ip_spsr_quadrature(p, s) if p.phi > 0 else ip_spsr_no_jamming(p, s)


def _analytic_cells(value: float, p: SystemParams, s: ChannelStats,
                    schemes: Sequence[tuple[str, str, float]],
                    metrics: Collection[str]) -> list[tuple[SweepRow, list[str]]]:
    """One (row, its errors) pair per (label, kind, rho) scheme of the point
    at ``p``: the row's analytic cells, and its analytic time in ``runtime_ms``."""
    point = []
    for label, kind, rho in schemes:
        t0 = time.perf_counter()
        # replace validates every field again, so skip it where nothing changes
        rp = p if rho == p.rho else replace(p, rho=rho)
        row = SweepRow(value=value, scheme=label)
        errors = []
        if "op" in metrics:
            try:
                row.op_analytic = analytic_op(rp, s, kind)
            except (NumericalError, ValueError) as exc:
                errors.append(f"analytic op: {exc}")
        if "ip" in metrics:
            try:
                row.ip_analytic = analytic_ip(rp, s, kind)
            except (NumericalError, ValueError) as exc:
                errors.append(f"analytic ip: {exc}")
        row.runtime_ms = (time.perf_counter() - t0) * 1e3
        point.append((row, errors))
    return point


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute the sweep; failures mark the row and the sweep continues.

    Each analytic metric is computed on its own, so a failure of one leaves
    the other's cell filled; the row error names the metric that failed.  A
    Monte-Carlo failure marks every row of its point, which share one run,
    and so does a grid value that gives no usable parameters.  Where
    ``montecarlo.leaves_cpu_idle`` holds for ``spec.sim``, a point's analytic
    cells run on one helper thread, in the caller's context, while this
    thread runs its Monte-Carlo; the helper is joined before the rows are
    filled.  The threads share no stream, seed or workspace, so every cell
    is bitwise that of the inline path.
    """
    rows: list[SweepRow] = []
    s = spec.stats
    metrics = OUTPUTS[spec.outputs]
    field, convert = _VARIABLE_FIELDS[spec.variable]
    with ThreadPoolExecutor(1) if leaves_cpu_idle(spec.sim) else nullcontext() as helper:
        for index, value in enumerate(sweep_values(spec.start, spec.stop, spec.step)):
            try:
                p = replace(spec.params, **{field: convert(value)})
            except ValueError as exc:  # an unusable point marks its rows only
                rows.extend(SweepRow(value=value, scheme=sp.label, error=f"params: {exc}")
                            for sp in spec.schemes)
                continue
            # the schemes' params differ only in rho: a static curve's own, else the point's
            schemes = [(sp.label, sp.kind, p.rho if sp.rho is None else sp.rho)
                       for sp in spec.schemes]
            cells = (value, p, s, schemes, metrics)
            if helper:  # the cells run there while this thread runs the MC
                pending = helper.submit(contextvars.copy_context().run, _analytic_cells, *cells)
            else:
                point = _analytic_cells(*cells)
            t0 = time.perf_counter()
            mc_error = None
            try:
                sim = replace(spec.sim, seed=derive_seed(spec.sim.seed, index))
                estimates = simulate_point(p, s, sim, [(kind, rho) for _, kind, rho in schemes],
                                           metrics)
            except ValueError as exc:
                estimates, mc_error = [(None, None)] * len(schemes), f"mc: {exc}"
            mc_share_ms = (time.perf_counter() - t0) * 1e3 / len(schemes)
            if helper:
                point = pending.result()
            for (row, errors), (op_est, ip_est) in zip(point, estimates):
                if op_est is not None:
                    row.op_mc, row.op_ci = op_est.estimate, op_est.ci_halfwidth
                if ip_est is not None:
                    row.ip_mc, row.ip_ci = ip_est.estimate, ip_est.ci_halfwidth
                if mc_error:
                    errors.append(mc_error)
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
    intercept expressions and an exact-mode simulation; it must be finite
    and non-negative, since a negative one flags pairs that agree exactly.
    """
    if not 0 <= gap_allowance < math.inf:
        raise ValueError(f"gap_allowance must be finite and non-negative, got {gap_allowance!r}")
    gaps: dict[str, list[float]] = {}  # per scheme, in row order
    flagged = []
    for row in result.rows:
        for metric in METRICS:
            a, m, ci = (getattr(row, f"{metric}_{col}") for col in ("analytic", "mc", "ci"))
            if a is None or m is None or ci is None:
                continue
            gap = abs(a - m)
            gaps.setdefault(row.scheme, []).append(gap)
            bound = 3.0 * ci + gap_allowance
            if gap > bound:
                flagged.append((row.value, row.scheme, metric, gap, bound))
    per_scheme = {scheme: {"max_gap": max(g), "n": len(g), "mean_gap": sum(g) / len(g)}
                  for scheme, g in gaps.items()}
    return CompareReport(per_scheme, flagged, sum(map(len, gaps.values())))


def write_csv(result: SweepResult, path: str | Path) -> None:
    """One column per :class:`SweepRow` field, in order; 12-significant-digit
    decimals, LF line endings, nulls as empty fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((result.variable,) + _CSV_FIELDS[1:])
        for row in result.rows:
            writer.writerow(["" if x is None else x if isinstance(x, str) else f"{x:.12g}"
                             for x in _CSV_CELLS(row)])


def read_csv(path: str | Path) -> SweepResult:
    """Read a :func:`write_csv` file back; raises ``ValueError`` naming the
    file and line for an empty file, a foreign header, a row whose field
    count differs from the header's, a number cell that is not a finite
    number, or a record the csv module rejects."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a sweep CSV header")
            if tuple(header[1:]) != _CSV_FIELDS[1:]:
                raise ValueError(f"unexpected sweep CSV header in {path}")
            rows = []
            for rec in reader:
                if len(rec) != len(header):
                    raise ValueError(f"{path}, line {reader.line_num}: {len(rec)} fields, "
                                     f"the header has {len(header)}")
                cells = []
                for name, parse, text in zip(header, _CSV_PARSERS, rec):
                    try:
                        cells.append(parse(text))
                    except ValueError as exc:
                        raise ValueError(f"{path}, line {reader.line_num}: {name}: {exc}") from None
                rows.append(SweepRow(*cells))
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return SweepResult(header[0], rows)
