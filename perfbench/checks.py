"""Output checks for sweep CSVs produced by ``swipt-plsec sweep``.

An operation is one sweep row.  A row fails when it carries an error, or when
one of its cells fails its check:

- an analytic OP cell must be finite, lie in [0, 1] and agree with the
  reference quadrature (``op_*_quadrature``) to ``REF_REL_TOL`` relative plus
  ``REF_ABS_TOL`` absolute.  A cell whose reference also fails is unverified:
  it is range-checked only and counted apart;
- an analytic IP cell must be finite and lie in [0, 1];
- an MC cell must be a probability with a finite, nonnegative CI.

Analytic-vs-MC agreement is reported, not failed: a pair is flagged when
``|analytic - mc| > 3 * ci``.  The CI is a 95% half-width, so the threshold
sits near 5.9 standard errors, and an unbiased pair crosses it with a
probability near 1e-8 for any MC stream.  A pair within one CI of the
threshold is counted as marginal, because a new stream could flip it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

# The analytic routes claim 1e-8 relative accuracy, and the reference runs at
# that tolerance; a cell is wrong when it misses the reference by 100 times
# that.  The absolute part is the reference's own absolute error budget.
QUAD_REL_TOL = 1e-8
REF_REL_TOL = 1e-6
REF_ABS_TOL = 1e-11

MC_COLUMNS = ("op_mc", "op_ci", "ip_mc", "ip_ci")
ANALYTIC_COLUMNS = ("op_analytic", "ip_analytic")


@dataclass
class SweepCall:
    """The model a sweep argument vector describes, as the checks need it."""

    variable: str
    grid: list[float]
    schemes: list[str]
    outputs: str
    scenario: str
    base: dict[str, float]

    @classmethod
    def from_argv(cls, argv: list[str]) -> "SweepCall":
        if argv[0] != "sweep":
            raise ValueError(f"not a sweep argument vector: {argv!r}")
        opts = dict(zip(argv[1::2], argv[2::2]))
        variable, start, stop, step = opts["--sweep"].split(":")
        start, stop, step = float(start), float(stop), float(step)
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        rhos = opts["--rho"].split(",")
        schemes = []
        for kind in opts["--scheme"].split(","):
            schemes.extend(["dpsr"] if kind == "dpsr" else [f"spsr@{float(r):g}" for r in rhos])
        base = {
            "eta": float(opts["--eta"]), "c_th": float(opts["--c-th"]),
            "psi_db": float(opts["--psi-db"]), "phi_db": float(opts["--phi-db"]),
            "M": int(opts["--num-sources"]), "K": int(opts["--num-jammers"]),
            "rho": float(rhos[0]),
        }
        return cls(variable, [round(start + i * step, 12) for i in range(n)], schemes,
                   opts["--outputs"], opts["--scenario"], base)

    def params(self, value: float, scheme: str) -> dict[str, float]:
        """Model parameters of one row, in the CLI's units (dB where it uses dB)."""
        p = dict(self.base, **{self.variable: value})
        if scheme.startswith("spsr@"):
            p["rho"] = float(scheme.split("@", 1)[1])
        return p


@dataclass
class CheckReport:
    rows: int = 0
    row_errors: int = 0
    bad_cells: int = 0
    failed_rows: int = 0
    analytic_cells: int = 0
    unverified_cells: int = 0
    mc_compared: int = 0
    mc_flagged: int = 0
    mc_marginal: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "CheckReport") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def parse_rows(text: str) -> tuple[str, list[dict[str, str]]]:
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    return (reader.fieldnames or [""])[0], rows


def column_digest(text: str, columns: tuple[str, ...]) -> str:
    """SHA-256 over the given CSV columns, row by row, as written."""
    _, rows = parse_rows(text)
    h = hashlib.sha256()
    for row in rows:
        h.update("\x1f".join(row[c] for c in columns).encode())
        h.update(b"\n")
    return h.hexdigest()


def _num(text: str) -> float | None:
    return float(text) if text else None


def _is_prob(x: float | None) -> bool:
    return x is not None and math.isfinite(x) and 0.0 <= x <= 1.0


def check_sweep(call: SweepCall, text: str, reference) -> CheckReport:
    """Check one sweep CSV against the call that produced it.

    ``reference(call, value, scheme)`` returns the reference OP, or ``None``
    when the reference itself fails.
    """
    rep = CheckReport()
    variable, rows = parse_rows(text)
    expected = [(v, s) for v in call.grid for s in call.schemes]
    got = [(float(r[variable]), r["scheme"]) for r in rows]
    if variable != call.variable or got != expected:
        rep.problems.append(f"{call.scenario} {call.variable}: rows {got[:3]}... "
                            f"do not match the requested grid {expected[:3]}...")
        return rep
    metrics = {"op": ("op",), "ip": ("ip",), "both": ("op", "ip")}[call.outputs]
    for row, (value, scheme) in zip(rows, expected):
        rep.rows += 1
        failed = False
        if row["error"]:
            rep.row_errors += 1
            failed = True
        for m in metrics:
            mc, ci = _num(row[f"{m}_mc"]), _num(row[f"{m}_ci"])
            a = _num(row[f"{m}_analytic"])
            if (mc is None or a is None) and not row["error"]:
                rep.problems.append(f"{variable}={value:g} {scheme}: missing {m} cell "
                                    "in a row without an error")
                failed = True
            if mc is not None and not (_is_prob(mc) and ci is not None
                                       and math.isfinite(ci) and ci >= 0):
                rep.bad_cells += 1
                failed = True
            if a is None:
                continue
            rep.analytic_cells += 1
            ok = _is_prob(a)
            if ok and m == "op":
                ref = reference(call, value, scheme)
                if ref is None:
                    rep.unverified_cells += 1
                else:
                    ok = abs(a - ref) <= REF_REL_TOL * abs(ref) + REF_ABS_TOL
            if not ok:
                rep.bad_cells += 1
                failed = True
            if _is_prob(mc) and ci is not None and math.isfinite(a):
                rep.mc_compared += 1
                gap = abs(a - mc)
                rep.mc_flagged += gap > 3.0 * ci
                rep.mc_marginal += abs(gap - 3.0 * ci) < ci
        rep.failed_rows += failed
    return rep


class Reference:
    """Reference OP by the program's quadrature routes, one call per cell.

    The routes run at an absolute tolerance they meet across the envelope:
    at the default 1e-12 they raise at 25 dB, where the error estimate sits
    just above that budget.  Values are cached in ``cache_dir``, in a file
    named by a digest of the package source and the numpy and scipy versions,
    so a changed program never reads another program's references.
    """

    def __init__(self, swipt_plsec, cache_dir: Path):
        import numpy
        import scipy
        self._pkg = swipt_plsec
        self._cfg = swipt_plsec.AnalyticConfig(
            quad=swipt_plsec.QuadratureSpec(rel_tol=QUAD_REL_TOL, abs_tol=REF_ABS_TOL))
        self._stats: dict[str, object] = {}
        src = Path(swipt_plsec.__file__).parent
        digest = hashlib.sha256(repr((numpy.__version__, scipy.__version__, QUAD_REL_TOL,
                                      REF_ABS_TOL)).encode())
        for path in sorted(src.rglob("*")):
            if path.suffix in (".py", ".scenario"):
                digest.update(path.relative_to(src).as_posix().encode())
                digest.update(path.read_bytes())
        self._file = Path(cache_dir) / f"reference-{digest.hexdigest()[:16]}.json"
        self._cache: dict[str, float | None] = (
            json.loads(self._file.read_text()) if self._file.is_file() else {})
        self._new = False

    def __call__(self, call: SweepCall, value: float, scheme: str) -> float | None:
        p = call.params(value, scheme)
        kind = scheme.split("@")[0]
        key = json.dumps([call.scenario, kind, sorted(p.items())])
        if key not in self._cache:
            self._cache[key] = self._compute(call.scenario, kind, p)
            self._new = True
        return self._cache[key]

    def save(self) -> None:
        if self._new:
            tmp = self._file.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._cache))
            tmp.replace(self._file)

    def _compute(self, scenario: str, kind: str, p: dict[str, float]) -> float | None:
        pkg = self._pkg
        if scenario not in self._stats:
            self._stats[scenario] = pkg.resolve_scenario(scenario)
        params = pkg.SystemParams(
            eta=p["eta"], rho=p["rho"], psi=10.0 ** (p["psi_db"] / 10.0),
            phi=10.0 ** (p["phi_db"] / 10.0), num_sources=int(p["M"]),
            num_jammers=int(p["K"]), c_th=p["c_th"])
        route = pkg.op_dpsr_quadrature if kind == "dpsr" else pkg.op_spsr_quadrature
        try:
            return route(params, self._stats[scenario], self._cfg)
        except pkg.NumericalError:
            return None
