"""Numerical kernels of the test references, and the accuracy contract of all routes.

Thin, contract-enforcing wrappers around scipy for the Gamma function,
the modified Bessel function of the second kind, adaptive quadrature on
finite and semi-infinite intervals, plus the one Meijer-G instance the
intercept series needs and a truncation helper for alternating series.
:func:`refuse_beyond` is the one accuracy check: the sweep's averaging
kernel, the reference Bessel sums and :func:`integrate` each accept a value
through it or refuse it with its value and bound.

``bessel_k`` takes arrays: the reference outage sums make one vector call
per term, and scipy's ``kv`` gives an array element the bits of the scalar
call.  A float argument skips the array round trip of the domain check,
which the paper-form references call scalar by scalar.  Only the reference
routes integrate adaptively or evaluate special functions, so
``scipy.integrate`` is imported on the first ``integrate`` call, not with
this module; likewise ``scipy.special`` is imported on the first call that
needs it, which no sweep route makes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CancellationError",
    "NumericalError",
    "QuadratureError",
    "SeriesNotConverged",
    "QuadratureSpec",
    "SeriesResult",
    "gamma_fn",
    "bessel_k",
    "integrate",
    "meijer_g3013",
    "refuse_beyond",
    "sum_series",
]


class NumericalError(RuntimeError):
    """A numerical kernel failed to reach its requested accuracy.

    ``value`` is the computed result (NaN where there is none) and ``bound``
    the bound on its error (infinite where there is none)."""

    def __init__(self, message: str, value: float = math.nan, bound: float = math.inf):
        super().__init__(message)
        self.value = value
        self.bound = bound


class QuadratureError(NumericalError):
    """Quadrature did not converge; ``bound`` is its error estimate."""


class CancellationError(NumericalError):
    """A closed form's terms cancel below its accuracy contract; ``bound`` is
    the bound ``eps * (1 + sum |terms|)`` on its rounding error."""


class SeriesNotConverged(NumericalError):
    """Series truncation stopped before the requested tolerance was met.

    ``value`` holds the best available partial sum (truncated at the smallest
    term) and ``achieved_rel_tol`` the relative size of that term, which for
    an alternating asymptotic tail bounds the attainable accuracy.
    """

    def __init__(self, message: str, value: float, achieved_rel_tol: float, terms: int):
        super().__init__(message, value)
        self.achieved_rel_tol = achieved_rel_tol
        self.terms = terms


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for :func:`integrate`.

    ``upper = inf`` selects the semi-infinite domain ``[lower, inf)``.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    lower: float = 0.0
    upper: float = math.inf

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.lower < self.upper:
            raise ValueError("need lower < upper")


def refuse_beyond(value, bound, spec: QuadratureSpec, error: type[NumericalError],
                  what: str) -> None:
    """Accept ``value`` with error ``bound`` (scalars, or arrays of one shape),
    or raise ``error(message, v, e)`` at the first element whose value is not
    finite or whose bound is not within max(rel_tol*|value|, abs_tol) of
    ``spec``; a NaN bound is refused.  ``what`` starts the message."""
    ok = np.isfinite(value) & (bound <= np.maximum(spec.rel_tol * np.abs(value), spec.abs_tol))
    if not np.all(ok):
        i = np.argmin(np.ravel(ok))
        v, e = float(np.ravel(value)[i]), float(np.ravel(bound)[i])
        raise error(f"{what} {e:.3e} on value {v:.6e}, above max(rel_tol*|value|, abs_tol)",
                    v, e)


@dataclass(frozen=True)
class SeriesResult:
    value: float
    error_estimate: float
    terms: int
    converged: bool


def gamma_fn(x: float) -> float:
    """Gamma function for positive real argument."""
    from scipy import special as _special

    if x <= 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return float(_special.gamma(x))


def _require_positive(name: str, z) -> None:
    if isinstance(z, (float, np.floating)):
        bad = z <= 0  # NaN passes on to scipy, as through the array test
    else:
        bad = np.any(np.asarray(z) <= 0)
    if bad:
        raise ValueError(f"{name} requires z > 0")


def bessel_k(v: float, z):
    """Modified Bessel function of the second kind K_v(z), real order, z > 0."""
    from scipy import special as _special

    _require_positive("bessel_k", z)
    out = _special.kv(v, z)
    return float(out) if np.isscalar(z) else out


def integrate(
    f: Callable[[float], float],
    spec: QuadratureSpec = QuadratureSpec(),
    points: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Adaptive quadrature of ``f`` over the requested domain.

    Returns ``(value, error_estimate)``. ``points`` are optional interior
    split locations used to resolve boundary layers (e.g. the steep rise of
    ``exp(-a/x)`` integrands near zero); out-of-domain points are ignored.
    Raises :class:`QuadratureError` when the integrand produced NaN, and
    through :func:`refuse_beyond` when the value is not finite or the
    achieved error exceeds ``max(rel_tol * |value|, abs_tol)``.  A
    first pass over the segments that misses that budget is rerun once with
    tighter per-segment tolerances before the error is judged.
    ``scipy.integrate`` is imported on the first call: only the reference
    routes integrate adaptively, and the import costs tens of MB resident.
    """
    from scipy import integrate as _scipy_integrate

    def checked(x: float) -> float:
        y = f(x)
        if math.isnan(y):
            raise QuadratureError(f"integrand returned NaN at x={x!r}")
        return y

    edges = [spec.lower]
    if points:
        for pt in sorted(points):
            if spec.lower < pt < spec.upper and pt > edges[-1]:
                edges.append(float(pt))
    edges.append(spec.upper)

    segments = list(zip(edges[:-1], edges[1:]))

    def summed(epsabs: float, epsrel: float) -> tuple[float, float]:
        total = err = 0.0
        with warnings.catch_warnings():
            # convergence is judged against the requested tolerances below
            warnings.simplefilter("ignore", _scipy_integrate.IntegrationWarning)
            for lo, hi in segments:
                val, e = _scipy_integrate.quad(
                    checked, lo, hi, epsabs=epsabs, epsrel=epsrel,
                    limit=spec.max_subdivisions,
                )
                total += val
                err += e
        return total, err

    # each segment may stop at max(abs_tol / segments, rel_tol * |its value|),
    # and those bounds can sum past the budget of the whole; a miss reruns
    # once with every segment held to an equal share of that budget
    total, err = summed(spec.abs_tol / len(segments), spec.rel_tol)
    budget = max(spec.rel_tol * abs(total), spec.abs_tol)
    if math.isfinite(total) and err > budget:
        total, err = summed(budget / len(segments), spec.rel_tol / len(segments))
    refuse_beyond(total, err, spec, QuadratureError, "quadrature reached error")
    return total, err


def meijer_g3013(z: float, b1: float) -> float:
    """The Meijer G^{3,0}_{1,3}(z | 0; b1, 1, 0) instance used by the intercept series.

    Only ``b1 = -mu`` with integer ``mu >= 1`` arises.  The value is computed
    from the equivalent Bessel integral

        G = 2 sqrt(z) / Gamma(mu) * int_1^inf y^{1/2} (y-1)^{mu-1} K_1(2 sqrt(z y)) dy,

    which is the form the series term is assembled from, so the G-labelled
    path and the direct-quadrature path agree by construction up to
    quadrature error.  The integral is held to 1e-10 relative and 1e-60
    absolute error.
    """
    from scipy import special as _special

    if z <= 0:
        raise ValueError("meijer_g3013 requires z > 0")
    mu = -b1
    mu_int = round(mu)
    if abs(mu - mu_int) > 1e-9 or mu_int < 1:
        raise ValueError(f"b1 must be a negative integer -mu with mu >= 1, got {b1}")
    mu = int(mu_int)

    def integrand(y: float) -> float:
        if y <= 1.0:
            return 0.0
        return y ** 0.5 * (y - 1.0) ** (mu - 1) * _special.kv(1, 2.0 * math.sqrt(z * y))

    # integrand peaks roughly where (mu-1)/(y-1) = sqrt(z/y)
    hint = 1.0 + (mu - 1) / math.sqrt(z) if mu > 1 else 1.0 + 1.0 / math.sqrt(z)
    qspec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-60, lower=1.0)
    value, _ = integrate(integrand, qspec, points=(hint, 4.0 * hint))
    return 2.0 * math.sqrt(z) / gamma_fn(mu) * value


def sum_series(
    term_fn: Callable[[int], float],
    rel_tol: float = 1e-8,
    max_terms: int = 200,
    initial: float = 0.0,
) -> SeriesResult:
    """Accumulate ``initial + term_fn(0) + term_fn(1) + ...`` until
    |term| <= rel_tol * |partial|.

    ``initial`` is any closed-form part of the quantity being summed; the
    stopping rule is relative to the full partial sum including it.
    Alternating tails that start growing again (asymptotic series) are cut at
    the running minimum-magnitude term: the partial sum at that point is the
    best available estimate and the dropped term bounds its error.  Such a
    truncation, and hitting ``max_terms``, both report ``converged=False``;
    callers decide whether the achieved accuracy is acceptable.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")

    partial = initial
    best_partial = initial
    best_abs = math.inf
    best_idx = 0
    prev_abs = math.inf
    growth = 0
    for t in range(max_terms):
        term = term_fn(t)
        if not math.isfinite(term):
            raise SeriesNotConverged(
                f"series term {t} is non-finite", best_partial,
                best_abs / max(abs(best_partial), 1e-300), t,
            )
        partial += term
        a = abs(term)
        if a <= rel_tol * max(abs(partial), 1e-300):
            return SeriesResult(partial, a, t + 1, True)
        if a < best_abs:
            best_abs, best_partial, best_idx = a, partial, t + 1
        if a > prev_abs:
            growth += 1
            if growth >= 3 and t >= 2:
                break
        else:
            growth = 0
        prev_abs = a
    return SeriesResult(
        best_partial,
        best_abs / max(abs(best_partial), 1e-300),
        best_idx,
        False,
    )
