"""Reference forms of the outage and intercept probabilities, for the tests.

No sweep route reaches this module; :mod:`swipt_plsec.analytic` holds those.
The references check the sweep's Gauss-Legendre routes from independent
derivations, and the benchmark checker takes the outage oracle from here.
Unlike the sweep's routes they take tolerances, an :class:`AnalyticConfig`,
and refuse by the same rule, :func:`~swipt_plsec.specfun.refuse_beyond`.

The paper's outage forms are ``op_spsr_closed_form`` (a Bessel-K sum over the
M binomial terms, which cancels as M grows) and ``op_dpsr_series`` (a Bessel
series, which stops converging at low power and large M, and refuses with
:class:`CancellationError` where its binomial terms cancel).  The scalar
adaptive quadratures ``op_*_quadrature``, ``slot2_outage_factor_quadrature``
and ``dpsr_slot2_factor_quadrature`` average a conditional probability over
an exponential gain with ``scipy.quad``.  The paper's intercept forms are
``ip_spsr``, ``ip_dpsr`` and ``dpsr_slot2_kernel`` (all with ``kv``).  The
intercept expressions model the eavesdropper's first-slot SNR with the
jamming-dominated approximation psi*gamma_se/(phi*xi), i.e. without the unit
noise term, which is also what the simulation engine's ``approx`` mode
realizes.

The intercept series (``ip_spsr``) is asymptotic rather than convergent: its
term-by-term integration of an exponential expansion has zero radius of
convergence, and the truncation helper stops at the smallest term.  In
weak-link geometries such as the shipped scenarios the terms grow from the
start and the series is unusable there; :class:`SeriesNotConverged` reports
the attainable accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    _binom_coeffs,
    _dpsr_threshold,
    _require_jamming,
    _spsr_threshold,
    dpsr_slot2_outage_factor,
)
from .channel import ChannelStats, best_source_cdf
from .core import SystemParams
from .specfun import (
    CancellationError,
    QuadratureSpec,
    SeriesNotConverged,
    bessel_k,
    gamma_fn,
    integrate,
    meijer_g3013,
    refuse_beyond,
    sum_series,
)

__all__ = [
    "AnalyticConfig",
    "op_spsr_closed_form",
    "op_spsr_quadrature",
    "op_dpsr_series",
    "op_dpsr_quadrature",
    "ip_spsr",
    "ip_dpsr",
    "slot1_intercept_probability",
    "slot2_outage_factor_quadrature",
    "intercept_series_term",
    "dpsr_slot2_kernel",
    "dpsr_slot2_factor_quadrature",
]


@dataclass(frozen=True)
class AnalyticConfig:
    """Truncation and quadrature settings of the references here; the sweep's
    routes in :mod:`swipt_plsec.analytic` meet one fixed tolerance instead."""

    series_rel_tol: float = 1e-8
    series_max_terms: int = 200
    quad: QuadratureSpec = QuadratureSpec()

    def __post_init__(self):
        if self.series_rel_tol <= 0:
            raise ValueError("series_rel_tol must be positive")
        if self.series_max_terms < 1:
            raise ValueError("series_max_terms must be >= 1")


DEFAULT_CONFIG = AnalyticConfig()


def _tilted_rate(p: SystemParams, s: ChannelStats) -> float:
    """Jammer-aggregate rate tilted by the first-slot wiretap exponent."""
    return p.gamma_th * s.lambda_se * p.phi / p.psi + s.lambda_je


def _nested_inner(cfg: AnalyticConfig) -> QuadratureSpec:
    # kernel values are O(1); an absolute floor far below every consumer
    # tolerance keeps the relative criterion from chasing vanishing tails
    return replace(cfg.quad, rel_tol=cfg.quad.rel_tol / 10.0,
                   abs_tol=max(cfg.quad.abs_tol, 1e-11))


def _exp_average(g, lam: float, spec: QuadratureSpec, points) -> float:
    """E[g(X)] for X ~ Exp(rate ``lam``), by adaptive quadrature split at
    ``points``."""
    def f(x: float) -> float:
        return g(x) * lam * math.exp(-lam * x)

    value, _ = integrate(f, spec, points=points)
    return value


# ---------------------------------------------------------------------------
# outage


def _outage_quadrature(p: SystemParams, s: ChannelStats, thr, scale: float,
                       cfg: AnalyticConfig) -> float:
    """Adaptive quadrature of the best-source CDF at threshold ``thr(x)``
    against the relay-to-destination gain density.

    Past ``x = scale`` the CDF falls like ``(scale / x)**M``, so at high power
    and large M the outage mass sits within a decade above ``scale``, far
    below the other split points; unbracketed, ``quad`` accepts an estimate
    that misses it.
    """
    lam_rd = s.lambda_rd

    def cdf(x: float) -> float:
        # best_source_cdf in scalar math: its array checks would cost ten
        # times the rest of the integrand
        return (-math.expm1(-s.lambda_sr * thr(x))) ** p.num_sources

    points = (scale, 10.0 * scale, math.sqrt(scale / lam_rd), 1.0 / lam_rd)
    return _exp_average(cdf, lam_rd, cfg.quad, points)


def op_spsr_closed_form(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under a fixed splitting ratio (the paper's closed
    Bessel form; a reference for the tests).

    The M binomial terms share one vector Bessel-K call; the exponentials and
    the sum stay scalar and left to right, so the value is that of the
    term-by-term loop bit for bit.  Endpoint splitting ratios give zero
    destination SNR, hence probability 1.
    """
    if p.gamma_th == 0:
        return 0.0
    if p.rho in (0.0, 1.0):
        return 1.0
    coeffs = _binom_coeffs(p.num_sources)
    roots = [math.sqrt(b * s.lambda_sr * s.lambda_rd * p.gamma_th / (p.eta * p.rho * p.psi))
             for b, _ in coeffs]
    k1 = bessel_k(1, 2.0 * np.array(roots)).tolist()
    acc = 1.0
    for (b, coef), r, k in zip(coeffs, roots, k1):
        acc += 2.0 * coef * math.exp(-b * s.lambda_sr * p.gamma_th / ((1.0 - p.rho) * p.psi)) \
            * (r * k)
    return acc


def op_spsr_quadrature(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability by direct quadrature of its defining average.

    Averages the best-source CDF, evaluated at the source-side gain the
    threshold requires, over the relay-to-destination gain density.
    """
    if p.gamma_th == 0:
        return 0.0
    if p.rho in (0.0, 1.0):
        return 1.0
    scale = s.lambda_sr * p.gamma_th / (p.eta * p.rho * p.psi)
    return _outage_quadrature(p, s, lambda x: _spsr_threshold(p, x), scale, cfg)


def op_dpsr_series(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under per-realization optimal splitting (the
    paper's Bessel series; a reference for the tests).

    The series over ``t`` converges factorially; a cap breach raises
    :class:`SeriesNotConverged`.  Each term makes one vector Bessel-K call
    over the M binomial arguments; the exponentials and the sum over ``b``
    stay scalar and left to right, so the value is that of the term-by-term
    loop bit for bit.

    The binomial terms cancel as M and the power grow.  A converged sum that
    is not finite, or whose rounding bound eps*(1 + sum of |binomial terms|
    over all ``t``) exceeds max(rel_tol*|value|, abs_tol) of ``cfg.quad``,
    raises :class:`CancellationError` through ``refuse_beyond``, carrying the
    value and the bound; at s1, c_th 0.5 and 40 dB that happens from M = 16 on.
    """
    if p.gamma_th == 0:
        return 0.0
    ln_rd = math.log(s.lambda_rd / p.eta)
    coefs = [coef for _, coef in _binom_coeffs(p.num_sources)]
    xs = [b * s.lambda_sr * p.gamma_th / p.psi for b in range(1, p.num_sources + 1)]
    ln_xs = [math.log(x) for x in xs]
    zs = np.array([2.0 * math.sqrt(x * s.lambda_rd / p.eta) for x in xs])
    magnitude = 1.0  # 1 + sum of |binomial terms|

    def term(t: int) -> float:
        nonlocal magnitude
        ks = bessel_k(1.0 - t / 2.0, zs).tolist()
        head = (t + 1) * math.log(2.0) - math.lgamma(t + 1) + (t / 4.0 + 0.5) * ln_rd
        d = 3.0 * t / 4.0 + 0.5
        tot = 0.0
        for coef, x, ln_x, k in zip(coefs, xs, ln_xs, ks):
            if not math.isfinite(k):
                return math.inf
            part = coef * math.exp(head + d * ln_x - x) * k
            tot += part
            magnitude += abs(part)
        return (-1.0) ** t * tot

    res = sum_series(term, cfg.series_rel_tol, cfg.series_max_terms, initial=1.0)
    if not res.converged:
        raise SeriesNotConverged(
            "dynamic-splitting outage series did not reach tolerance",
            res.value, res.error_estimate, res.terms)
    refuse_beyond(res.value, float(np.finfo(float).eps) * magnitude, cfg.quad,
                  CancellationError, "binomial terms of the outage series cancel: rounding bound")
    return res.value


def op_dpsr_quadrature(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under optimal splitting by direct quadrature."""
    if p.gamma_th == 0:
        return 0.0
    scale = s.lambda_sr * p.gamma_th / (p.eta * p.psi)
    return _outage_quadrature(p, s, lambda x: _dpsr_threshold(p, x), scale, cfg)


# ---------------------------------------------------------------------------
# intercept, static splitting


def slot2_outage_factor_quadrature(
    p: SystemParams, s: ChannelStats, x: float, cfg: AnalyticConfig = DEFAULT_CONFIG,
) -> float:
    """Reference for :func:`~swipt_plsec.analytic.slot2_outage_factor`:
    average the best-source CDF over the relay-to-eavesdropper gain density."""
    r1 = 1.0 - p.rho
    dil = r1 * (p.phi * x + 1.0)
    lam_re = s.lambda_re

    def cdf(y: float) -> float:
        thr = p.gamma_th * (p.eta * p.rho * y + dil) / (p.eta * p.rho * r1 * y * p.psi)
        return best_source_cdf(thr, s.lambda_sr, p.num_sources)

    scale = s.lambda_sr * p.gamma_th * (p.phi * x + 1.0) / (p.eta * p.rho * p.psi)
    return _exp_average(cdf, lam_re, cfg.quad, (math.sqrt(scale / lam_re), 1.0 / lam_re))


def slot1_intercept_probability(p: SystemParams, s: ChannelStats) -> float:
    """Probability the first slot alone is intercepted: the Erlang jammer
    aggregate's Laplace transform at the wiretap tilt, (lam_je / tilted)**K."""
    if p.gamma_th == 0:
        return 1.0
    return (s.lambda_je / _tilted_rate(p, s)) ** p.num_jammers


def intercept_series_term(
    p: SystemParams,
    s: ChannelStats,
    t: int,
    b: int,
    weight_rate: float,
) -> float:
    """The ``t``-th expansion term of the static-splitting intercept average
    for binomial index ``b``, weighted by the Erlang rate ``weight_rate``
    (the tilted rate for the joint term, the plain rate for the marginal one).

    Evaluates, through the Meijer-G instance of
    :func:`swipt_plsec.specfun.meijer_g3013`,

        (-1)**t weight**t / (t! phi**(t+K))
            * int_1^inf y^{1/2} (y-1)^{t+K-1} K_1(2 sqrt(c y)) dy,

    so it matches direct quadrature of that pre-transformation integral.
    """
    if t < 0:
        raise ValueError("series index must be nonnegative")
    _require_jamming(p)
    k = p.num_jammers
    c = b * s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * p.rho * p.psi)
    g = meijer_g3013(c, -(t + k))
    ln_mag = (math.lgamma(t + k) - math.lgamma(t + 1) - (t + k) * math.log(p.phi)
              + t * math.log(weight_rate) - math.log(2.0 * math.sqrt(c)))
    return (-1.0) ** t * math.exp(ln_mag) * g


def ip_spsr(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Intercept probability under static splitting (Meijer-G series form).

    Asymptotic in ``t``; raises :class:`SeriesNotConverged` (carrying the
    best truncated value and its attainable accuracy) whenever the smallest
    term is still above ``cfg.series_rel_tol`` -- which is the case in
    weak-link geometries, where :func:`ip_spsr_quadrature` must be used.
    """
    if p.gamma_th == 0:
        return 1.0
    if not 0 < p.rho < 1:
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    _require_jamming(p)
    k = p.num_jammers
    tilted = _tilted_rate(p, s)
    lam_je = s.lambda_je
    ln_front = k * math.log(lam_je) - math.lgamma(k)
    r1 = 1.0 - p.rho

    def term(i: int) -> float:
        t = i + 1  # the t = 0 weights cancel exactly
        tot = 0.0
        for b, coef in _binom_coeffs(p.num_sources):
            c = b * s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * p.rho * p.psi)
            g = meijer_g3013(c, -(t + k))
            if not math.isfinite(g):
                return math.inf
            ln_mag = (math.lgamma(t + k) - math.lgamma(t + 1) - (t + k) * math.log(p.phi)
                      - b * s.lambda_sr * p.gamma_th / (r1 * p.psi)
                      + ln_front + t * math.log(tilted)
                      + math.log1p(-((lam_je / tilted) ** t)))
            tot += coef * math.exp(ln_mag) * g
        return (-1.0) ** t * tot

    base = slot1_intercept_probability(p, s)
    res = sum_series(term, cfg.series_rel_tol, cfg.series_max_terms, initial=base)
    if not res.converged:
        raise SeriesNotConverged(
            "static-splitting intercept series is asymptotic and did not reach "
            f"tolerance {cfg.series_rel_tol:g}; best value {res.value:.6g} "
            f"with attainable relative accuracy {res.error_estimate:.2g} "
            "(use ip_spsr_quadrature)",
            res.value, res.error_estimate, res.terms)
    return res.value


# ---------------------------------------------------------------------------
# intercept, dynamic splitting


def dpsr_slot2_kernel(
    p: SystemParams, s: ChannelStats, x: float, b: int, cfg: AnalyticConfig = DEFAULT_CONFIG,
) -> float:
    """Average over the relay-to-destination gain of the Bessel kernel that
    the dynamic-splitting slot-2 factor reduces to (binomial index ``b``)."""
    if x < 0:
        raise ValueError("jammer aggregate must be nonnegative")
    d = b * s.lambda_sr * s.lambda_re * p.gamma_th * (p.phi * x + 1.0) / (p.eta * p.psi)
    beta = b * s.lambda_sr * p.gamma_th / p.psi
    lam_rd = s.lambda_rd

    def f(w: float) -> float:
        if w <= 0.0:
            return 0.0
        root = 1.0 + math.sqrt(p.eta * w)
        return (math.sqrt(root)
                * math.exp(-beta / math.sqrt(p.eta * w) - lam_rd * w)
                * bessel_k(1, 2.0 * math.sqrt(d * root)))

    hints = (beta * beta / p.eta, 1.0 / lam_rd)
    value, _ = integrate(f, _nested_inner(cfg), points=hints)
    return lam_rd * value


def dpsr_slot2_factor_quadrature(
    p: SystemParams, s: ChannelStats, x: float, cfg: AnalyticConfig = DEFAULT_CONFIG,
) -> float:
    """Reference for :func:`~swipt_plsec.analytic.dpsr_slot2_factor`: average
    the conditional factor over the relay-to-destination gain density
    directly."""
    lam_rd = s.lambda_rd
    return _exp_average(lambda w: dpsr_slot2_outage_factor(p, s, x, w), lam_rd,
                        _nested_inner(cfg), (1.0 / lam_rd,))


def ip_dpsr(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Intercept probability under dynamic splitting (integral form).

    Assembled as the slot-1 mass plus a Bessel-weighted difference of two
    jammer-aggregate averages of the slot-2 kernel, one at the tilted Erlang
    rate and one at the plain rate.
    """
    if p.gamma_th == 0:
        return 1.0
    _require_jamming(p)
    k = p.num_jammers
    tilted = _tilted_rate(p, s)
    lam_je = s.lambda_je
    front = lam_je ** k / gamma_fn(k)
    acc = slot1_intercept_probability(p, s)
    # the inner quadrature noise bounds the accuracy the outer can reach
    outer = replace(cfg.quad, abs_tol=max(cfg.quad.abs_tol, 1e-9))
    for b, coef in _binom_coeffs(p.num_sources):
        d = b * s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * p.psi)

        def weighted(rate: float) -> float:
            def f(x: float) -> float:
                return (x ** (k - 1) * math.exp(-rate * x) * math.sqrt(p.phi * x + 1.0)
                        * dpsr_slot2_kernel(p, s, x, b, cfg))
            value, _ = integrate(f, outer, points=(k / rate,))
            return value

        acc += (2.0 * coef * front * math.exp(-b * s.lambda_sr * p.gamma_th / p.psi)
                * math.sqrt(d) * (weighted(tilted) - weighted(lam_je)))
    return acc
