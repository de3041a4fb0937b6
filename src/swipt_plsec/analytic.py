"""Semi-analytic outage and intercept probability evaluators.

The sweep's routes all average a closed-form conditional probability over
Gamma-distributed gains with one vectorised Gauss-Legendre kernel, which
raises :class:`QuadratureError` where it misses its tolerance.  Its
Erlang-weighted node tables are built once per (rate, order), on first use.
Outage: ``op_spsr`` and ``op_dpsr`` average the best-of-M CDF, at the
source-side gain the threshold requires under a fixed or the optimal
splitting ratio, over the exponential relay-to-destination gain.  That
required gain is positive at every node, so they evaluate the CDF in plain
array math, without the argument checks of ``best_source_cdf``; a call costs
about 0.08-0.11 ms on a 2-vCPU VM (numpy 2.4.6), nearly all of it integrand
arithmetic.  Intercept:
``ip_spsr_quadrature`` and ``ip_dpsr_quadrature`` average the probability
that the second-slot wiretap SNR stays below threshold at a splitting ratio
(fixed, or ``rho*`` of the relay-to-destination gain) and a jamming dilution
``phi*x + 1`` over the Erlang jammer aggregate.  That slot-2 factor is a
closed Bessel form which refuses, with :class:`CancellationError`, where its
alternating sum cancels; it takes K_1 from ``bessel_k1`` (Cephes ``k1``),
within a few ulps of ``kv(1, .)`` and six times cheaper on the (128, 128)
blocks of node pairs that dominate the dynamic-splitting route.  The outer
average of ``ip_dpsr_quadrature`` runs its blocks on up to as many threads as
the process has usable CPUs, and adds their partial sums in block order, so
its value does not depend on the thread count.

References for the tests, off the sweep's path: the paper's outage forms
``op_spsr_closed_form`` (a Bessel-K sum over the M binomial terms, which
cancels as M grows) and ``op_dpsr_series`` (a Bessel series, which stops
converging at low power and large M); the scalar adaptive quadratures
``op_*_quadrature``, ``slot2_outage_factor_quadrature`` and
``dpsr_slot2_factor_quadrature``; and the paper's intercept forms
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

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelStats, best_source_cdf, erlang_pdf_xi
from .core import SystemParams, rho_star
from .core import usable_cpus as _usable_cpus
from .specfun import (
    CancellationError,
    QuadratureError,
    QuadratureSpec,
    SeriesNotConverged,
    bessel_k,
    bessel_k1,
    gamma_fn,
    integrate,
    meijer_g3013,
    sum_series,
)

__all__ = [
    "AnalyticConfig",
    "op_spsr",
    "op_spsr_closed_form",
    "op_spsr_quadrature",
    "op_dpsr",
    "op_dpsr_series",
    "op_dpsr_quadrature",
    "ip_spsr",
    "ip_spsr_quadrature",
    "ip_spsr_no_jamming",
    "ip_dpsr",
    "ip_dpsr_quadrature",
    "ip_dpsr_no_jamming",
    "slot1_intercept_probability",
    "slot1_outage_factor",
    "slot2_outage_factor",
    "slot2_outage_factor_quadrature",
    "intercept_series_term",
    "dpsr_slot2_outage_factor",
    "dpsr_slot2_kernel",
    "dpsr_slot2_factor",
    "dpsr_slot2_factor_quadrature",
]


@dataclass(frozen=True)
class AnalyticConfig:
    """Truncation and quadrature settings for the analytic evaluators."""

    series_rel_tol: float = 1e-8
    series_max_terms: int = 200
    quad: QuadratureSpec = QuadratureSpec()

    def __post_init__(self):
        if self.series_rel_tol <= 0:
            raise ValueError("series_rel_tol must be positive")
        if self.series_max_terms < 1:
            raise ValueError("series_max_terms must be >= 1")


DEFAULT_CONFIG = AnalyticConfig()


def _binom_coeffs(m: int) -> list[tuple[int, float]]:
    """(b, (-1)**b * C(m, b)) for b = 1..m."""
    return [(b, (-1.0) ** b * math.comb(m, b)) for b in range(1, m + 1)]


def _tilted_rate(p: SystemParams, s: ChannelStats) -> float:
    """Jammer-aggregate rate tilted by the first-slot wiretap exponent."""
    return p.gamma_th * s.lambda_se * p.phi / p.psi + s.lambda_je


def _require_jamming(p: SystemParams):
    if p.phi <= 0:
        raise ValueError("jamming evaluators need phi > 0; use the no-jamming variants")


def _nested_inner(cfg: AnalyticConfig) -> QuadratureSpec:
    # kernel values are O(1); an absolute floor far below every consumer
    # tolerance keeps the relative criterion from chasing vanishing tails
    return replace(cfg.quad, rel_tol=cfg.quad.rel_tol / 10.0,
                   abs_tol=max(cfg.quad.abs_tol, 1e-11))


# ---------------------------------------------------------------------------
# averaging kernel

# Width-1 panels in u = log(lam * x).  Below the first edge a Gamma(k) law
# holds under e**-35.5 / k! of its mass, and past the last (lam * x = 90)
# under 1e-27 for k <= 8.
_PANEL_EDGES = np.arange(-35.5, 5.0)


def _composite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (_PANEL_EDGES[1:] + _PANEL_EDGES[:-1])[:, None]
    half = 0.5 * np.diff(_PANEL_EDGES)[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


@functools.cache
def _rules() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    # (coarse, fine): the 12-point rule's distance from the 16-point one is the
    # error estimate; a half-order embedded rule overstates it by orders of
    # magnitude.  Built on first use, not at import: leggauss's first LAPACK
    # call costs resident memory.
    return _composite_rule(12), _composite_rule(16)


# nodes per integrand call, so nested averages hold (128, 128) blocks, not (640, 640)
_BLOCK = 128


@functools.lru_cache(maxsize=32)
def _weighted_blocks(lam: float, k: int) -> tuple[tuple, int]:
    """(blocks, coarse count): the (nodes, Erlang-weighted weights) blocks of
    both rules for X ~ Gamma(k, rate ``lam``), the coarse rule's first.

    Built once per (lam, k), on first use.  Read-only, because the threads of
    a spread average share them."""
    blocks, sizes = [], []
    for u, w in _rules():
        x = np.exp(u) / lam
        wx = w * x * erlang_pdf_xi(x, lam, k)
        x.setflags(write=False)
        wx.setflags(write=False)
        rule = [(x[i:i + _BLOCK], wx[i:i + _BLOCK]) for i in range(0, x.size, _BLOCK)]
        blocks += rule
        sizes.append(len(rule))
    return tuple(blocks), sizes[0]


def _gamma_average(f, lam: float, k: int, spec: QuadratureSpec, spread: bool = False):
    """E[f(X)] for X ~ Gamma(k, rate ``lam``), by composite Gauss-Legendre in
    u = log(lam * x).

    ``f`` maps a node array on its trailing axis to values of the same
    trailing length; any leading axes carry through, so averages nest by
    broadcasting.  Raises :class:`QuadratureError` when the estimate exceeds
    ``max(spec.rel_tol * |value|, spec.abs_tol)`` anywhere, or a value is
    not finite.

    With ``spread`` the node blocks run on up to ``_usable_cpus()`` threads
    (inline when that is one).  Only the outermost average of a nested route
    sets it, so pools never nest.  The partial sums are added in block order
    either way, so the value does not depend on the thread count, and the
    first block that raises in that order is the one whose error propagates.
    """
    blocks, n_coarse = _weighted_blocks(lam, k)

    def block_sum(block):
        nodes, weights = block
        return f(nodes) @ weights

    threads = min(len(blocks), _usable_cpus()) if spread else 1
    if threads == 1:
        parts = [block_sum(b) for b in blocks]
    else:
        # the kernel's ufuncs (k1, exp, sqrt) release the GIL, so blocks
        # really run side by side
        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(block_sum, blocks))
    coarse, value = sum(parts[:n_coarse]), sum(parts[n_coarse:])
    err = np.abs(value - coarse)
    bad = ~(err <= np.maximum(spec.rel_tol * np.abs(value), spec.abs_tol))
    if np.any(bad):
        i = np.argmax(np.ravel(bad))
        v, e = float(np.ravel(value)[i]), float(np.ravel(err)[i])
        raise QuadratureError(
            f"Gauss-Legendre average reached error {e:.3e} on value {v:.6e}, "
            f"above max(rel_tol*|value|, abs_tol)", v, e)
    return value


# ---------------------------------------------------------------------------
# outage, static splitting


def _spsr_threshold(p: SystemParams, x):
    """Best-source gain at which the destination SNR meets the threshold at
    relay-to-destination gain ``x``, under the fixed ratio ``p.rho``."""
    r1 = 1.0 - p.rho
    return p.gamma_th * (p.eta * p.rho * x + r1) / (p.eta * p.rho * r1 * p.psi * x)


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

    def f(x: float) -> float:
        # best_source_cdf in scalar math: its array checks would cost ten
        # times the rest of the integrand
        cdf = (-math.expm1(-s.lambda_sr * thr(x))) ** p.num_sources
        return cdf * lam_rd * math.exp(-lam_rd * x)

    points = (scale, 10.0 * scale, math.sqrt(scale / lam_rd), 1.0 / lam_rd)
    value, _ = integrate(f, cfg.quad, points=points)
    return value


def op_spsr(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under a fixed splitting ratio (the sweep's route).

    Averages the best-source CDF at the source-side gain the threshold
    requires over the relay-to-destination gain with the vectorised
    Gauss-Legendre kernel.  Endpoint splitting ratios give zero destination
    SNR, hence probability 1.
    """
    if p.gamma_th == 0:
        return 0.0
    if p.rho in (0.0, 1.0):
        return 1.0
    value = _gamma_average(
        lambda x: (-np.expm1(-s.lambda_sr * _spsr_threshold(p, x))) ** p.num_sources,
        s.lambda_rd, 1, cfg.quad)
    return float(value)


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


# ---------------------------------------------------------------------------
# outage, dynamic splitting


def _dpsr_threshold(p: SystemParams, x):
    """:func:`_spsr_threshold` at the optimal ratio ``rho_star(eta, x)``."""
    return p.gamma_th * (1.0 + np.sqrt(p.eta * x)) ** 2 / (p.eta * p.psi * x)


def op_dpsr(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under per-realization optimal splitting (the
    sweep's route): :func:`op_spsr` with the threshold taken at the optimal
    ratio of each relay-to-destination gain."""
    if p.gamma_th == 0:
        return 0.0
    value = _gamma_average(
        lambda x: (-np.expm1(-s.lambda_sr * _dpsr_threshold(p, x))) ** p.num_sources,
        s.lambda_rd, 1, cfg.quad)
    return float(value)


def op_dpsr_series(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under per-realization optimal splitting (the
    paper's Bessel series; a reference for the tests).

    The series over ``t`` converges factorially; a cap breach raises
    :class:`SeriesNotConverged`.  Each term makes one vector Bessel-K call
    over the M binomial arguments; the exponentials and the sum over ``b``
    stay scalar and left to right, so the value is that of the term-by-term
    loop bit for bit.
    """
    if p.gamma_th == 0:
        return 0.0
    ln_rd = math.log(s.lambda_rd / p.eta)
    coefs = [coef for _, coef in _binom_coeffs(p.num_sources)]
    xs = [b * s.lambda_sr * p.gamma_th / p.psi for b in range(1, p.num_sources + 1)]
    ln_xs = [math.log(x) for x in xs]
    zs = np.array([2.0 * math.sqrt(x * s.lambda_rd / p.eta) for x in xs])

    def term(t: int) -> float:
        ks = bessel_k(1.0 - t / 2.0, zs).tolist()
        head = (t + 1) * math.log(2.0) - math.lgamma(t + 1) + (t / 4.0 + 0.5) * ln_rd
        d = 3.0 * t / 4.0 + 0.5
        tot = 0.0
        for coef, x, ln_x, k in zip(coefs, xs, ln_xs, ks):
            if not math.isfinite(k):
                return math.inf
            tot += coef * math.exp(head + d * ln_x - x) * k
        return (-1.0) ** t * tot

    res = sum_series(term, cfg.series_rel_tol, cfg.series_max_terms, initial=1.0)
    if not res.converged:
        raise SeriesNotConverged(
            "dynamic-splitting outage series did not reach tolerance",
            res.value, res.error_estimate, res.terms)
    return res.value


def op_dpsr_quadrature(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under optimal splitting by direct quadrature."""
    if p.gamma_th == 0:
        return 0.0
    scale = s.lambda_sr * p.gamma_th / (p.eta * p.psi)
    return _outage_quadrature(p, s, lambda x: _dpsr_threshold(p, x), scale, cfg)


# ---------------------------------------------------------------------------
# intercept building blocks


def slot1_outage_factor(p: SystemParams, s: ChannelStats, x):
    """Probability the first-slot wiretap SNR stays below threshold, given
    jammer aggregate ``x`` (jamming-dominated approximation)."""
    if np.any(np.asarray(x) < 0):
        raise ValueError("jammer aggregate must be nonnegative")
    out = -np.expm1(-p.gamma_th * s.lambda_se * p.phi * np.asarray(x, dtype=float) / p.psi)
    return float(out) if np.isscalar(x) else out


def _slot2_no_intercept(p: SystemParams, s: ChannelStats, rho, dilution):
    """Probability the second-slot wiretap SNR stays below threshold at
    splitting ratio ``rho`` and jamming dilution ``phi*x + 1`` (closed Bessel
    form; the two arrays broadcast).  ``rho = 1`` leaves no information power
    in slot 2, so the probability is 1 there.

    The alternating binomial sum cancels as M grows.  Raises
    :class:`CancellationError` where its rounding bound eps*(1 + sum |terms|)
    exceeds max(rel_tol*|value|, abs_tol) of the default quadrature spec;
    the bound is at most eps*2**M, under 1e-12 for M <= 12."""
    rho = np.asarray(rho, dtype=float)
    harvest = s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * p.psi) * (dilution / rho)
    if p.gamma_th == 0:
        return np.zeros_like(harvest)  # a zero threshold is always reached
    with np.errstate(divide="ignore"):
        info = -s.lambda_sr * p.gamma_th / ((1.0 - rho) * p.psi)
    acc = 1.0
    magnitude = 1.0  # 1 + sum of |terms|
    for b, coef in _binom_coeffs(p.num_sources):
        r = np.sqrt(b * harvest)
        term = 2.0 * coef * np.exp(b * info) * r * bessel_k1(2.0 * r)
        acc += term
        magnitude += np.abs(term)
    bound = np.finfo(float).eps * magnitude
    spec = DEFAULT_CONFIG.quad
    bad = bound > np.maximum(spec.rel_tol * np.abs(acc), spec.abs_tol)
    if np.any(bad):
        i = np.argmax(np.ravel(bad))
        v, e = float(np.ravel(acc)[i]), float(np.ravel(bound)[i])
        raise CancellationError(
            f"binomial terms of the slot-2 factor cancel: rounding bound {e:.3e} on "
            f"value {v:.6e}, above max(rel_tol*|value|, abs_tol)", v, e)
    return acc


def slot2_outage_factor(p: SystemParams, s: ChannelStats, x):
    """Probability the second-slot wiretap SNR stays below threshold, given
    jammer aggregate ``x``, under static splitting (closed Bessel form)."""
    if np.any(np.asarray(x) < 0):
        raise ValueError("jammer aggregate must be nonnegative")
    if not 0 < p.rho < 1:
        raise ValueError("static splitting needs rho in (0, 1)")
    out = _slot2_no_intercept(p, s, p.rho, p.phi * np.asarray(x, dtype=float) + 1.0)
    return float(out) if np.isscalar(x) else out


def slot2_outage_factor_quadrature(
    p: SystemParams, s: ChannelStats, x: float, cfg: AnalyticConfig = DEFAULT_CONFIG,
) -> float:
    """Reference for :func:`slot2_outage_factor`: average the best-source CDF
    over the relay-to-eavesdropper gain density."""
    r1 = 1.0 - p.rho
    dil = r1 * (p.phi * x + 1.0)
    lam_re = s.lambda_re

    def f(y: float) -> float:
        thr = p.gamma_th * (p.eta * p.rho * y + dil) / (p.eta * p.rho * r1 * y * p.psi)
        return best_source_cdf(thr, s.lambda_sr, p.num_sources) * lam_re * math.exp(-lam_re * y)

    scale = s.lambda_sr * p.gamma_th * (p.phi * x + 1.0) / (p.eta * p.rho * p.psi)
    value, _ = integrate(f, cfg.quad, points=(math.sqrt(scale / lam_re), 1.0 / lam_re))
    return value


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


# ---------------------------------------------------------------------------
# intercept, static splitting


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


def ip_spsr_quadrature(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Intercept probability under static splitting (the sweep's route).

    Averages the product of the per-slot no-intercept factors over the
    Erlang jammer aggregate with the vectorised Gauss-Legendre kernel.
    """
    if p.gamma_th == 0:
        return 1.0
    if not 0 < p.rho < 1:
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    _require_jamming(p)
    value = _gamma_average(
        lambda x: slot1_outage_factor(p, s, x) * slot2_outage_factor(p, s, x),
        s.lambda_je, p.num_jammers, cfg.quad)
    return 1.0 - float(value)


def ip_spsr_no_jamming(p: SystemParams, s: ChannelStats) -> float:
    """Static-splitting intercept probability with the jammers silent.

    No aggregate to average over: closed form from the two slot factors with
    the jamming terms zeroed (the first-slot SNR is then exactly
    psi * gamma_se).
    """
    if p.gamma_th == 0:
        return 1.0
    if not 0 < p.rho < 1:
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    q1 = -math.expm1(-p.gamma_th * s.lambda_se / p.psi)
    return 1.0 - q1 * slot2_outage_factor(p, s, 0.0)


# ---------------------------------------------------------------------------
# intercept, dynamic splitting


def dpsr_slot2_outage_factor(p: SystemParams, s: ChannelStats, x, omega):
    """Probability the second-slot wiretap SNR stays below threshold given the
    jammer aggregate ``x`` and the relay-to-destination gain ``omega`` that
    fixes the optimal splitting ratio (the two arrays broadcast)."""
    if np.any(np.asarray(x) < 0) or np.any(np.asarray(omega) < 0):
        raise ValueError("conditioning values must be nonnegative")
    out = _slot2_no_intercept(p, s, rho_star(p.eta, omega),
                              p.phi * np.asarray(x, dtype=float) + 1.0)
    return float(out) if np.isscalar(x) and np.isscalar(omega) else out


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


def dpsr_slot2_factor(p: SystemParams, s: ChannelStats, x, cfg: AnalyticConfig = DEFAULT_CONFIG):
    """Dynamic-splitting analogue of :func:`slot2_outage_factor`: the
    conditional factor averaged over the relay-to-destination gain."""
    xs = np.asarray(x, dtype=float)[..., None]
    out = _gamma_average(lambda w: dpsr_slot2_outage_factor(p, s, xs, w),
                         s.lambda_rd, 1, cfg.quad)
    return float(out) if np.isscalar(x) else out


def dpsr_slot2_factor_quadrature(
    p: SystemParams, s: ChannelStats, x: float, cfg: AnalyticConfig = DEFAULT_CONFIG,
) -> float:
    """Reference for :func:`dpsr_slot2_factor`: average the conditional factor
    over the relay-to-destination gain density directly."""
    lam_rd = s.lambda_rd

    def f(w: float) -> float:
        return dpsr_slot2_outage_factor(p, s, x, w) * lam_rd * math.exp(-lam_rd * w)

    value, _ = integrate(f, _nested_inner(cfg), points=(1.0 / lam_rd,))
    return value


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


def ip_dpsr_quadrature(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Intercept probability under dynamic splitting (the sweep's route).

    Averages the slot-1 factor times :func:`dpsr_slot2_factor` over the
    Erlang jammer aggregate with the vectorised Gauss-Legendre kernel.
    """
    if p.gamma_th == 0:
        return 1.0
    _require_jamming(p)
    value = _gamma_average(
        lambda x: slot1_outage_factor(p, s, x) * dpsr_slot2_factor(p, s, x, cfg),
        s.lambda_je, p.num_jammers, cfg.quad, spread=True)
    return 1.0 - float(value)


def ip_dpsr_no_jamming(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Dynamic-splitting intercept probability with the jammers silent."""
    if p.gamma_th == 0:
        return 1.0
    q1 = -math.expm1(-p.gamma_th * s.lambda_se / p.psi)
    return 1.0 - q1 * dpsr_slot2_factor(p, s, 0.0, cfg)
