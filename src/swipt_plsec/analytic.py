"""Semi-analytic outage and intercept probability evaluators: the sweep's routes.

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

The paper's closed forms and series, and the scalar adaptive quadratures of
the same averages, are test references in :mod:`swipt_plsec.reference`; no
route here calls them.  The intercept routes model the eavesdropper's
first-slot SNR with the jamming-dominated approximation psi*gamma_se/(phi*xi),
i.e. without the unit noise term, which is also what the simulation engine's
``approx`` mode realizes.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats, erlang_pdf_xi
from .core import SystemParams, rho_star
from .core import usable_cpus as _usable_cpus
from .specfun import CancellationError, QuadratureError, QuadratureSpec, bessel_k1

# Not called here: perfbench/layers.py rebinds these names to trace this
# module's calls into the layer below, so they stay bound.
from .channel import best_source_cdf  # noqa: F401
from .specfun import bessel_k, integrate, sum_series  # noqa: F401

__all__ = [
    "AnalyticConfig",
    "op_spsr",
    "op_dpsr",
    "ip_spsr_quadrature",
    "ip_spsr_no_jamming",
    "ip_dpsr_quadrature",
    "ip_dpsr_no_jamming",
    "slot1_outage_factor",
    "slot2_outage_factor",
    "dpsr_slot2_outage_factor",
    "dpsr_slot2_factor",
]


@dataclass(frozen=True)
class AnalyticConfig:
    """Truncation and quadrature settings for the analytic evaluators; the
    series settings reach only the paper forms of :mod:`swipt_plsec.reference`."""

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


def _require_jamming(p: SystemParams):
    if p.phi <= 0:
        raise ValueError("jamming evaluators need phi > 0; use the no-jamming variants")


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


# ---------------------------------------------------------------------------
# intercept, static splitting


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


def dpsr_slot2_factor(p: SystemParams, s: ChannelStats, x, cfg: AnalyticConfig = DEFAULT_CONFIG):
    """Dynamic-splitting analogue of :func:`slot2_outage_factor`: the
    conditional factor averaged over the relay-to-destination gain."""
    xs = np.asarray(x, dtype=float)[..., None]
    out = _gamma_average(lambda w: dpsr_slot2_outage_factor(p, s, xs, w),
                         s.lambda_rd, 1, cfg.quad)
    return float(out) if np.isscalar(x) else out


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
