"""Semi-analytic outage and intercept probability evaluators: the sweep's routes.

Every route averages a closed-form conditional probability over
Gamma-distributed gains with one vectorised Gauss-Legendre kernel, which
raises :class:`QuadratureError` where it misses its tolerance.  Each metric
has one body, and its routes differ only in what they pass it:

- ``_outage`` averages the best-of-M CDF, at the source-side gain the
  threshold requires, over the relay-to-destination gain, in plain array
  math over all nodes at once.  ``op_spsr`` takes that gain at the fixed
  splitting ratio, ``op_dpsr`` at the optimal ratio ``rho*`` of each gain.
- ``_intercept`` is 1 - E[slot1 * slot2] over the Erlang jammer aggregate,
  or 1 - q1 * slot2(0) with the jammers silent.  The ``ip_spsr_*`` routes
  pass the static slot-2 factor; the ``ip_dpsr_*`` routes pass
  :func:`dpsr_slot2_factor`, that factor at ``rho*`` averaged over the
  relay-to-destination gain, whose outer blocks run through
  ``core.spread_map`` and are added in block order, so the value does not
  depend on the thread count.

The slot-2 factor is a closed Bessel form which refuses, with
:class:`CancellationError`, where its alternating sum cancels.  It takes K_1
from ``bessel_k1`` (Cephes ``k1``), within a few ulps of ``kv(1, .)`` and six
times cheaper, and skips ``sqrt`` and K_1 in the terms whose factor
exp(b*info) underflows to exactly 0, which leaves the sum's bits as they
are.  The public slot factors pass their conditioning values (jammer
aggregate, relay-to-destination gain) through one check, which refuses
negative, NaN and infinite entries with ``ValueError``.

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
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats, erlang_pdf_xi
from .core import SystemParams, rho_star, spread_map
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


# nodes per block; a nested average calls its integrand per block, so it
# holds (128, 128) arrays, not (1120, 1120)
_BLOCK = 128


@functools.lru_cache(maxsize=32)
def _weighted_blocks(lam: float, k: int) -> tuple[np.ndarray, np.ndarray, tuple, int]:
    """(nodes, weights, blocks, coarse count) for X ~ Gamma(k, rate ``lam``):
    the nodes of both rules, the coarse rule's first, their Erlang-weighted
    weights, the slices of their ``_BLOCK``-node blocks (none straddles the
    two rules) and the number of coarse blocks.

    Built once per (lam, k), on first use.  Read-only, because the threads of
    a spread average share them."""
    rules = [(np.exp(u) / lam, w) for u, w in _rules()]
    nodes = np.concatenate([x for x, _ in rules])
    weights = np.concatenate([w * x * erlang_pdf_xi(x, lam, k) for x, w in rules])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    coarse = rules[0][0].size
    blocks = tuple(slice(i, min(i + _BLOCK, end))
                   for start, end in ((0, coarse), (coarse, nodes.size))
                   for i in range(start, end, _BLOCK))
    return nodes, weights, blocks, -(-coarse // _BLOCK)


def _gamma_average(f, lam: float, k: int, spec: QuadratureSpec, spread: bool = False,
                   flat: bool = False):
    """E[f(X)] for X ~ Gamma(k, rate ``lam``), by composite Gauss-Legendre in
    u = log(lam * x).

    ``f`` maps a node array on its trailing axis to values of the same
    trailing length; any leading axes carry through, so averages nest by
    broadcasting.  Raises :class:`QuadratureError` when the estimate exceeds
    ``max(spec.rel_tol * |value|, spec.abs_tol)`` anywhere, or a value is
    not finite.

    ``f`` is called once per ``_BLOCK``-node block, so a nested average holds
    (128, 128) arrays.  With ``flat`` it is called once on the nodes of both
    rules, and each block's dot product reads its slice of that one value
    array: an elementwise ``f`` gives every block the same values, so the
    value is the same bit for bit.  Only a 1-D average sets it; an average
    nested inside it would hold (1120, 128) arrays, which cost more than the
    calls they save.

    With ``spread`` the node blocks go through ``core.spread_map``, whose
    threads run them side by side (the kernel's ufuncs release the GIL).
    Only the outermost average of a nested route sets it, so pools never
    nest.  The partial sums are added in block order either way, so the
    value does not depend on the thread count, and the first block that
    raises in that order is the one whose error propagates.
    """
    nodes, weights, blocks, n_coarse = _weighted_blocks(lam, k)
    if flat:
        values = f(nodes)
        parts = [values[b] @ weights[b] for b in blocks]
    else:
        def block_sum(b):
            return f(nodes[b]) @ weights[b]

        parts = spread_map(block_sum, blocks) if spread else [block_sum(b) for b in blocks]
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
# outage


def _outage(p: SystemParams, s: ChannelStats, threshold, cfg: AnalyticConfig) -> float:
    """The best-of-M CDF at the source-side gain ``threshold(p, x)`` averaged
    over the relay-to-destination gain x ~ Exp(``lambda_rd``), in one call
    over the nodes of both rules."""
    value = _gamma_average(
        lambda x: (-np.expm1(-s.lambda_sr * threshold(p, x))) ** p.num_sources,
        s.lambda_rd, 1, cfg.quad, flat=True)
    return float(value)


def _spsr_threshold(p: SystemParams, x):
    """Best-source gain at which the destination SNR meets the threshold at
    relay-to-destination gain ``x``, under the fixed ratio ``p.rho``."""
    r1 = 1.0 - p.rho
    return p.gamma_th * (p.eta * p.rho * x + r1) / (p.eta * p.rho * r1 * p.psi * x)


def _dpsr_threshold(p: SystemParams, x):
    """:func:`_spsr_threshold` at the optimal ratio ``rho_star(eta, x)``."""
    return p.gamma_th * (1.0 + np.sqrt(p.eta * x)) ** 2 / (p.eta * p.psi * x)


def op_spsr(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under a fixed splitting ratio (the sweep's route):
    :func:`_outage` with the threshold taken at ``p.rho``.  Endpoint splitting
    ratios give zero destination SNR, hence probability 1."""
    if p.gamma_th == 0:
        return 0.0
    if p.rho in (0.0, 1.0):
        return 1.0
    return _outage(p, s, _spsr_threshold, cfg)


def op_dpsr(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Outage probability under per-realization optimal splitting (the
    sweep's route): :func:`op_spsr` with the threshold taken at the optimal
    ratio of each relay-to-destination gain."""
    if p.gamma_th == 0:
        return 0.0
    return _outage(p, s, _dpsr_threshold, cfg)


# ---------------------------------------------------------------------------
# intercept building blocks


def _conditioning(v) -> np.ndarray:
    """``v`` as a float array; ``ValueError`` unless every entry is finite and >= 0."""
    a = np.asarray(v, dtype=float)
    if not ((a >= 0) & (a < np.inf)).all():
        raise ValueError("conditioning values must be finite and nonnegative")
    return a


def slot1_outage_factor(p: SystemParams, s: ChannelStats, x):
    """Probability the first-slot wiretap SNR stays below threshold, given
    jammer aggregate ``x`` (jamming-dominated approximation)."""
    out = -np.expm1(-p.gamma_th * s.lambda_se * p.phi * _conditioning(x) / p.psi)
    return float(out) if np.isscalar(x) else out


def _slot2_no_intercept(p: SystemParams, s: ChannelStats, rho, dilution):
    """Probability the second-slot wiretap SNR stays below threshold at
    splitting ratio ``rho`` and jamming dilution ``phi*x + 1`` (closed Bessel
    form; the two arrays broadcast).  ``rho = 1`` leaves no information power
    in slot 2, so the probability is 1 there.

    The alternating binomial sum cancels as M grows.  Raises
    :class:`CancellationError` where its rounding bound eps*(1 + sum |terms|)
    exceeds max(rel_tol*|value|, abs_tol) of the default quadrature spec;
    the bound is at most eps*2**M, under 1e-12 for M <= 12.

    The b-th term carries the factor exp(b*info), and info depends on rho
    alone.  Where that factor underflows to exactly 0 the term is a signed
    zero (for 0 < harvest < inf), and adding it leaves ``acc`` and
    ``magnitude`` bit for bit as they are.  So ``sqrt`` and K_1 run only on
    the live entries, those whose factor is not 0: on the span of rho's
    trailing axis that holds them all where rho spans the result's trailing
    axis (the nested dynamic-splitting average), else on every entry.  A
    factor that is 0 at b stays 0 at every larger b (info < 0 there), so the
    loop ends at the first b with no live entry.  A harvest outside (0, inf)
    has every term evaluated, so its NaN or error shows as in the full sum."""
    rho = np.asarray(rho, dtype=float)
    harvest = np.asarray(
        s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * p.psi) * (dilution / rho))
    if p.gamma_th == 0:
        return np.zeros_like(harvest)  # a zero threshold is always reached
    with np.errstate(divide="ignore"):
        info = -s.lambda_sr * p.gamma_th / ((1.0 - rho) * p.psi)
    # the largest b has the smallest factors: skip if one underflows there,
    # and only where the skipped terms are exact zeros, 0 < harvest < inf
    skip = (not (np.exp(p.num_sources * info) > 0).all()
            and ((harvest > 0) & (harvest < np.inf)).all())
    on_trailing_axis = info.ndim > 0 and info.shape[-1] == harvest.shape[-1]
    acc = np.ones_like(harvest)
    magnitude = np.ones_like(harvest)  # 1 + sum of |terms|
    for b, coef in _binom_coeffs(p.num_sources):
        scale = np.exp(b * info)
        span = ...
        if skip:
            live = scale > 0
            if not live.any():
                break
            if on_trailing_axis:
                cols = np.flatnonzero(live.reshape(-1, live.shape[-1]).any(axis=0))
                span = (..., slice(cols[0], cols[-1] + 1))
        r = np.sqrt(b * harvest[span])
        term = 2.0 * coef * scale[span] * r * bessel_k1(2.0 * r)
        acc[span] += term
        magnitude[span] += np.abs(term)
    bound = np.finfo(float).eps * magnitude
    spec = DEFAULT_CONFIG.quad
    bad = bound > np.maximum(spec.rel_tol * np.abs(acc), spec.abs_tol)
    if np.any(bad):
        i = np.argmax(np.ravel(bad))
        v, e = float(np.ravel(acc)[i]), float(np.ravel(bound)[i])
        raise CancellationError(
            f"binomial terms of the slot-2 factor cancel: rounding bound {e:.3e} on "
            f"value {v:.6e}, above max(rel_tol*|value|, abs_tol)", v, e)
    return acc if acc.ndim else acc[()]  # a scalar for 0-d inputs


def slot2_outage_factor(p: SystemParams, s: ChannelStats, x):
    """Probability the second-slot wiretap SNR stays below threshold, given
    jammer aggregate ``x``, under static splitting (closed Bessel form)."""
    xs = _conditioning(x)
    if not 0 < p.rho < 1:
        raise ValueError("static splitting needs rho in (0, 1)")
    out = _slot2_no_intercept(p, s, p.rho, p.phi * xs + 1.0)
    return float(out) if np.isscalar(x) else out


def dpsr_slot2_outage_factor(p: SystemParams, s: ChannelStats, x, omega):
    """Probability the second-slot wiretap SNR stays below threshold given the
    jammer aggregate ``x`` and the relay-to-destination gain ``omega`` that
    fixes the optimal splitting ratio (the two arrays broadcast)."""
    xs = _conditioning(x)
    _conditioning(omega)
    out = _slot2_no_intercept(p, s, rho_star(p.eta, omega), p.phi * xs + 1.0)
    return float(out) if np.isscalar(x) and np.isscalar(omega) else out


def dpsr_slot2_factor(p: SystemParams, s: ChannelStats, x, cfg: AnalyticConfig = DEFAULT_CONFIG):
    """Dynamic-splitting analogue of :func:`slot2_outage_factor`: the
    conditional factor averaged over the relay-to-destination gain."""
    xs = np.asarray(x, dtype=float)[..., None]
    out = _gamma_average(lambda w: dpsr_slot2_outage_factor(p, s, xs, w),
                         s.lambda_rd, 1, cfg.quad)
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# intercept


def _intercept(p: SystemParams, s: ChannelStats, slot2, cfg: AnalyticConfig,
               jamming: bool, elementwise: bool = True) -> float:
    """1 - E[slot1(x) * slot2(x)] over the Erlang jammer aggregate x, or with
    the jammers silent 1 - q1 * slot2(0), q1 the slot-1 factor at SNR
    psi*gamma_se.  An elementwise ``slot2`` is averaged in one call over all
    nodes; an averaged one (dynamic splitting) has its blocks spread."""
    if not jamming:
        q1 = -math.expm1(-p.gamma_th * s.lambda_se / p.psi)
        return 1.0 - q1 * slot2(0.0)
    _require_jamming(p)
    value = _gamma_average(lambda x: slot1_outage_factor(p, s, x) * slot2(x),
                           s.lambda_je, p.num_jammers, cfg.quad,
                           spread=not elementwise, flat=elementwise)
    return 1.0 - float(value)


def ip_spsr_quadrature(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Intercept probability under static splitting (the sweep's route): the
    product of the two slot factors averaged over the jammer aggregate."""
    if p.gamma_th == 0:
        return 1.0
    if not 0 < p.rho < 1:
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    return _intercept(p, s, lambda x: slot2_outage_factor(p, s, x), cfg, jamming=True)


def ip_spsr_no_jamming(p: SystemParams, s: ChannelStats) -> float:
    """Static-splitting intercept probability with the jammers silent: the
    two slot factors with the jamming terms zeroed, no average."""
    if p.gamma_th == 0:
        return 1.0
    if not 0 < p.rho < 1:
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    return _intercept(p, s, lambda x: slot2_outage_factor(p, s, x), DEFAULT_CONFIG,
                      jamming=False)


def ip_dpsr_quadrature(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Intercept probability under dynamic splitting (the sweep's route): the
    slot-1 factor times :func:`dpsr_slot2_factor` averaged over the jammer
    aggregate."""
    if p.gamma_th == 0:
        return 1.0
    return _intercept(p, s, lambda x: dpsr_slot2_factor(p, s, x, cfg), cfg, jamming=True,
                      elementwise=False)


def ip_dpsr_no_jamming(p: SystemParams, s: ChannelStats, cfg: AnalyticConfig = DEFAULT_CONFIG) -> float:
    """Dynamic-splitting intercept probability with the jammers silent."""
    if p.gamma_th == 0:
        return 1.0
    return _intercept(p, s, lambda x: dpsr_slot2_factor(p, s, x, cfg), cfg, jamming=False)
