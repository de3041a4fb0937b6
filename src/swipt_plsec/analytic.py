"""Semi-analytic outage and intercept probability evaluators: the sweep's routes.

Every route averages a closed-form conditional probability over
Gamma-distributed gains with one vectorised kernel, the composite
Gauss-Kronrod pair G10/K21, whose value is the Kronrod sum and whose error
estimate is its distance from the Gauss sum over the same integrand values.
It runs on 840 nodes (40 width-1 panels) for outage and on 336 (16 panels,
graded below the bulk of the Gamma weight) for each intercept average, and
raises :class:`QuadratureError` where it misses ``_TOL``, the one tolerance
of every route here.  Each metric has one body, and its routes differ only
in what they pass it:

- ``_outage`` averages the best-of-M CDF, at the source-side gain the
  threshold requires, over the relay-to-destination gain, in plain array
  math over all nodes at once.  ``op_spsr`` takes that gain at the fixed
  splitting ratio, ``op_dpsr`` at the optimal ratio ``rho*`` of each gain.
- ``_intercept`` is 1 - E[slot1 * slot2] over the Erlang jammer aggregate,
  or 1 - q1 * slot2(0) with the jammers silent.  The ``ip_spsr_*`` routes
  pass the static slot-2 factor; the ``ip_dpsr_*`` routes pass
  :func:`dpsr_slot2_factor`, that factor at ``rho*`` averaged over the
  relay-to-destination gain: 336 x 336 = 112,896 node pairs, whose outer
  blocks run through ``core.spread_map`` and are added in block order, so
  the value does not depend on the thread count.

The slot-2 factor is a closed Bessel form which refuses, with
:class:`CancellationError`, where its alternating sum cancels.  It takes K_1
from ``bessel_k1`` (Cephes ``k1``), within a few ulps of ``kv(1, .)`` and six
times cheaper, and skips ``sqrt`` and K_1 in the terms whose factor
exp(b*info) underflows to exactly 0, which leaves the sum's bits as they
are.  The public slot factors pass their conditioning values (jammer
aggregate, relay-to-destination gain) through one check, which refuses
negative, NaN and infinite entries with ``ValueError``; ``_intercept``
refuses a psi at which gamma_th/psi overflows the same way, and the slot-2
factor one at which its Bessel argument overflows.

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

import numpy as np

from .channel import ChannelStats, erlang_pdf_xi
from .core import SystemParams, rho_star, spread_map
from .specfun import (CancellationError, NumericalError, QuadratureError, QuadratureSpec,
                      bessel_k1, refuse_beyond)

# Not called here: perfbench/layers.py rebinds these names to trace this
# module's calls into the layer below, so they stay bound.
from .channel import best_source_cdf  # noqa: F401
from .specfun import bessel_k, integrate, sum_series  # noqa: F401

__all__ = [
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


_TOL = QuadratureSpec()  # the tolerance of the kernel's estimate and the slot-2 bound


def _binom_coeffs(m: int) -> list[tuple[int, float]]:
    """(b, (-1)**b * C(m, b)) for b = 1..m."""
    return [(b, (-1.0) ** b * math.comb(m, b)) for b in range(1, m + 1)]


def _require_jamming(p: SystemParams):
    if p.phi <= 0:
        raise ValueError("jamming evaluators need phi > 0; use the no-jamming variants")


# ---------------------------------------------------------------------------
# averaging kernel

def _panels(u_c: float) -> tuple[float, ...]:
    """Panel edges in u = log(lam * x) from -35.5 to 4.5: width 1 from ``u_c``
    up, and below it widths that grow by 1.5x from 1.5, the lowest panel cut
    at -35.5.  Below -35.5 a Gamma(k) law holds under e**-35.5 / k! of its
    mass, and past 4.5 (lam * x = 90) under 1e-27 for k <= 8."""
    edges = [u_c + i for i in range(int(4.5 - u_c) + 1)]
    width = 1.5
    while edges[0] > -35.5:
        edges.insert(0, max(edges[0] - width, -35.5))
        width *= 1.5
    return tuple(edges)


# The outage averages keep 40 width-1 panels: at high psi the best-of-M CDF
# has structure deep in the tail.  The intercept averages (the jammer
# aggregate, and the gain that sets rho*) take 16: width 1 from -5.5 up,
# where the Gamma weight is above e**-5.5, and six graded panels below.
_OP_PANELS = _panels(-35.5)
_IP_PANELS = _panels(-5.5)


# The QUADPACK Gauss-Kronrod pair G10/K21 on [-1, 1] (Kronrod 1965; Piessens
# et al. 1983): the nonnegative Kronrod nodes in descending order, whose odd
# entries are the nonnegative 10-point Gauss nodes, their Kronrod weights,
# and the Gauss weights of those odd entries.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


@functools.cache
def _rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, Kronrod weights, Gauss weights) of G10/K21 on [-1, 1], the 21
    nodes ascending; the Gauss weights are 0 at the 11 Kronrod-only nodes, so
    one set of integrand values gives both sums.  |G10 - K21| is the error of
    G10, so it overstates that of K21, whose value the kernel returns; on
    the panels of ``_OP_PANELS`` and ``_IP_PANELS`` it stays under a tenth of
    the tolerance over the declared grids.  Built on first use, like the
    node tables, not at import."""
    def mirror(a, sign=1.0):
        return np.concatenate([sign * a[:-1], a[::-1]])

    x = np.array(_XGK)
    wg = np.zeros_like(x)
    wg[1::2] = _WG
    return mirror(x, -1.0), mirror(np.array(_WGK)), mirror(wg)


# nodes per block; a nested average calls its integrand per block, so it
# holds (128, 128) arrays, not (336, 336)
_BLOCK = 128


@functools.lru_cache(maxsize=32)
def _weighted_blocks(lam: float, k: int, edges: tuple[float, ...]
                     ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(nodes, weights, blocks) for X ~ Gamma(k, rate ``lam``): the 21 nodes
    of G10/K21 on each panel between ``edges`` in u = log(lam * x), panel by
    panel; their Erlang-weighted Kronrod and Gauss weights, the two columns
    of one (21 * panels, 2) table, (840, 2) on ``_OP_PANELS`` and (336, 2) on
    ``_IP_PANELS``; and the slices of their ``_BLOCK``-node blocks.

    Built once per (lam, k, edges), on first use; ``edges`` is one of the
    module's panel tuples, so the key hashes cheaply.  Read-only, because the
    threads of a spread average share them."""
    t, wk, wg = _rules()
    u = np.array(edges)
    mid = 0.5 * (u[1:] + u[:-1])[:, None]
    half = 0.5 * np.diff(u)[:, None]
    nodes = np.exp((mid + half * t).ravel()) / lam
    weights = (np.stack([(half * wk).ravel(), (half * wg).ravel()], axis=1)
               * (nodes * erlang_pdf_xi(nodes, lam, k))[:, None])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights, tuple(slice(i, i + _BLOCK) for i in range(0, nodes.size, _BLOCK))


def _gamma_average(f, lam: float, k: int, edges: tuple[float, ...], spread: bool = False,
                   flat: bool = False):
    """E[f(X)] for X ~ Gamma(k, rate ``lam``), by the composite G10/K21 rule
    in u = log(lam * x) on the panels between ``edges``: 21 nodes on each of
    the 40 width-1 panels of ``_OP_PANELS``, 840 in all, or of the 16 graded
    panels of ``_IP_PANELS``, 336 in all.

    ``f`` maps a node array on its trailing axis to values of the same
    trailing length; any leading axes carry through, so averages nest by
    broadcasting.  The value is the Kronrod sum, and the error estimate its
    distance from the Gauss sum over the same integrand values.  Raises
    :class:`QuadratureError` where a value is not finite or the estimate
    exceeds ``_TOL``.

    ``f`` is called once per ``_BLOCK``-node block, so a nested average holds
    (128, 128) arrays.  With ``flat`` it is called once on all nodes, and
    each block's product with its (Kronrod, Gauss) weight rows reads its
    slice of that one value array: an elementwise ``f`` gives every block the
    same values, so the value is the same bit for bit.  Only a 1-D average
    sets it; an average nested inside it would hold (336, 128) arrays, which
    cost more than the calls they save.

    With ``spread`` the node blocks go through ``core.spread_map``, whose
    threads run them side by side (the kernel's ufuncs release the GIL).
    Only the outermost average of a nested route sets it, so pools never
    nest.  The partial sums are added in block order either way, so the
    value does not depend on the thread count, and the first block that
    raises in that order is the one whose error propagates.
    """
    nodes, weights, blocks = _weighted_blocks(lam, k, edges)
    # ndarray.dot, not @: on a 128-node block the matmul ufunc's dispatch
    # costs more than the product
    if flat:
        values = f(nodes)
        parts = [values[b].dot(weights[b]) for b in blocks]
    else:
        def block_sum(b):
            return f(nodes[b]).dot(weights[b])

        parts = spread_map(block_sum, blocks) if spread else [block_sum(b) for b in blocks]
    sums = sum(parts)
    value = sums[..., 0]
    refuse_beyond(value, np.abs(value - sums[..., 1]), _TOL, QuadratureError,
                  "Gauss-Kronrod average reached error")
    return value


# ---------------------------------------------------------------------------
# outage


def _outage(p: SystemParams, s: ChannelStats, threshold) -> float:
    """The best-of-M CDF at the source-side gain ``threshold(p, x)`` averaged
    over the relay-to-destination gain x ~ Exp(``lambda_rd``), in one call
    over all 840 nodes of ``_OP_PANELS``."""
    with np.errstate(divide="ignore", over="ignore"):  # tiny psi: CDF 1, its limit
        value = _gamma_average(
            lambda x: (-np.expm1(-s.lambda_sr * threshold(p, x))) ** p.num_sources,
            s.lambda_rd, 1, _OP_PANELS, flat=True)
    return float(value)


def _spsr_threshold(p: SystemParams, x):
    """Best-source gain at which the destination SNR meets the threshold at
    relay-to-destination gain ``x``, under the fixed ratio ``p.rho``."""
    r1 = 1.0 - p.rho
    return p.gamma_th * (p.eta * p.rho * x + r1) / (p.eta * p.rho * r1 * p.psi * x)


def _dpsr_threshold(p: SystemParams, x):
    """:func:`_spsr_threshold` at the optimal ratio ``rho_star(eta, x)``."""
    return p.gamma_th * (1.0 + np.sqrt(p.eta * x)) ** 2 / (p.eta * p.psi * x)


def op_spsr(p: SystemParams, s: ChannelStats) -> float:
    """Outage probability under a fixed splitting ratio (the sweep's route):
    :func:`_outage` with the threshold taken at ``p.rho``.  Endpoint splitting
    ratios give zero destination SNR, hence probability 1."""
    if p.gamma_th == 0:
        return 0.0
    if p.rho in (0.0, 1.0):
        return 1.0
    return _outage(p, s, _spsr_threshold)


def op_dpsr(p: SystemParams, s: ChannelStats) -> float:
    """Outage probability under per-realization optimal splitting (the
    sweep's route): :func:`op_spsr` with the threshold taken at the optimal
    ratio of each relay-to-destination gain."""
    if p.gamma_th == 0:
        return 0.0
    return _outage(p, s, _dpsr_threshold)


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
    with np.errstate(over="ignore"):  # tiny psi: the exponent's -inf gives the limit 1
        out = -np.expm1(-p.gamma_th * s.lambda_se * p.phi * _conditioning(x) / p.psi)
    return float(out) if np.isscalar(x) else out


def _slot2_no_intercept(p: SystemParams, s: ChannelStats, rho, dilution):
    """Probability the second-slot wiretap SNR stays below threshold at
    splitting ratio ``rho`` and jamming dilution ``phi*x + 1`` (closed Bessel
    form; the two arrays broadcast).  ``rho = 1`` leaves no information power
    in slot 2, so the probability is 1 there.

    The alternating binomial sum cancels as M grows.  Raises
    :class:`CancellationError` where its value is not finite or its rounding
    bound eps*(1 + sum |terms|) exceeds ``_TOL``; the bound is at most
    eps*2**M, under 1e-12 for M <= 12.  Raises ``ValueError``, naming psi
    and the smallest rho, where a finite dilution and a positive rho make a
    Bessel argument overflow; exponents that overflow to -inf give factors
    of 0, their limit, silently.

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
    with np.errstate(divide="ignore", over="ignore"):
        harvest = np.asarray(s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * p.psi)
                             * (dilution / rho))
        if p.gamma_th == 0:
            return np.zeros_like(harvest)  # a zero threshold is always reached
        if (not p.num_sources * harvest.max(initial=0.0) < np.inf
                and np.isfinite(dilution).all() and (rho > 0).all()):
            raise ValueError(f"psi = {p.psi:g} is too small: the slot-2 Bessel argument "
                             f"overflows at rho = {rho.min():g}")
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
    refuse_beyond(acc, np.finfo(float).eps * magnitude, _TOL, CancellationError,
                  "binomial terms of the slot-2 factor cancel: rounding bound")
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


def dpsr_slot2_factor(p: SystemParams, s: ChannelStats, x):
    """Dynamic-splitting analogue of :func:`slot2_outage_factor`: the
    conditional factor averaged over the relay-to-destination gain, on the
    336 nodes of ``_IP_PANELS``."""
    xs = np.asarray(x, dtype=float)[..., None]
    out = _gamma_average(lambda w: dpsr_slot2_outage_factor(p, s, xs, w), s.lambda_rd, 1,
                         _IP_PANELS)
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# intercept


def _intercept(p: SystemParams, s: ChannelStats, slot2, jamming: bool,
               elementwise: bool = True) -> float:
    """1 - E[slot1(x) * slot2(x)] over the Erlang jammer aggregate x, or with
    the jammers silent 1 - q1 * slot2(0), q1 the slot-1 factor at SNR
    psi*gamma_se.  An elementwise ``slot2`` is averaged in one call over all
    nodes; an averaged one (dynamic splitting) has its blocks spread.
    Raises ``ValueError`` where psi is so small that gamma_th/psi, which
    scales every slot factor's argument, overflows.  A result at most
    ``_TOL.abs_tol`` outside [0, 1], the rounding residue of a factor near 0
    or 1, is moved to the end it passed; one further out (or NaN) raises
    :class:`NumericalError` with the distance outside as its ``bound``."""
    if not math.isfinite(p.gamma_th / p.psi):
        raise ValueError(f"psi = {p.psi:g} is too small: gamma_th/psi overflows")
    if not jamming:
        q1 = -math.expm1(-p.gamma_th * s.lambda_se / p.psi)
        no_intercept = q1 * slot2(0.0)
    else:
        _require_jamming(p)
        no_intercept = float(_gamma_average(lambda x: slot1_outage_factor(p, s, x) * slot2(x),
                                            s.lambda_je, p.num_jammers, _IP_PANELS,
                                            spread=not elementwise, flat=elementwise))
    ip = 1.0 - no_intercept
    outside = max(-ip, ip - 1.0, 0.0)
    if not outside <= _TOL.abs_tol:
        raise NumericalError(f"intercept probability {ip:.6e} lies {outside:.3e} outside "
                             f"[0, 1], beyond the rounding allowance {_TOL.abs_tol:g}",
                             ip, outside)
    return min(max(ip, 0.0), 1.0)


def ip_spsr_quadrature(p: SystemParams, s: ChannelStats) -> float:
    """Intercept probability under static splitting (the sweep's route): the
    product of the two slot factors averaged over the jammer aggregate."""
    if p.gamma_th == 0:
        return 1.0
    if not 0 < p.rho < 1:
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    return _intercept(p, s, lambda x: slot2_outage_factor(p, s, x), jamming=True)


def ip_spsr_no_jamming(p: SystemParams, s: ChannelStats) -> float:
    """Static-splitting intercept probability with the jammers silent: the
    two slot factors with the jamming terms zeroed, no average."""
    if p.gamma_th == 0:
        return 1.0
    if not 0 < p.rho < 1:
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    return _intercept(p, s, lambda x: slot2_outage_factor(p, s, x), jamming=False)


def ip_dpsr_quadrature(p: SystemParams, s: ChannelStats) -> float:
    """Intercept probability under dynamic splitting (the sweep's route): the
    slot-1 factor times :func:`dpsr_slot2_factor` averaged over the jammer
    aggregate."""
    if p.gamma_th == 0:
        return 1.0
    return _intercept(p, s, lambda x: dpsr_slot2_factor(p, s, x), jamming=True,
                      elementwise=False)


def ip_dpsr_no_jamming(p: SystemParams, s: ChannelStats) -> float:
    """Dynamic-splitting intercept probability with the jammers silent."""
    if p.gamma_th == 0:
        return 1.0
    return _intercept(p, s, lambda x: dpsr_slot2_factor(p, s, x), jamming=False)
