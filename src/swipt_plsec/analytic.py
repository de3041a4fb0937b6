"""Semi-analytic outage and intercept probability evaluators: the sweep's routes.

Every route conditions on the best source gain g.  With u = lambda_sr * g,
the largest of M Exp(1) variables (density M e**-u (1 - e**-u)**(M-1), CDF
F_M(a) = (1 - e**-a)**M), each event is g against a threshold A, and the
rest of the event closes in elementary functions of z = u - a, a =
lambda_sr * A.  One kernel, :func:`_best_source_average`, computes
E[h(z); z > 0] for the closed form h a route passes; every term is
positive, so nothing cancels.

- Outage is F_M(a) + E[1 - exp(-lambda_rd * omega(z)); z > 0], where
  omega(z) is the largest relay-to-destination gain still in outage:
  lambda_sr * B / z under a fixed ratio (A = gamma_th/((1-rho) psi),
  B = gamma_th/(eta rho psi)), and 1/(eta r**2), r = sqrt(1 + z/a) - 1, at
  the optimal ratio (A = gamma_th/psi).
- Intercept is P1 + E[G(beta/z); z > 0].  P1 = (1 + c/lambda_je)**-K is the
  probability slot 1 alone is intercepted, c = gamma_th lambda_se phi/psi;
  beta = lambda_sr gamma_th lambda_re/(eta rho psi); and G, the chance
  that slot 1 misses while slot 2 is intercepted, is the jammer and
  wiretap averages in closed form (``_jammed``).  With the jammers
  silent (``_silent``), P1 = 1 - q1 and G(v) = q1 e**-v, q1 = 1 -
  exp(-gamma_th lambda_se/psi).  Under dynamic splitting a and beta are
  taken at ``rho*`` of each relay-to-destination gain, which is averaged
  over the 336 nodes of ``_IP_PANELS``, one panel (21 gains x 588 z nodes)
  at a time, so every temporary stays under glibc's 128 KiB mmap
  threshold; the partial sums are added in panel order.

The kernel is the composite Gauss-Kronrod pair G10/K21 on 28 panels in
log z (588 nodes).  Its value is the Kronrod sum and its error estimate the
distance from the Gauss sum over the same integrand values; it raises
:class:`QuadratureError` where that misses ``_TOL``, the one tolerance of
every route here.  A sum at most that tolerance's ``abs_tol`` outside
[0, 1] is a rounding residue, moved to the end it passed; one further out
raises :class:`NumericalError`.  ``_intercept`` refuses a psi at which
gamma_th/psi overflows with ``ValueError``.

The paper's closed forms and series, the binomial Bessel form of the slot-2
factor, and the scalar adaptive quadratures of the same averages are test
references in :mod:`swipt_plsec.reference`; no route here calls them.  The
intercept routes model the eavesdropper's first-slot SNR with the
jamming-dominated approximation psi*gamma_se/(phi*xi), i.e. without the
unit noise term, which is also what the simulation engine's ``approx``
mode realizes.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .channel import ChannelStats, erlang_pdf_xi
from .core import SystemParams
from .specfun import NumericalError, QuadratureError, QuadratureSpec, refuse_beyond

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
]


_TOL = QuadratureSpec()  # the tolerance of every average's estimate


def _require_jamming(p: SystemParams):
    if p.phi <= 0:
        raise ValueError("jamming evaluators need phi > 0; use the no-jamming variants")


# ---------------------------------------------------------------------------
# averaging kernel

def _panels(u_c: float, u_h: float = 4.5) -> tuple[float, ...]:
    """Panel edges in the log of the averaged variable, from -35.5 to 4.5:
    width 0.5 from ``u_h`` up, width 1 from ``u_c`` to ``u_h``, and below
    ``u_c`` widths that grow by 1.5x from 1.5, the lowest panel cut at -35.5."""
    edges = [u_c + i for i in range(int(u_h - u_c) + 1)]
    edges += [u_h + 0.5 * i for i in range(1, int(2 * (4.5 - u_h)) + 1)]
    width = 1.5
    while edges[0] > -35.5:
        edges.insert(0, max(edges[0] - width, -35.5))
        width *= 1.5
    return tuple(edges)


# The relay-to-destination gain of dynamic splitting, in v = log(lambda_rd *
# omega): 16 panels, width 1 from -5.5 up, where the Exp(1) weight is above
# e**-5.5.  Below -35.5 it holds under e**-35.5 of its mass, and past 4.5
# (lambda_rd * omega = 90) under 1e-39.
_IP_PANELS = _panels(-5.5)
# z = u - a of the best-source kernel: 28 panels, width 1 from -12.5 and
# 0.5 from -0.5 up, since the best-of-M bulk near log M is narrow in log z.
# Below z = e**-35.5 lies under M e**-35.5 of the mass; past z = 90, u > 90.
_Z_PANELS = _panels(-12.5, -0.5)


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
    the panels here it stays under a tenth of the tolerance over the
    declared grids.  Built on first use, like the node tables, not at
    import."""
    def mirror(a, sign=1.0):
        return np.concatenate([sign * a[:-1], a[::-1]])

    x = np.array(_XGK)
    wg = np.zeros_like(x)
    wg[1::2] = _WG
    return mirror(x, -1.0), mirror(np.array(_WGK)), mirror(wg)


def _log_nodes(edges: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(y, weights): the 21 nodes of G10/K21 on each panel between ``edges``
    in log y, panel by panel, and their Kronrod and Gauss weights times y,
    the Jacobian of the log, as the two columns of one (21 * panels, 2)
    table."""
    t, wk, wg = _rules()
    u = np.array(edges)
    mid = 0.5 * (u[1:] + u[:-1])[:, None]
    half = 0.5 * np.diff(u)[:, None]
    y = np.exp((mid + half * t).ravel())
    return y, np.stack([(half * wk).ravel(), (half * wg).ravel()], axis=1) * y[:, None]


def _read_only(*tables):
    for table in tables:
        table.setflags(write=False)  # every caller shares the cached arrays
    return tables


@functools.cache
def _z_table() -> tuple[np.ndarray, np.ndarray]:
    """The 588 z nodes of ``_Z_PANELS`` and their (588, 2) weights; built
    once, on first use."""
    return _read_only(*_log_nodes(_Z_PANELS))


@functools.lru_cache(maxsize=32)
def _gain_table(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The 336 nodes of omega ~ Exp(rate ``lam``) on ``_IP_PANELS``, in
    v = log(lam * omega), and their Exp-weighted (336, 2) weights; built
    once per rate, on first use."""
    y, weights = _log_nodes(_IP_PANELS)
    omega = y / lam
    return _read_only(omega, weights * (erlang_pdf_xi(omega, lam, 1) / lam)[:, None])


def _accept(sums):
    """The Kronrod column of ``sums`` (..., 2), refused through
    ``refuse_beyond`` where its distance from the Gauss column misses ``_TOL``."""
    value = sums[..., 0]
    refuse_beyond(value, np.abs(value - sums[..., 1]), _TOL, QuadratureError,
                  "Gauss-Kronrod average reached error")
    return value


def _best_source_average(h, a, m: int):
    """E[h(z); z > 0] for z = u - ``a``, u the largest of ``m`` Exp(1)
    variables, by G10/K21 on the 588 nodes of ``_Z_PANELS``: each node
    weighted by the density of u at a + z, times z.

    ``a`` is a float or an array of shape (..., 1), and ``h`` maps the node
    array to values that broadcast against it; the result has the leading
    shape of ``a``.  Raises :class:`QuadratureError` where a value is not
    finite or its estimate exceeds ``_TOL``."""
    z, weights = _z_table()
    u = a + z
    density = m * np.exp(-u) * (-np.expm1(-u)) ** (m - 1)
    return _accept((h(z) * density).dot(weights))


def _probability(value: float, what: str) -> float:
    """``value``, moved to the end of [0, 1] it passed where it lies at most
    ``_TOL.abs_tol`` outside, the rounding residue of a sum near 0 or 1; one
    further out (or NaN) raises :class:`NumericalError` with the distance
    outside as its ``bound``."""
    outside = max(-value, value - 1.0, 0.0)
    if not outside <= _TOL.abs_tol:
        raise NumericalError(f"{what} probability {value:.6e} lies {outside:.3e} outside "
                             f"[0, 1], beyond the rounding allowance {_TOL.abs_tol:g}",
                             value, outside)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# outage


def _outage(p: SystemParams, a: float, h) -> float:
    """F_M(``a``) + E[h(z); z > 0]: the source-side threshold missed, or met
    with a relay-to-destination gain too small for it."""
    m = p.num_sources
    with np.errstate(divide="ignore", over="ignore"):  # tiny psi: a = inf, CDF 1
        value = (-math.expm1(-a)) ** m + float(_best_source_average(h, a, m))
    return _probability(value, "outage")


def op_spsr(p: SystemParams, s: ChannelStats) -> float:
    """Outage probability under a fixed splitting ratio (the sweep's route):
    the gain ``lambda_rd * lambda_sr * B / z`` below which outage holds, in
    :func:`_outage`.  Endpoint splitting ratios give zero destination SNR,
    hence probability 1."""
    if p.gamma_th == 0:
        return 0.0
    if p.rho in (0.0, 1.0):
        return 1.0
    scale = s.lambda_sr * p.gamma_th / p.psi
    kappa = s.lambda_rd * scale / p.eta / p.rho  # eta * rho could underflow to 0
    a = scale / (1.0 - p.rho)
    return _outage(p, a, lambda z: -np.expm1(-kappa / z))


def op_dpsr(p: SystemParams, s: ChannelStats) -> float:
    """Outage probability under per-realization optimal splitting (the
    sweep's route): outage holds below the relay-to-destination gain
    1/(eta r**2), r = sqrt(1 + z/a) - 1, computed as ``expm1`` of half a
    ``log1p``, which keeps its digits where z/a is below an ulp of 1."""
    if p.gamma_th == 0:
        return 0.0
    a = s.lambda_sr * p.gamma_th / p.psi

    def h(z):
        r = np.expm1(0.5 * np.log1p(z / a))
        return -np.expm1(-s.lambda_rd / (p.eta * r * r))

    return _outage(p, a, h)


# ---------------------------------------------------------------------------
# intercept


def _jammed(p: SystemParams, s: ChannelStats):
    """(P1, G) with the jammers on.  The aggregate x ~ Gamma(K, lambda_je)
    and the relay-to-eavesdropper gain y ~ Exp(1) close in P1 = (1 + d)**-K,
    the chance that slot 1 alone is intercepted, and G(v) = e**-v
    (1 + w)**-K (1 - (1 + d/(1 + w))**-K), w = phi v/lambda_je, the chance
    that slot 1 misses (1 - e**-cx) while slot 2 is intercepted,
    y >= (phi x + 1) v; d = c/lambda_je."""
    _require_jamming(p)
    k = p.num_jammers
    # capped, since an infinite d would make d/(1 + w) NaN where w is too
    d = min(p.gamma_th / p.psi * s.lambda_se * p.phi / s.lambda_je, sys.float_info.max)

    def g(v):
        w = p.phi / s.lambda_je * v
        return np.exp(-v - k * np.log1p(w)) * -np.expm1(-k * np.log1p(d / (1.0 + w)))

    return math.exp(-k * math.log1p(d)), g


def _silent(p: SystemParams, s: ChannelStats):
    """(P1, G) with the jammers silent: P1 = 1 - q1 and G(v) = q1 e**-v,
    q1 = 1 - exp(-gamma_th lambda_se/psi) the chance that slot 1 misses."""
    q1 = -math.expm1(-p.gamma_th * s.lambda_se / p.psi)
    return 1.0 - q1, lambda v: q1 * np.exp(-v)


def _intercept(p: SystemParams, s: ChannelStats, silent: bool, dynamic: bool) -> float:
    """The intercept probability P1 + E[G(beta/z); z > 0], with (P1, G) of
    the jammers ``silent`` or on, and a and beta at ``p.rho`` or, when
    ``dynamic``, at ``rho*`` of each relay-to-destination gain node: 1 at
    gamma_th = 0.  Raises ``ValueError`` at a static rho outside (0, 1), with
    the jammers on at phi = 0, and where psi is so small that gamma_th/psi,
    which scales every threshold, overflows."""
    if p.gamma_th == 0:
        return 1.0
    if not (dynamic or 0 < p.rho < 1):
        raise ValueError("static-splitting intercept needs rho in (0, 1)")
    p1, g = _silent(p, s) if silent else _jammed(p, s)
    if not math.isfinite(p.gamma_th / p.psi):
        raise ValueError(f"psi = {p.psi:g} is too small: gamma_th/psi overflows")
    m = p.num_sources
    scale = s.lambda_sr * p.gamma_th / p.psi  # a = scale / (1 - rho)
    harvest = scale * s.lambda_re / p.eta  # beta = harvest / rho
    with np.errstate(divide="ignore", over="ignore"):
        if dynamic:
            omega, weights = _gain_table(s.lambda_rd)
            parts = []
            for b in range(0, omega.size, 21):  # one panel of gains at a time
                r = np.sqrt(p.eta * omega[b:b + 21, None])  # 1/rho* = 1 + r
                beta = harvest * (1.0 + r)
                inner = _best_source_average(lambda z: g(beta / z), scale * (1.0 + 1.0 / r), m)
                parts.append(inner.dot(weights[b:b + 21]))
            slot2 = float(_accept(sum(parts)))
        else:
            beta = harvest / p.rho
            slot2 = float(_best_source_average(lambda z: g(beta / z),
                                               scale / (1.0 - p.rho), m))
    return _probability(p1 + slot2, "intercept")


def ip_spsr_quadrature(p: SystemParams, s: ChannelStats) -> float:
    """Intercept probability under static splitting (the sweep's route):
    :func:`_intercept` at ``p.rho`` with the jammers on."""
    return _intercept(p, s, silent=False, dynamic=False)


def ip_spsr_no_jamming(p: SystemParams, s: ChannelStats) -> float:
    """Static-splitting intercept probability with the jammers silent."""
    return _intercept(p, s, silent=True, dynamic=False)


def ip_dpsr_quadrature(p: SystemParams, s: ChannelStats) -> float:
    """Intercept probability under dynamic splitting (the sweep's route):
    :func:`_intercept` at the optimal ratio of each relay-to-destination
    gain, with the jammers on."""
    return _intercept(p, s, silent=False, dynamic=True)


def ip_dpsr_no_jamming(p: SystemParams, s: ChannelStats) -> float:
    """Dynamic-splitting intercept probability with the jammers silent."""
    return _intercept(p, s, silent=True, dynamic=True)
