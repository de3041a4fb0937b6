"""Deterministic SNR and rate formulas for the two-hop energy-harvesting relay link.

All quantities are linear (never dB) and all functions are pure; channel-gain
arguments accept scalars or numpy arrays interchangeably.  The relay splits
the received power into a fraction ``rho`` harvested for its own transmission
and ``1 - rho`` kept for the information signal, and forwards with the
amplify-and-forward gain already folded into the SNR expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemParams",
    "snr_threshold",
    "achievable_rate",
    "rho_star",
    "snr_workspace",
    "gamma_d_spsr",
    "gamma_d_dpsr",
    "gamma_e",
]

E1_MODES = ("exact", "approx")
SCHEMES = ("spsr", "dpsr")
# float rows of an SNR workspace: gamma_e under dpsr holds five at once
SNR_ROWS = 5


def snr_threshold(c_th: float) -> float:
    """SNR threshold 2**(2*c_th) - 1 for a target rate in bits/s/Hz.

    The factor 2 in the exponent accounts for the two-slot relaying protocol
    halving the effective rate.
    """
    if not 0 <= c_th < np.inf:
        raise ValueError(f"target rate must be finite and nonnegative, got {c_th}")
    try:
        return 2.0 ** (2.0 * c_th) - 1.0
    except OverflowError:
        raise ValueError(f"target rate {c_th} gives an SNR threshold beyond float range") from None


def achievable_rate(gamma):
    """Rate 0.5 * log2(1 + gamma) in bits/s/Hz; inverse of :func:`snr_threshold`."""
    if np.any(np.asarray(gamma) < 0):
        raise ValueError("SNR must be nonnegative")
    out = 0.5 * np.log2(1.0 + gamma)
    return float(out) if np.isscalar(gamma) else out


@dataclass(frozen=True)
class SystemParams:
    """Scalar model parameters.

    ``psi`` and ``phi`` are the source and jammer transmit-power-to-noise
    ratios (linear).  ``gamma_th`` is derived from ``c_th`` at construction
    and cannot be set independently.
    """

    eta: float
    rho: float
    psi: float
    phi: float
    num_sources: int
    num_jammers: int
    c_th: float
    gamma_th: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0 <= self.rho <= 1:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if not 0 < self.psi < np.inf:
            raise ValueError(f"psi must be finite and positive, got {self.psi}")
        if not 0 <= self.phi < np.inf:
            raise ValueError(f"phi must be finite and nonnegative, got {self.phi}")
        if self.num_sources < 1:
            raise ValueError(f"need at least one source, got {self.num_sources}")
        if self.num_jammers < 1:
            raise ValueError(f"need at least one jammer, got {self.num_jammers}")
        object.__setattr__(self, "gamma_th", snr_threshold(self.c_th))


def snr_workspace(shape=()) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for the ``out`` argument of :func:`gamma_d_spsr`,
    :func:`gamma_d_dpsr` and :func:`gamma_e` on gains of ``shape``:
    ``SNR_ROWS`` float rows and one bool mask."""
    return np.empty((SNR_ROWS, *shape)), np.empty(shape, dtype=bool)


def _workspace_for(out, *gains) -> tuple[np.ndarray, np.ndarray]:
    """``out``, or a fresh workspace for the broadcast shape of ``gains``."""
    if out is None:
        return snr_workspace(np.broadcast_shapes(*(np.shape(g) for g in gains)))
    return out


def _check_gains(mask: np.ndarray, *gains) -> None:
    """Raise unless every gain is nonnegative, comparing into ``mask``."""
    for g in gains:
        if np.less(g, 0.0, out=mask).any():
            raise ValueError("channel gains must be nonnegative")


def _guarded_divide(num: np.ndarray, den: np.ndarray, mask: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """num / den where den > 0 and 0 elsewhere, computed in ``out``."""
    out.fill(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(num, den, out=out, where=np.greater(den, 0.0, out=mask))


def _rho_star_into(eta: float, gamma_rd, out: np.ndarray) -> np.ndarray:
    """1 / (1 + sqrt(eta * gamma_rd)), computed in ``out``."""
    np.multiply(eta, gamma_rd, out=out)
    np.sqrt(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def rho_star(eta: float, gamma_rd):
    """Power-splitting ratio 1 / (1 + sqrt(eta * gamma_rd)) maximizing the destination SNR."""
    if not 0 < eta <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if np.any(np.asarray(gamma_rd) < 0):
        raise ValueError("channel gain must be nonnegative")
    out = _rho_star_into(eta, gamma_rd, np.empty(np.shape(gamma_rd)))
    return float(out) if np.isscalar(gamma_rd) else out


def gamma_d_spsr(p: SystemParams, gamma_sr, gamma_rd, out=None):
    """Destination SNR under a fixed splitting ratio.

    Returns 0 at rho in {0, 1}: with everything harvested there is no signal
    left to forward, and with nothing harvested the relay has no power.
    ``out`` is a workspace from :func:`snr_workspace` of the gains' shape
    (one is made when it is ``None``); an array SNR is one of its rows.
    """
    floats, mask = _workspace_for(out, gamma_sr, gamma_rd)
    _check_gains(mask, gamma_sr, gamma_rd)
    num, den = floats[0, ...], floats[1, ...]  # rows, 0-d arrays for scalar gains
    rho = np.float64(p.rho)
    np.multiply(p.eta * rho * (1.0 - rho) * p.psi, gamma_sr, out=num)
    np.multiply(num, gamma_rd, out=num)
    np.multiply(p.eta * rho, gamma_rd, out=den)
    np.add(den, 1.0 - rho, out=den)
    if 0 < rho < 1:
        snr = np.divide(num, den, out=num)  # den >= 1 - rho > 0 for nonnegative gains
    else:
        snr = _guarded_divide(num, den, mask, floats[2, ...])
    return float(snr) if np.isscalar(gamma_sr) and np.isscalar(gamma_rd) else snr


def gamma_d_dpsr(p: SystemParams, gamma_sr, gamma_rd, out=None):
    """Destination SNR with the per-realization optimal splitting ratio.

    Equals ``gamma_d_spsr`` evaluated at ``rho_star(eta, gamma_rd)``:
    eta * psi * gamma_sr * gamma_rd / (1 + sqrt(eta * gamma_rd))**2.
    ``out`` is a workspace as for ``gamma_d_spsr``.
    """
    floats, mask = _workspace_for(out, gamma_sr, gamma_rd)
    _check_gains(mask, gamma_sr, gamma_rd)
    num, den = floats[0, ...], floats[1, ...]  # rows, 0-d arrays for scalar gains
    np.multiply(p.eta * p.psi, gamma_sr, out=num)
    np.multiply(num, gamma_rd, out=num)
    np.multiply(p.eta, gamma_rd, out=den)
    np.sqrt(den, out=den)
    np.add(1.0, den, out=den)
    np.square(den, out=den)
    snr = np.divide(num, den, out=num)
    return float(snr) if np.isscalar(gamma_sr) and np.isscalar(gamma_rd) else snr


def gamma_e(
    p: SystemParams,
    gamma_se,
    gamma_sr,
    gamma_re,
    xi,
    mode: str = "exact",
    scheme: str = "spsr",
    gamma_rd=None,
    out=None,
):
    """Eavesdropper SNR under jamming dilution: the larger of its two slots'
    SNRs (selection combining), the SNR an intercept is defined on.

    ``mode`` selects the first-slot denominator: ``exact`` keeps the unit
    noise term (psi * gamma_se / (phi * xi + 1)), ``approx`` drops it.  With
    the jammers silent (phi = 0, where the simulation passes ``xi = 0``),
    ``exact`` zeroes the jamming term in both slots and ``approx`` raises
    ``ValueError``.  ``scheme='dpsr'`` substitutes the per-realization
    optimal splitting ratio, which requires ``gamma_rd``.  ``out`` is a
    workspace as for :func:`gamma_d_spsr`; an array SNR is its first row.
    """
    if mode not in E1_MODES:
        raise ValueError(f"mode must be one of {E1_MODES}, got {mode!r}")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    gains = (gamma_se, gamma_sr, gamma_re, xi)
    rd = (gamma_rd,) if scheme == "dpsr" and gamma_rd is not None else ()
    floats, mask = _workspace_for(out, *gains, *rd)
    _check_gains(mask, *gains)
    e1, e2, phi_xi, den, rest = (floats[i, ...] for i in range(5))

    if scheme == "dpsr":
        if gamma_rd is None:
            raise ValueError("dpsr needs gamma_rd to evaluate the optimal splitting ratio")
        _check_gains(mask, gamma_rd)
        rho = _rho_star_into(p.eta, gamma_rd, rest)
        eta_rho = np.multiply(p.eta, rho, out=den)
        rest = np.subtract(1.0, rho, out=rest)
    else:
        rho = np.float64(p.rho)
        eta_rho, rest = p.eta * rho, 1.0 - rho

    np.multiply(p.phi, xi, out=phi_xi)
    np.multiply(p.psi, gamma_se, out=e1)
    if mode == "approx":
        if np.equal(phi_xi, 0.0, out=mask).any():
            raise ValueError("approx mode divides by phi * xi, which is zero here")
        np.divide(e1, phi_xi, out=e1)
    else:
        np.divide(e1, np.add(phi_xi, 1.0, out=e2), out=e1)

    # eta rho (1 - rho) gamma_sr gamma_re psi over
    # eta rho gamma_re + (1 - rho) phi xi + (1 - rho), each in that order
    np.multiply(eta_rho, rest, out=e2)
    np.multiply(e2, gamma_sr, out=e2)
    np.multiply(e2, gamma_re, out=e2)
    np.multiply(e2, p.psi, out=e2)
    np.multiply(eta_rho, gamma_re, out=den)
    np.add(den, np.multiply(rest, phi_xi, out=phi_xi), out=den)
    np.add(den, rest, out=den)
    e2 = _guarded_divide(e2, den, mask, phi_xi)
    snr = np.maximum(e1, e2, out=e1)  # selection combining of the two slots
    if all(np.isscalar(g) for g in gains) and (gamma_rd is None or np.isscalar(gamma_rd)):
        return float(snr)
    return snr
