"""Deterministic SNR and rate formulas for the two-hop energy-harvesting relay link.

All quantities are linear (never dB) and all functions are pure; channel-gain
arguments accept scalars or numpy arrays interchangeably.  The relay splits
the received power into a fraction ``rho`` harvested for its own transmission
and ``1 - rho`` kept for the information signal, and forwards with the
amplify-and-forward gain already folded into the SNR expressions.

``usable_cpus`` and ``spread_map`` are the one thread policy of the package:
the MC partitions run through ``spread_map``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemParams",
    "SnrPair",
    "snr_threshold",
    "achievable_rate",
    "rho_star",
    "gamma_d_spsr",
    "gamma_d_dpsr",
    "gamma_e",
]

E1_MODES = ("exact", "approx")
SCHEMES = ("spsr", "dpsr")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def spread_map(fn, items) -> list:
    """``[fn(x) for x in items]`` on up to ``usable_cpus()`` threads, inline
    with no pool at one.  Results come back in item order, and the first item
    in that order to raise is the one whose error propagates."""
    items = list(items)
    threads = min(len(items), usable_cpus())
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


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


@dataclass(frozen=True)
class SnrPair:
    """Eavesdropper SNRs for the broadcast slot and the relaying slot."""

    gamma_e1: object
    gamma_e2: object

    @property
    def combined(self):
        """Selection combining: the larger of the two per-slot SNRs."""
        return np.maximum(self.gamma_e1, self.gamma_e2)


def rho_star(eta: float, gamma_rd):
    """Power-splitting ratio 1 / (1 + sqrt(eta * gamma_rd)) maximizing the destination SNR."""
    if not 0 < eta <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if np.any(np.asarray(gamma_rd) < 0):
        raise ValueError("channel gain must be nonnegative")
    out = 1.0 / (1.0 + np.sqrt(eta * np.asarray(gamma_rd, dtype=float)))
    return float(out) if np.isscalar(gamma_rd) else out


def _gamma_d_at(eta: float, rho: float, psi: float, gamma_sr, gamma_rd):
    rho = np.float64(rho)
    num = eta * rho * (1.0 - rho) * psi * gamma_sr * gamma_rd
    den = eta * rho * gamma_rd + (1.0 - rho)
    if 0 < rho < 1:
        return num / den  # den >= 1 - rho > 0 for nonnegative gains
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def gamma_d_spsr(p: SystemParams, gamma_sr, gamma_rd):
    """Destination SNR under a fixed splitting ratio.

    Returns 0 at rho in {0, 1}: with everything harvested there is no signal
    left to forward, and with nothing harvested the relay has no power.
    """
    if np.any(np.asarray(gamma_sr) < 0) or np.any(np.asarray(gamma_rd) < 0):
        raise ValueError("channel gains must be nonnegative")
    out = _gamma_d_at(p.eta, p.rho, p.psi, gamma_sr, gamma_rd)
    return float(out) if np.isscalar(gamma_sr) and np.isscalar(gamma_rd) else out


def gamma_d_dpsr(p: SystemParams, gamma_sr, gamma_rd):
    """Destination SNR with the per-realization optimal splitting ratio.

    Equals ``gamma_d_spsr`` evaluated at ``rho_star(eta, gamma_rd)``:
    eta * psi * gamma_sr * gamma_rd / (1 + sqrt(eta * gamma_rd))**2.
    """
    if np.any(np.asarray(gamma_sr) < 0) or np.any(np.asarray(gamma_rd) < 0):
        raise ValueError("channel gains must be nonnegative")
    out = p.eta * p.psi * np.asarray(gamma_sr, dtype=float) * gamma_rd \
        / (1.0 + np.sqrt(p.eta * np.asarray(gamma_rd, dtype=float))) ** 2
    return float(out) if np.isscalar(gamma_sr) and np.isscalar(gamma_rd) else out


def gamma_e(
    p: SystemParams,
    gamma_se,
    gamma_sr,
    gamma_re,
    xi,
    mode: str = "exact",
    scheme: str = "spsr",
    gamma_rd=None,
) -> SnrPair:
    """Eavesdropper SNRs in both slots under jamming dilution.

    ``mode`` selects the first-slot denominator: ``exact`` keeps the unit
    noise term (psi * gamma_se / (phi * xi + 1)), ``approx`` drops it.  With
    the jammers silent, ``exact`` at ``xi = 0`` zeroes the jamming term in
    both slots.  ``scheme='dpsr'``
    substitutes the per-realization optimal splitting ratio, which requires
    ``gamma_rd``.
    """
    if mode not in E1_MODES:
        raise ValueError(f"mode must be one of {E1_MODES}, got {mode!r}")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    for g in (gamma_se, gamma_sr, gamma_re, xi):
        if np.any(np.asarray(g) < 0):
            raise ValueError("channel gains must be nonnegative")

    if scheme == "dpsr":
        if gamma_rd is None:
            raise ValueError("dpsr needs gamma_rd to evaluate the optimal splitting ratio")
        rho = rho_star(p.eta, gamma_rd)
    else:
        rho = p.rho

    phi_xi = p.phi * np.asarray(xi, dtype=float)
    if mode == "approx":
        if np.any(phi_xi == 0):
            raise ValueError("approx mode divides by phi * xi, which is zero here")
        e1 = p.psi * gamma_se / phi_xi
    else:
        e1 = p.psi * gamma_se / (phi_xi + 1.0)

    rho_arr = np.asarray(rho, dtype=float)
    num = p.eta * rho_arr * (1.0 - rho_arr) * gamma_sr * gamma_re * p.psi
    den = p.eta * rho_arr * gamma_re + (1.0 - rho_arr) * phi_xi + (1.0 - rho_arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        e2 = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    scalar = all(np.isscalar(g) for g in (gamma_se, gamma_sr, gamma_re, xi)) \
        and (gamma_rd is None or np.isscalar(gamma_rd))
    if scalar:
        return SnrPair(float(e1), float(e2))
    return SnrPair(np.asarray(e1, dtype=float), np.asarray(e2, dtype=float))
