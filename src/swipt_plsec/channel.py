"""Channel-gain statistics: exponential links, pathloss geometry, and sampling.

Every link gain |h|^2 is exponential with rate parameter lambda = d**chi, so
the mean gain is 1/lambda (short links have small rates and strong gains).
The best of the M source-to-relay gains is selected per block; the K
jammer-to-eavesdropper gains enter only through their sum, which is Erlang.
Sampling gives each link its own stream, keyed by (seed, worker, link), and
draws each gain from its own law in one value per trial; a draw is a
``{link: gains}`` dict keyed by the ``LINK_KEYS`` names of the links drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .core import SystemParams

__all__ = [
    "LINK_KEYS",
    "ChannelStats",
    "pathloss_rate",
    "best_source_cdf",
    "erlang_pdf_xi",
    "link_streams",
    "derive_seed",
    "draw_channels",
]

# link name -> (from node, to node)
LINK_KEYS: dict[str, tuple[str, str]] = {
    "sr": ("S", "R"),
    "rd": ("R", "D"),
    "re": ("R", "E"),
    "je": ("J", "E"),
    "se": ("S", "E"),
}


def pathloss_rate(distance: float, chi: float) -> float:
    """Exponential rate parameter d**chi for a link of length ``distance``."""
    if not 0 < distance < math.inf:
        raise ValueError(f"distance must be finite and positive, got {distance}")
    if not 0 < chi < math.inf:
        raise ValueError(f"pathloss exponent must be finite and positive, got {chi}")
    try:
        return float(distance) ** chi
    except OverflowError:
        raise ValueError(f"rate {distance}**{chi} is beyond float range") from None


def best_source_cdf(x, lam: float, num_sources: int):
    """CDF (1 - exp(-lam x))**M of the largest of ``num_sources`` i.i.d.
    Exp(lam) gains."""
    if lam <= 0:
        raise ValueError(f"rate parameter must be positive, got {lam}")
    if num_sources < 1:
        raise ValueError(f"need at least one source, got {num_sources}")
    if np.any(np.asarray(x) < 0):
        raise ValueError("gain must be nonnegative")
    out = (-np.expm1(-lam * np.asarray(x, dtype=float))) ** num_sources
    return float(out) if np.isscalar(x) else out


def erlang_pdf_xi(x, lam: float, num_jammers: int):
    """Density of the sum of ``num_jammers`` i.i.d. Exp(lam) gains."""
    if lam <= 0:
        raise ValueError(f"rate parameter must be positive, got {lam}")
    if num_jammers < 1:
        raise ValueError(f"need at least one jammer, got {num_jammers}")
    if np.any(np.asarray(x) < 0):
        raise ValueError("gain must be nonnegative")
    k = num_jammers
    xa = np.asarray(x, dtype=float)
    out = lam ** k / math.factorial(k - 1) * xa ** (k - 1) * np.exp(-lam * xa)
    return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class ChannelStats:
    """Rate parameters for every link class, optionally tied to a geometry.

    ``positions`` maps node names S, R, D, E, J to 2-D coordinates; when it is
    set, the rates were derived from it via :func:`pathloss_rate` (except
    where explicit overrides won).  ``distance_decimals`` records the decimal
    quantization applied to distances before exponentiation -- the convention
    under which the shipped scenario rate tables were produced.
    """

    lambda_sr: float
    lambda_rd: float
    lambda_re: float
    lambda_je: float
    lambda_se: float
    chi: float | None = None
    positions: Mapping[str, tuple[float, float]] | None = None
    distance_decimals: int | None = None

    def __post_init__(self):
        for name in LINK_KEYS:
            value = getattr(self, f"lambda_{name}")
            if not 0 < value < math.inf:
                raise ValueError(f"lambda_{name} must be finite and positive, got {value}")
        if self.chi is not None and not 0 < self.chi < math.inf:
            raise ValueError(f"pathloss exponent must be finite and positive, got {self.chi}")

    @classmethod
    def from_positions(
        cls,
        positions: Mapping[str, tuple[float, float]],
        chi: float,
        distance_decimals: int | None = None,
        overrides: Mapping[str, float] | None = None,
    ) -> "ChannelStats":
        """Derive every rate parameter from node coordinates.

        ``distance_decimals`` rounds each distance before applying the
        pathloss exponent (set to 4 by the shipped scenarios, whose reference
        rate tables were tabulated from 4-decimal distances).  ``overrides``
        maps link names (e.g. ``"se"``) to rates that win over geometry.
        """
        missing = {n for pair in LINK_KEYS.values() for n in pair} - set(positions)
        if missing:
            raise ValueError(f"positions missing nodes: {sorted(missing)}")
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(LINK_KEYS)
        if unknown:
            raise ValueError(f"unknown override links: {sorted(unknown)}")
        rates = {}
        for link, (a, b) in LINK_KEYS.items():
            if link in overrides:
                rates[link] = float(overrides[link])
                continue
            d = math.dist(positions[a], positions[b])
            if distance_decimals is not None:
                d = round(d, distance_decimals)
            rates[link] = pathloss_rate(d, chi)
        return cls(
            lambda_sr=rates["sr"], lambda_rd=rates["rd"], lambda_re=rates["re"],
            lambda_je=rates["je"], lambda_se=rates["se"],
            chi=chi,
            positions={k: (float(v[0]), float(v[1])) for k, v in positions.items()},
            distance_decimals=distance_decimals,
        )

    def distances(self) -> dict[str, float]:
        """Link distances implied by the stored positions (quantized as configured)."""
        if self.positions is None:
            raise ValueError("no positions stored")
        out = {}
        for link, (a, b) in LINK_KEYS.items():
            d = math.dist(self.positions[a], self.positions[b])
            if self.distance_decimals is not None:
                d = round(d, self.distance_decimals)
            out[link] = d
        return out


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit child seed for sweep point ``index``."""
    seq = np.random.SeedSequence([int(master_seed), int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


def link_streams(master_seed: int, worker_index: int,
                 links: Collection[str]) -> dict[str, np.random.Generator]:
    """Independent counter-based streams for the ``links`` of one worker of one run.

    Each is keyed purely by (master seed, worker index, link index in
    ``LINK_KEYS``), so a link's values depend neither on the other links
    drawn nor on execution order, and a partitioned run reproduces bit for
    bit for a fixed worker count."""
    unknown = set(links) - set(LINK_KEYS)
    if unknown:
        raise ValueError(f"unknown links: {sorted(unknown)}")
    return {link: np.random.Generator(np.random.Philox(
                np.random.SeedSequence([int(master_seed), int(worker_index), index])))
            for index, link in enumerate(LINK_KEYS) if link in links}


def _exp_draw(rng: np.random.Generator, lam: float, n: int) -> np.ndarray:
    """Exp(lam) gains by the inverse CDF ``-log1p(-u) / lam``."""
    u = rng.random(n)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.divide(u, -lam, out=u)


def _best_of_m_draw(rng: np.random.Generator, lam: float, m: int, n: int) -> np.ndarray:
    """Largest of ``m`` i.i.d. Exp(lam) gains, one uniform per row: the inverse
    of the CDF (1 - exp(-lam g))**m, ``-log(-expm1(log(u) / m)) / lam``
    (Devroye 1986, ch. 2), which keeps its precision where u**(1/m) is near 1."""
    u = rng.random(n)
    with np.errstate(divide="ignore"):  # u = 0 gives log 0 = -inf, hence gain 0
        np.log(u, out=u)
    np.divide(u, m, out=u)
    np.expm1(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.divide(u, -lam, out=u)


def _draw_link(stats: ChannelStats, p: SystemParams, rng: np.random.Generator,
               link: str, n: int) -> np.ndarray:
    lam = getattr(stats, f"lambda_{link}")
    if link == "sr":
        return _best_of_m_draw(rng, lam, p.num_sources, n)
    if link == "je":
        # the sum of K i.i.d. Exp(lam) gains is Gamma(K, 1/lam)
        xi = rng.standard_gamma(p.num_jammers, n)
        return np.divide(xi, lam, out=xi)
    return _exp_draw(rng, lam, n)


def draw_channels(
    stats: ChannelStats,
    p: SystemParams,
    streams: Mapping[str, np.random.Generator],
    size: int,
) -> dict[str, np.ndarray]:
    """``size`` gains of each link in ``streams`` (see :func:`link_streams`),
    each from its own stream, keyed by link name.

    Each gain is one value per trial from its own law: SR, the best of
    ``num_sources`` gains, by the inverse CDF of their max; JE, the sum of
    ``num_jammers`` gains, by one Gamma(K) draw; SE, RD and RE by the
    exponential inverse CDF.  The selected source's eavesdropper-link gain
    is independent of the selection, which conditions only on the SR gains.
    A stream yields the same values however its rows are split across calls.
    """
    n = int(size)
    if n < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return {link: _draw_link(stats, p, rng, link, n) for link, rng in streams.items()}
