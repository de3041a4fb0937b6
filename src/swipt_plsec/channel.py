"""Channel-gain statistics: exponential links, pathloss geometry, and sampling.

Every link gain |h|^2 is exponential with rate parameter lambda = d**chi, so
the mean gain is 1/lambda (short links have small rates and strong gains).
The best of the M source-to-relay gains is selected per block; the K
jammer-to-eavesdropper gains enter only through their sum, which is Erlang.
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
    "ChannelDraw",
    "pathloss_rate",
    "best_source_cdf",
    "erlang_pdf_xi",
    "worker_stream",
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


@dataclass(frozen=True)
class ChannelDraw:
    """One realization (or a batch) of every channel gain needed for a trial;
    a link the draw skipped is ``None``."""

    gamma_sr_best: object
    gamma_se: object
    gamma_rd: object
    gamma_re: object
    xi: object


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit child seed for sweep point ``index``."""
    seq = np.random.SeedSequence([int(master_seed), int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


def worker_stream(master_seed: int, worker_index: int) -> np.random.Generator:
    """Independent counter-based stream for one worker of one run.

    Streams are keyed purely by (master seed, worker index), so a partitioned
    run reproduces bit-for-bit for a fixed worker count regardless of
    execution order.
    """
    seq = np.random.SeedSequence([int(master_seed), int(worker_index)])
    return np.random.Generator(np.random.Philox(seq))


# Rows per block of the best-of-M and Erlang draws, and per slice of the MC
# engine's SNR stages.  Consecutive blocks read the generator exactly as one
# (size, width) call would.  2^14-row blocks keep the scratch in cache; 2^16
# was no faster and left a higher, more variable peak resident set with two
# worker threads.
ROW_BLOCK = 1 << 14
# numpy sums a row shorter than 8 left to right and a longer one pairwise
_PAIRWISE_MIN = 8
# The best-of-M max either folds a block column by column, one ufunc call per
# column, or reduces it with max(axis=1), one inner loop per row.  A column
# call costs about as much as 12 rows of the reduction, so a block with fewer
# than 12 rows per column is reduced (256 x 64: 86 -> 37 us) and a taller one
# folded (16384 x 8: 190 us, where the reduction takes 1450 us).  Max is
# exact, so both give the same bits.
_ROWS_PER_COLUMN_CALL = 12


def _exp_inplace(u: np.ndarray, lam: float) -> np.ndarray:
    """Inverse-CDF Exp(lam) transform ``-log1p(-u) / lam``, written over ``u``."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.divide(u, -lam, out=u)


def _exp_draw(rng: np.random.Generator, lam: float, n: int) -> np.ndarray:
    # inverse-CDF sampling keeps the draw <-> uniform correspondence explicit
    return _exp_inplace(rng.random(n), lam)


def _fold_columns(op, block: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, block[:, 0])
    for j in range(1, block.shape[1]):
        op(out, block[:, j], out=out)


def _row_reduced_draw(rng: np.random.Generator, lam: float, n: int, width: int,
                      best: bool) -> np.ndarray:
    """Per-row max (``best``) or sum of ``width`` Exp(lam) draws, ``n`` rows.

    Bitwise equal to ``(-log1p(-rng.random((n, width))) / lam)`` reduced by
    ``max(axis=1)`` or ``sum(axis=1)``.  The max is taken over the uniforms and
    transformed once per row, which the monotone transform allows; a short
    row is summed column by column, in numpy's own left-to-right order.
    """
    out = np.empty(n)
    buf = np.empty((min(n, ROW_BLOCK), width))
    for lo in range(0, n, ROW_BLOCK):
        block = rng.random(out=buf[:min(ROW_BLOCK, n - lo)])
        rows = out[lo:lo + len(block)]
        if best:
            if len(block) < _ROWS_PER_COLUMN_CALL * width:
                np.max(block, axis=1, out=rows)
            else:
                _fold_columns(np.maximum, block, rows)
        elif width < _PAIRWISE_MIN:
            _fold_columns(np.add, _exp_inplace(block, lam), rows)
        else:
            np.sum(_exp_inplace(block, lam), axis=1, out=rows)
    return _exp_inplace(out, lam) if best else out


# links in the order their uniforms are drawn
_DRAW_ORDER = ("sr", "se", "rd", "re", "je")
# 64-bit words Philox yields per counter step; ``random`` reads one per uniform
_PHILOX_WORDS = 4


def _skip_uniforms(rng: np.random.Generator, k: int) -> None:
    """Move ``rng`` past ``k`` uniforms, exactly as ``rng.random(k)`` would.

    A Philox generator hands out the words left in its buffer, jumps its
    counter over the whole 4-word steps with ``advance`` and draws the
    remainder, so its counter, ``buffer_pos`` and every later draw equal
    those after ``rng.random(k)``.  ``advance`` clears a pending 32-bit half
    word, which ``random`` keeps, so such a state, like any other generator,
    draws and discards ``ROW_BLOCK`` uniforms at a time.
    """
    bitgen = rng.bit_generator
    if isinstance(bitgen, np.random.Philox):
        state = bitgen.state
        if not state["has_uint32"]:
            left = _PHILOX_WORDS - state["buffer_pos"]
            if k > left:
                rng.random(left)
                steps, k = divmod(k - left, _PHILOX_WORDS)
                bitgen.advance(steps)
            rng.random(k)
            return
    buf = np.empty(min(k, ROW_BLOCK))
    for lo in range(0, k, ROW_BLOCK):
        rng.random(out=buf[:min(ROW_BLOCK, k - lo)])


def _link_width(p: SystemParams, link: str) -> int:
    """Uniforms one trial draws for ``link``."""
    return {"sr": p.num_sources, "je": p.num_jammers}.get(link, 1)


def _draw_link(stats: ChannelStats, p: SystemParams, rng: np.random.Generator,
               link: str, n: int) -> np.ndarray:
    lam = getattr(stats, f"lambda_{link}")
    if link == "sr":
        return _row_reduced_draw(rng, lam, n, p.num_sources, best=True)
    if link == "je":
        return _row_reduced_draw(rng, lam, n, p.num_jammers, best=False)
    return _exp_draw(rng, lam, n)


def draw_channels(
    stats: ChannelStats,
    p: SystemParams,
    rng: np.random.Generator,
    size: int | None = None,
    links: Collection[str] = LINK_KEYS,
) -> ChannelDraw:
    """Draw the gains of ``links`` (default: all five) for ``size`` trials,
    or a single-trial scalar draw.

    The source-to-relay selection takes the max over ``num_sources`` draws;
    the selected source's eavesdropper-link gain is a fresh exponential,
    independent of the selection, because selection conditions only on the
    source-to-relay gains.  Draw order is fixed: SR block, SE, RD, RE, JE block.
    Each gain is the inverse-CDF transform ``-log1p(-u) / lambda`` of one
    uniform, so the result equals the plain form
    ``(-log1p(-rng.random((size, M))) / lambda_sr).max(axis=1)`` and so on,
    bit for bit.  The SR and JE blocks are drawn and reduced ``ROW_BLOCK`` rows
    at a time, which bounds their scratch whatever ``size`` is.

    A link left out of ``links`` is ``None`` in the result and is skipped,
    not drawn: the stream moves past its uniforms (``size * M`` for SR,
    ``size * K`` for JE, ``size`` for the others) as the draw would have, so
    the links drawn, and every later draw, are bitwise those of the full draw.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    unknown = set(links) - set(LINK_KEYS)
    if unknown:
        raise ValueError(f"unknown links: {sorted(unknown)}")
    gains = []
    skip = 0
    for link in _DRAW_ORDER:
        if link not in links:
            gains.append(None)
            skip += n * _link_width(p, link)
            continue
        if skip:
            _skip_uniforms(rng, skip)
            skip = 0
        gains.append(_draw_link(stats, p, rng, link, n))
    if skip:
        _skip_uniforms(rng, skip)
    if size is None:
        gains = [None if g is None else float(g[0]) for g in gains]
    return ChannelDraw(*gains)
