"""Monte-Carlo trial engine with partitioned, reproducible streams.

A run counts the metrics its caller asks for: outage (OP), intercept (IP) or
both.  It draws only the links those metrics read -- OP reads SR and RD; IP
reads SR, SE and RE, JE when the jammers are on, and RD under dpsr.  Every
link has its own stream, keyed by (master seed, worker index, link), so a
link's values do not depend on which others are drawn: an outage-only run,
an intercept-only run and a joint run with the same configuration report
bitwise-identical estimates.  Trials are partitioned across workers, each
drawing and counting ``ROW_BLOCK`` trials at a time; partial estimates merge
by integer count addition, which makes merging exact and associative.  The
partitions go through ``core.spread_map``, which runs them concurrently on
at most as many threads as the process has usable CPUs (inline when that is
one); each thread owns its partition's streams, so the counts equal those of
a sequential run bit for bit.

Every run counts a list of schemes, ``(kind, rho)`` pairs that differ only
in the splitting rule: each block draws the union of the links they read
once, as a ``{link: gains}`` dict, and counts every scheme on it (common
random numbers).  Neither field enters the draw, so each scheme's counts are
bitwise those of a run of its one-element list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Mapping, Sequence

import numpy as np

from .channel import ChannelStats, draw_channels, link_streams
from .core import E1_MODES, SCHEMES, SystemParams, gamma_d_dpsr, gamma_d_spsr, gamma_e, spread_map

__all__ = ["METRICS", "SimConfig", "EstimateWithCI", "simulate_point"]

# the metrics a run can count
METRICS = ("op", "ip")

# Trials drawn and counted at a time.  A stream yields the same values
# whatever the rows per call, so this fixes no result; 2^14 rows keep the
# scratch in cache, where 2^18-row draws raised the peak resident set.
ROW_BLOCK = 1 << 14

_Z95 = 1.96
_WILSON_SWITCH = 1e-4


@dataclass(frozen=True)
class SimConfig:
    """Trial-engine configuration.

    ``e1_mode`` picks the eavesdropper's first-slot SNR model: ``exact``
    keeps the unit noise term, ``approx`` uses the jamming-dominated form the
    analytic intercept expressions are built on.  ``approx`` therefore
    requires jamming to be on.
    """

    trials: int = 5_000_000
    seed: int = 0
    workers: int = 1
    jamming: bool = True
    e1_mode: str = "exact"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.e1_mode not in E1_MODES:
            raise ValueError(f"unknown e1_mode {self.e1_mode!r}")
        if self.e1_mode == "approx" and not self.jamming:
            raise ValueError("approx e1_mode divides by the jamming term; enable jamming")

    def partition(self) -> list[int]:
        """Per-worker trial counts: even split, remainder to the last worker."""
        base = self.trials // self.workers
        counts = [base] * self.workers
        counts[-1] += self.trials - base * self.workers
        return counts


@dataclass(frozen=True)
class EstimateWithCI:
    """A probability estimate with its 95% confidence half-width."""

    successes: int
    trials: int
    estimate: float
    ci_halfwidth: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "EstimateWithCI":
        if trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= successes <= trials:
            raise ValueError("successes must lie in [0, trials]")
        p = successes / trials
        if min(p, 1.0 - p) < _WILSON_SWITCH:
            # Wilson half-width: stays positive for rare events where the
            # normal approximation collapses to zero width
            z2 = _Z95 * _Z95
            hw = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) \
                / (1.0 + z2 / trials)
        else:
            hw = _Z95 * math.sqrt(p * (1.0 - p) / trials)
        return cls(successes, trials, p, hw)

    def merge(self, other: "EstimateWithCI") -> "EstimateWithCI":
        """Exact, associative combination of two partial estimates."""
        return EstimateWithCI.from_counts(
            self.successes + other.successes, self.trials + other.trials)

    def covers(self, value: float) -> bool:
        return abs(value - self.estimate) <= self.ci_halfwidth


def _links(metrics: Collection[str], kind: str, jamming: bool) -> set[str]:
    """Links whose gains the counts of ``metrics`` read under scheme ``kind``."""
    links = set()
    if "op" in metrics:
        links |= {"sr", "rd"}
    if "ip" in metrics:
        links |= {"sr", "se", "re"}
        if jamming:
            links.add("je")
        if kind == "dpsr":
            links.add("rd")
    return links


def _count_block(p: SystemParams, s: ChannelStats, c: SimConfig,
                 streams: Mapping[str, np.random.Generator], n: int,
                 metrics: Collection[str],
                 runs: Sequence[tuple[str, SystemParams]]) -> list[tuple[int, int]]:
    """(op, ip) success counts of ``n`` trials, one pair per (kind, params)
    run, all counted on one draw of the links in ``streams``; a metric not in
    ``metrics`` counts 0."""
    draw = draw_channels(s, p, streams, size=n)
    # with the jammers off the aggregate is zero (and e1_mode is exact)
    xi = draw.get("je") if c.jamming else np.zeros(n)
    sr, rd = draw["sr"], draw.get("rd")
    counts = []
    for kind, rp in runs:
        op = ip = 0
        if "op" in metrics:
            gamma_d = gamma_d_dpsr if kind == "dpsr" else gamma_d_spsr
            op = int(np.count_nonzero(gamma_d(rp, sr, rd) < rp.gamma_th))
        if "ip" in metrics:
            pair = gamma_e(rp, draw["se"], sr, draw["re"], xi,
                           mode=c.e1_mode, scheme=kind, gamma_rd=rd)
            ip = int(np.count_nonzero(pair.combined >= rp.gamma_th))
        counts.append((op, ip))
    return counts


def _sum_counts(parts: list[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """Per-scheme (op, ip) sums of per-part count lists."""
    return [(sum(op for op, _ in scheme), sum(ip for _, ip in scheme))
            for scheme in zip(*parts)]


def simulate_point(
    p: SystemParams, s: ChannelStats, c: SimConfig, schemes: Sequence[tuple[str, float]],
    metrics: Collection[str] = METRICS,
) -> list[tuple[EstimateWithCI | None, EstimateWithCI | None]]:
    """One (op, ip) pair of estimates per (kind, rho) pair of ``schemes``,
    all counted on one draw per block of per-link streams; a metric not in
    ``metrics`` (default both) is ``None``.  Each scheme's rho replaces ``p.rho``.
    """
    if not metrics or not set(metrics) <= set(METRICS):
        raise ValueError(f"metrics must be a nonempty subset of {METRICS}, got {metrics!r}")
    if not schemes or not {kind for kind, _ in schemes} <= set(SCHEMES):
        raise ValueError(f"need one or more schemes of kind {SCHEMES}, got {schemes!r}")
    # replace validates every field again, so skip it where nothing changes
    runs = [(kind, p if rho == p.rho else replace(p, rho=rho)) for kind, rho in schemes]
    links = set().union(*(_links(metrics, kind, c.jamming) for kind, _ in runs))

    def partition_counts(part: tuple[int, int]) -> list[tuple[int, int]]:
        worker, n_worker = part
        streams = link_streams(c.seed, worker, links)
        return _sum_counts([_count_block(p, s, c, streams, min(ROW_BLOCK, n_worker - lo),
                                         metrics, runs)
                            for lo in range(0, n_worker, ROW_BLOCK)])

    # numpy's bit generators and ufuncs release the GIL, so the partitions
    # really run side by side; each keeps its own streams
    parts = [(worker, n) for worker, n in enumerate(c.partition()) if n > 0]
    return [(EstimateWithCI.from_counts(op, c.trials) if "op" in metrics else None,
             EstimateWithCI.from_counts(ip, c.trials) if "ip" in metrics else None)
            for op, ip in _sum_counts(spread_map(partition_counts, parts))]
