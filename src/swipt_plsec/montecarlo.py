"""Monte-Carlo trial engine with partitioned, reproducible streams.

A run counts the metrics its caller asks for: outage (OP), intercept (IP) or
both.  It draws only the links those metrics read -- OP reads SR and RD; IP
reads SR, SE and RE, JE when the jammers are on, and RD under dpsr -- and
skips the uniforms of the others, so an outage-only run, an intercept-only
run, and a joint run with the same configuration advance identical streams
and report bitwise-identical estimates.  Trials are partitioned across
workers whose streams derive from (master seed, worker index); partial
estimates merge by integer count addition, which makes merging exact and
associative.  The partitions go through ``core.spread_map``, which runs them
concurrently on at most as many threads as the process has usable CPUs
(inline when that is one); each thread owns its partition's stream, so the
counts equal those of a sequential run bit for bit.

A run counts a list of schemes, ``(kind, rho)`` pairs that differ only in
the splitting rule: each chunk draws the union of the links they read once
and counts every scheme on it (common random numbers).  Neither field enters
the draw, so each scheme's counts are bitwise those of its own run.  The
one-scheme calls are the one-element list ``(c.scheme, p.rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Sequence

import numpy as np

from .channel import ROW_BLOCK, ChannelStats, draw_channels, worker_stream
from .core import SCHEMES, SystemParams, gamma_d_dpsr, gamma_d_spsr, gamma_e, spread_map

__all__ = ["METRICS", "SimConfig", "EstimateWithCI", "simulate_op", "simulate_ip",
           "simulate_point"]

# the metrics a run can count
METRICS = ("op", "ip")

# trials per draw call; it fixes which uniform feeds which variable
_CHUNK = 1 << 18
_Z95 = 1.96
_WILSON_SWITCH = 1e-4


@dataclass(frozen=True)
class SimConfig:
    """Trial-engine configuration.

    Only the one-scheme calls read ``scheme``; a list of schemes carries
    its own kinds.

    ``e1_mode`` picks the eavesdropper's first-slot SNR model: ``exact``
    keeps the unit noise term, ``approx`` uses the jamming-dominated form the
    analytic intercept expressions are built on.  ``approx`` therefore
    requires jamming to be on.
    """

    trials: int = 5_000_000
    seed: int = 0
    workers: int = 1
    scheme: str = "spsr"
    jamming: bool = True
    e1_mode: str = "exact"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.e1_mode not in ("exact", "approx"):
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


def _count_chunk(p: SystemParams, s: ChannelStats, c: SimConfig,
                 rng: np.random.Generator, n: int, metrics: Collection[str],
                 runs: Sequence[tuple[str, SystemParams]]) -> list[tuple[int, int]]:
    """(op, ip) success counts of ``n`` trials, one pair per (kind, params)
    run, all counted on one draw of the links any of them reads; a metric not
    in ``metrics`` counts 0, and the links only it reads are skipped, not
    drawn."""
    want_op, want_ip = "op" in metrics, "ip" in metrics
    links = set().union(*(_links(metrics, kind, c.jamming) for kind, _ in runs))
    draw = draw_channels(s, p, rng, size=n, links=links)
    mode = c.e1_mode if c.jamming else "no-jamming"
    # with the jammers off, gamma_e reads the aggregate only for its shape
    xi = draw.xi if c.jamming else np.zeros(n)
    counts = [[0, 0] for _ in runs]
    # the SNR stages are elementwise, so row slices give the same counts with
    # small temporaries
    for lo in range(0, n, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        sr = draw.gamma_sr_best[rows]
        rd = None if draw.gamma_rd is None else draw.gamma_rd[rows]
        for (kind, rp), count in zip(runs, counts):
            if want_op:
                gamma_d = gamma_d_dpsr if kind == "dpsr" else gamma_d_spsr
                count[0] += int(np.count_nonzero(gamma_d(rp, sr, rd) < rp.gamma_th))
            if want_ip:
                pair = gamma_e(rp, draw.gamma_se[rows], sr, draw.gamma_re[rows], xi[rows],
                               mode=mode, scheme=kind, gamma_rd=rd)
                count[1] += int(np.count_nonzero(pair.combined >= rp.gamma_th))
    return [tuple(count) for count in counts]


def _sum_counts(parts: list[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """Per-scheme (op, ip) sums of per-part count lists."""
    return [(sum(op for op, _ in scheme), sum(ip for _, ip in scheme))
            for scheme in zip(*parts)]


def _simulate_counts(p: SystemParams, s: ChannelStats, c: SimConfig,
                     metrics: Collection[str], schemes: Sequence[tuple[str, float]],
                     ) -> list[tuple[int, int]]:
    """Per-scheme (op, ip) counts of the (kind, rho) ``schemes`` at ``p``."""
    if not metrics or not set(metrics) <= set(METRICS):
        raise ValueError(f"metrics must be a nonempty subset of {METRICS}, got {metrics!r}")
    if not schemes or not {kind for kind, _ in schemes} <= set(SCHEMES):
        raise ValueError(f"need one or more schemes of kind {SCHEMES}, got {schemes!r}")
    # replace validates every field again, so skip it where nothing changes
    runs = [(kind, p if rho == p.rho else replace(p, rho=rho)) for kind, rho in schemes]

    def partition_counts(part: tuple[int, int]) -> list[tuple[int, int]]:
        worker, n_worker = part
        rng = worker_stream(c.seed, worker)
        return _sum_counts([_count_chunk(p, s, c, rng, min(_CHUNK, n_worker - lo), metrics, runs)
                            for lo in range(0, n_worker, _CHUNK)])

    # numpy's bit generators and ufuncs release the GIL, so the partitions
    # really run side by side; each keeps its own stream
    parts = [(worker, n) for worker, n in enumerate(c.partition()) if n > 0]
    return _sum_counts(spread_map(partition_counts, parts))


def simulate_op(p: SystemParams, s: ChannelStats, c: SimConfig) -> EstimateWithCI:
    """Fraction of trials whose destination SNR falls below the threshold.

    Draws only the SR and RD gains and skips the others' uniforms, so the
    estimate is bitwise that of :func:`simulate_point`.
    """
    return simulate_point(p, s, c, ("op",))[0]


def simulate_ip(p: SystemParams, s: ChannelStats, c: SimConfig) -> EstimateWithCI:
    """Fraction of trials whose combined eavesdropper SNR reaches the threshold.

    Skips the uniforms of RD under spsr and of JE with the jammers off, which
    the intercept does not read, so the estimate is bitwise that of
    :func:`simulate_point`.
    """
    return simulate_point(p, s, c, ("ip",))[1]


def simulate_point(
    p: SystemParams, s: ChannelStats, c: SimConfig, metrics: Collection[str] = METRICS,
    schemes: Sequence[tuple[str, float]] | None = None,
):
    """(op, ip) estimates of the ``metrics`` asked for (default both) from
    one trial stream; a metric not asked for is ``None``.

    With ``schemes``, a sequence of (kind, rho) pairs, the run counts every
    scheme on one draw per chunk and returns a list of (op, ip) pairs, one per
    scheme; ``c.scheme`` and ``p.rho`` are then not read.  Each pair is
    bitwise that of the one-scheme call with ``c.scheme=kind`` and
    ``p.rho=rho``.
    """
    runs = ((c.scheme, p.rho),) if schemes is None else schemes
    estimates = [
        (EstimateWithCI.from_counts(op, c.trials) if "op" in metrics else None,
         EstimateWithCI.from_counts(ip, c.trials) if "ip" in metrics else None)
        for op, ip in _simulate_counts(p, s, c, metrics, runs)]
    return estimates[0] if schemes is None else estimates
