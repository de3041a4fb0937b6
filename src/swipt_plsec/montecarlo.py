"""Monte-Carlo trial engine with partitioned, reproducible streams.

A run counts the metrics its caller asks for: outage (OP), intercept (IP) or
both.  It draws only the links those metrics read -- OP reads SR and RD; IP
reads SR, SE and RE, JE when the jammers are on, and RD under dpsr -- and
skips the uniforms of the others, so an outage-only run, an intercept-only
run, and a joint run with the same configuration advance identical streams
and report bitwise-identical estimates.  Trials are partitioned across
workers whose streams derive from (master seed, worker index); partial
estimates merge by integer count addition, which makes merging exact and
associative.  The partitions run concurrently on at most as many threads as
the process has usable CPUs (inline when that is one); each thread owns its
partition's stream, so the counts equal those of a sequential run bit for
bit.

Several schemes, ``(kind, rho)`` pairs that differ only in the splitting
rule, can share one run: each chunk draws the union of the links they read
once and counts every scheme on it (common random numbers).  Neither field
enters the draw, so each scheme's counts are bitwise those of its own run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Collection, Sequence

import numpy as np

from .channel import ROW_BLOCK, ChannelStats, draw_channels, worker_stream
from .core import SystemParams, gamma_d_dpsr, gamma_d_spsr, gamma_e
from .core import usable_cpus as _usable_cpus

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
        if self.scheme not in ("spsr", "dpsr"):
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


def _links(metrics: Collection[str], c: SimConfig) -> set[str]:
    """Links whose gains the counts of ``metrics`` read."""
    links = set()
    if "op" in metrics:
        links |= {"sr", "rd"}
    if "ip" in metrics:
        links |= {"sr", "se", "re"}
        if c.jamming:
            links.add("je")
        if c.scheme == "dpsr":
            links.add("rd")
    return links


def _count_chunk(p: SystemParams, s: ChannelStats, c: SimConfig,
                 rng: np.random.Generator, n: int,
                 metrics: Collection[str] = METRICS,
                 schemes: Sequence[tuple[str, float]] | None = None):
    """(op, ip) success counts of ``n`` trials; a metric not in ``metrics``
    counts 0, and the links only it reads are skipped, not drawn.

    ``schemes``, (kind, rho) pairs standing in for ``c.scheme`` and
    ``p.rho``, are all counted on one draw of the links any of them reads,
    and their (op, ip) pairs come back as a list in the same order.
    """
    single = schemes is None
    if single:
        schemes = ((c.scheme, p.rho),)
    # replace validates every field again, so skip it where nothing changes
    runs = [(p if rho == p.rho else replace(p, rho=rho),
             c if kind == c.scheme else replace(c, scheme=kind)) for kind, rho in schemes]
    want_op, want_ip = "op" in metrics, "ip" in metrics
    links = set().union(*(_links(metrics, rc) for _, rc in runs))
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
        for (rp, rc), count in zip(runs, counts):
            if want_op:
                gamma_d = gamma_d_dpsr if rc.scheme == "dpsr" else gamma_d_spsr
                count[0] += int(np.count_nonzero(gamma_d(rp, sr, rd) < rp.gamma_th))
            if want_ip:
                pair = gamma_e(rp, draw.gamma_se[rows], sr, draw.gamma_re[rows], xi[rows],
                               mode=mode, scheme=rc.scheme, gamma_rd=rd)
                count[1] += int(np.count_nonzero(pair.combined >= rp.gamma_th))
    counts = [tuple(count) for count in counts]
    return counts[0] if single else counts


def _sum_counts(parts: list[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """Per-scheme (op, ip) sums of per-part count lists."""
    return [(sum(op for op, _ in scheme), sum(ip for _, ip in scheme))
            for scheme in zip(*parts)]


def _worker_counts(p: SystemParams, s: ChannelStats, c: SimConfig,
                   worker: int, n_worker: int, metrics: Collection[str],
                   schemes: Sequence[tuple[str, float]]) -> list[tuple[int, int]]:
    rng = worker_stream(c.seed, worker)
    return _sum_counts([_count_chunk(p, s, c, rng, min(_CHUNK, n_worker - lo), metrics, schemes)
                        for lo in range(0, n_worker, _CHUNK)])


def _simulate_counts(p: SystemParams, s: ChannelStats, c: SimConfig,
                     metrics: Collection[str] = METRICS,
                     schemes: Sequence[tuple[str, float]] | None = None,
                     ) -> list[tuple[int, int]]:
    """Per-scheme (op, ip) counts; ``schemes=None`` is ``c.scheme`` at ``p.rho``."""
    if not metrics or not set(metrics) <= set(METRICS):
        raise ValueError(f"metrics must be a nonempty subset of {METRICS}, got {metrics!r}")
    schemes = ((c.scheme, p.rho),) if schemes is None else tuple(schemes)
    if not schemes:
        raise ValueError("need at least one scheme")
    parts = [(worker, n) for worker, n in enumerate(c.partition()) if n > 0]
    threads = min(len(parts), _usable_cpus())
    if threads == 1:
        counts = [_worker_counts(p, s, c, *part, metrics, schemes) for part in parts]
    else:
        # numpy's bit generators and ufuncs release the GIL, so the
        # partitions really run side by side; each keeps its own stream
        with ThreadPoolExecutor(threads) as pool:
            counts = list(pool.map(
                lambda part: _worker_counts(p, s, c, *part, metrics, schemes), parts))
    return _sum_counts(counts)


def simulate_op(p: SystemParams, s: ChannelStats, c: SimConfig) -> EstimateWithCI:
    """Fraction of trials whose destination SNR falls below the threshold.

    Draws only the SR and RD gains and skips the others' uniforms, so the
    estimate is bitwise that of :func:`simulate_point`.
    """
    [(op, _)] = _simulate_counts(p, s, c, ("op",))
    return EstimateWithCI.from_counts(op, c.trials)


def simulate_ip(p: SystemParams, s: ChannelStats, c: SimConfig) -> EstimateWithCI:
    """Fraction of trials whose combined eavesdropper SNR reaches the threshold.

    Skips the uniforms of RD under spsr and of JE with the jammers off, which
    the intercept does not read, so the estimate is bitwise that of
    :func:`simulate_point`.
    """
    [(_, ip)] = _simulate_counts(p, s, c, ("ip",))
    return EstimateWithCI.from_counts(ip, c.trials)


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
    estimates = [
        (EstimateWithCI.from_counts(op, c.trials) if "op" in metrics else None,
         EstimateWithCI.from_counts(ip, c.trials) if "ip" in metrics else None)
        for op, ip in _simulate_counts(p, s, c, metrics, schemes)]
    return estimates[0] if schemes is None else estimates
