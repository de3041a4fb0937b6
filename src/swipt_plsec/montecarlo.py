"""Monte-Carlo trial engine with partitioned, reproducible streams.

A run counts the metrics its caller asks for: outage (OP), intercept (IP) or
both.  It draws only the links those metrics read -- OP reads SR and RD; IP
reads SR, SE and RE, JE when phi > 0 (silent jammers are phi = 0, a zero
aggregate), and RD under dpsr.  Every link has its own PCG64DXSM stream
(``channel.link_streams``), keyed by (master seed, worker index, link), so a
link's values do not depend on which others are drawn: an outage-only run,
an intercept-only run and a joint run with the same configuration report
bitwise-identical estimates.  Trials are partitioned across workers, each
drawing and counting ``ROW_BLOCK`` trials at a time; partial estimates merge
by integer count addition, which makes merging exact and associative.  The
partitions run concurrently on one thread pool of at most as many threads as
the process has usable CPUs (``usable_cpus``), or inline with no pool when
that is one; each thread owns its partition's streams and workspace, so the
counts equal those of a sequential run bit for bit (``leaves_cpu_idle``
says when a run leaves a usable CPU idle).  The workspace is made once per
partition: a gain row per drawn link, the SNR rows and bool mask of
``core.snr_workspace``, laid out here.  Every block draws into it and
computes its SNRs and counts in it, so no block allocates an array.  Each
count thresholds one SNR: an outage the destination's (``core.gamma_d_*``),
an intercept the eavesdropper's, the larger of its two slots' SNRs, which
``core.gamma_e`` returns combined.

Every run counts a list of schemes, ``(kind, rho)`` pairs that differ only
in the splitting rule: each block draws the union of the links they read
once, as a ``{link: gains}`` dict, and counts every scheme on it (common
random numbers).  Neither field enters the draw, so each scheme's counts are
bitwise those of a run of its one-element list.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Collection, Mapping, Sequence

import numpy as np

from .channel import ChannelStats, draw_channels, link_streams
from .core import (E1_MODES, SCHEMES, SNR_ROWS, SystemParams, gamma_d_dpsr, gamma_d_spsr,
                   gamma_e)

__all__ = ["METRICS", "SimConfig", "EstimateWithCI", "simulate_point"]

# the metrics a run can count
METRICS = ("op", "ip")

# Trials drawn and counted at a time.  A stream yields the same values
# whatever the rows per call, so this fixes no count.  A block makes the same
# numpy calls whatever its size, and each hands the GIL between the
# partitions' threads, so larger blocks mean fewer handoffs per trial: on 2
# cores an mc_op pass took 161 ms on two threads and 183 ms inline at 2^14,
# and 132 and 178 ms at 2^15.  The block sizes a partition's workspace, one
# float row per drawn link and SNR_ROWS more (at most 10 x 256 KiB), made
# once per partition.  2^16 halves the handoffs again: an in-process mc_op
# sweep took 109-115 ms against 118-147 ms (CPU 193-200 against 206-236 ms,
# about 510 voluntary context switches against 1,600-2,000), and the
# benchmark's wall_s fell 7% over 4 pairs.  But the peak resident set rose
# 5-15% in process and 1-8% in the benchmark, and wall_probes, whose probe
# also runs faster when the threads contend less for the GIL, cannot show
# the gain apart from that bias, so the block stays at 2^15.  Block-sized
# arrays made fresh for every block left glibc to trim the heap top at each
# block's end and fault it back in at the next.
ROW_BLOCK = 1 << 15

_Z95 = 1.96
_WILSON_SWITCH = 1e-4


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SimConfig:
    """Trial-engine configuration.

    ``e1_mode`` picks the eavesdropper's first-slot SNR model: ``exact``
    keeps the unit noise term, ``approx`` uses the jamming-dominated form the
    analytic intercept expressions are built on, so an intercept count in
    ``approx`` mode at phi = 0 raises ``gamma_e``'s zero-jamming
    ``ValueError``.  The jammers are on exactly when phi > 0.
    """

    trials: int = 1_000_000
    seed: int = 0
    workers: int = 1
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


def _links(metrics: Collection[str], kind: str, jammed: bool) -> set[str]:
    """Links whose gains the counts of ``metrics`` read under scheme ``kind``,
    JE only when ``jammed``."""
    links = set()
    if "op" in metrics:
        links |= {"sr", "rd"}
    if "ip" in metrics:
        links |= {"sr", "se", "re"}
        if jammed:
            links.add("je")
        if kind == "dpsr":
            links.add("rd")
    return links


def _workspace(links: Collection[str], size: int):
    """Scratch for blocks of up to ``size`` trials, allocated once and reused
    by every block: one gain row per link of ``links``, in their order, for
    ``draw_channels``, then the rows and mask of ``core.snr_workspace``.
    The float rows are one allocation: as two, glibc trimmed and faulted
    them back in on every call (155 faults per ``figure_ip`` MC point, not 1)."""
    floats = np.empty((len(links) + SNR_ROWS, size))
    return dict(zip(links, floats)), (floats[len(links):], np.empty(size, dtype=bool))


def _plan(c: SimConfig) -> tuple[list[tuple[int, int]], int]:
    """The (worker, trials) partitions that draw trials, and the threads they
    run on: one per partition, at most one per usable CPU."""
    parts = [(worker, n) for worker, n in enumerate(c.partition()) if n > 0]
    return parts, min(len(parts), usable_cpus())


def leaves_cpu_idle(c: SimConfig) -> bool:
    """Whether a run of ``c`` leaves a usable CPU idle while each partition
    draws full blocks of ``ROW_BLOCK`` trials.  Work on that CPU shares the
    GIL with the run, which numpy releases only in calls on more than 500
    elements: on 2 cores a two-point ``figure_ip``-like sweep (one worker)
    with its analytic cells overlapped took 0.96-1.18 times its inline time
    at 2^12-2^14 trials, 0.75-0.90 at 2^15, 0.61-0.65 at 2^16 and 0.77-0.81
    at 2^17."""
    return _plan(c)[1] < usable_cpus() and min(c.partition()) >= ROW_BLOCK


def _count_block(p: SystemParams, s: ChannelStats, c: SimConfig,
                 streams: Mapping[str, np.random.Generator], n: int,
                 metrics: Collection[str],
                 runs: Sequence[tuple[str, SystemParams]], work) -> list[tuple[int, int]]:
    """(op, ip) success counts of ``n`` trials, one pair per (kind, params)
    run, all counted on one draw of the links in ``streams``; a metric not in
    ``metrics`` counts 0.  ``work`` is a :func:`_workspace` of at least ``n``
    trials for the links of ``streams``; the draw and the SNRs go into it."""
    gains, (snr, mask) = work
    if n < len(mask):
        gains = {link: row[:n] for link, row in gains.items()}
        snr, mask = snr[:, :n], mask[:n]
    draw = draw_channels(s, p, streams, size=n, out=gains)
    # JE is drawn where an intercept count reads it (phi > 0); else the aggregate is zero
    xi = draw.get("je", 0.0)
    sr, rd = draw["sr"], draw.get("rd")
    counts = []
    for kind, rp in runs:
        op = ip = 0
        if "op" in metrics:
            gamma_d = gamma_d_dpsr if kind == "dpsr" else gamma_d_spsr
            snr_d = gamma_d(rp, sr, rd, out=(snr, mask))
            op = int(np.count_nonzero(np.less(snr_d, rp.gamma_th, out=mask)))
        if "ip" in metrics:
            snr_e = gamma_e(rp, draw["se"], sr, draw["re"], xi,
                            mode=c.e1_mode, scheme=kind, gamma_rd=rd, out=(snr, mask))
            ip = int(np.count_nonzero(np.greater_equal(snr_e, rp.gamma_th, out=mask)))
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
    links = set().union(*(_links(metrics, kind, p.phi > 0) for kind, _ in runs))

    def partition_counts(part: tuple[int, int]) -> list[tuple[int, int]]:
        worker, n_worker = part
        streams = link_streams(c.seed, worker, links)
        work = _workspace(streams, min(ROW_BLOCK, n_worker))
        return _sum_counts([_count_block(p, s, c, streams, min(ROW_BLOCK, n_worker - lo),
                                         metrics, runs, work)
                            for lo in range(0, n_worker, ROW_BLOCK)])

    # numpy's bit generators and ufuncs release the GIL, so the partitions
    # really run side by side; each keeps its own streams.  pool.map returns
    # them in order, and the first to raise in that order propagates
    parts, threads = _plan(c)
    if threads <= 1:
        counts = [partition_counts(part) for part in parts]
    else:
        with ThreadPoolExecutor(threads) as pool:
            counts = list(pool.map(partition_counts, parts))
    return [(EstimateWithCI.from_counts(op, c.trials) if "op" in metrics else None,
             EstimateWithCI.from_counts(ip, c.trials) if "ip" in metrics else None)
            for op, ip in _sum_counts(counts)]
