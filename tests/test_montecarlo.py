import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swipt_plsec import (
    EstimateWithCI,
    SimConfig,
    gamma_d_dpsr,
    gamma_d_spsr,
    gamma_e,
    op_spsr,
    simulate_point,
)
from swipt_plsec import montecarlo
from swipt_plsec.channel import LINK_KEYS, draw_channels, link_streams
from swipt_plsec.montecarlo import METRICS, ROW_BLOCK

from conftest import make_params


class TestEstimate:
    def test_from_counts_normal_halfwidth(self):
        est = EstimateWithCI.from_counts(500, 1000)
        assert est.estimate == 0.5
        assert est.ci_halfwidth == pytest.approx(1.96 * math.sqrt(0.25 / 1000), rel=1e-12)

    def test_rare_event_uses_wilson(self):
        est = EstimateWithCI.from_counts(0, 1_000_000)
        assert est.estimate == 0.0
        assert est.ci_halfwidth > 0  # normal approximation would give zero width

    def test_covers(self):
        est = EstimateWithCI.from_counts(500, 1000)
        assert est.covers(0.51)
        assert not est.covers(0.6)

    def test_merge_is_trial_weighted(self):
        a = EstimateWithCI.from_counts(10, 100)
        b = EstimateWithCI.from_counts(90, 300)
        m = a.merge(b)
        assert m.trials == 400
        assert m.estimate == pytest.approx(100 / 400)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(50, 200)), min_size=2, max_size=8),
           st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_merge_associative_any_order(self, parts, rnd):
        ests = [EstimateWithCI.from_counts(s, n) for s, n in parts]
        total = EstimateWithCI.from_counts(sum(s for s, _ in parts), sum(n for _, n in parts))
        shuffled = ests[:]
        rnd.shuffle(shuffled)
        acc = shuffled[0]
        for e in shuffled[1:]:
            acc = acc.merge(e)
        assert acc == total  # integer counts make merging exact

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            EstimateWithCI.from_counts(5, 0)
        with pytest.raises(ValueError):
            EstimateWithCI.from_counts(11, 10)


class TestSimConfig:
    def test_partition_remainder_to_last(self):
        c = SimConfig(trials=10, workers=3)
        assert c.partition() == [3, 3, 4]
        assert sum(c.partition()) == c.trials

    def test_approx_requires_jamming(self, s1):
        # silent jammers are phi = 0: an approx outage count reads no
        # eavesdropper SNR, while an approx intercept count would divide by
        # the zero jamming term
        p = replace(make_params(), phi=0.0)
        c = SimConfig(trials=1000, seed=1, e1_mode="approx")
        [(op, _)] = simulate_point(p, s1, c, [("spsr", p.rho)], ("op",))
        assert 0.0 < op.estimate < 1.0
        with pytest.raises(ValueError, match=r"approx mode divides by phi \* xi"):
            simulate_point(p, s1, c, [("spsr", p.rho)], ("ip",))

    @pytest.mark.parametrize("kwargs", [
        dict(trials=0), dict(workers=0), dict(e1_mode="none"),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_negative_seed_rejected(self):
        # a negative seed would reach no stream: SeedSequence refuses it
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SimConfig(seed=-1)


class TestEngine:
    def test_bitwise_reproducible(self, s1):
        p = make_params()
        c = SimConfig(trials=100_000, seed=77, workers=3)
        a = simulate_point(p, s1, c, [("spsr", p.rho)])
        b = simulate_point(p, s1, c, [("spsr", p.rho)])
        assert a == b

    def test_worker_partition_changes_stream(self, s1):
        p = make_params()
        [(one, _)] = simulate_point(p, s1, SimConfig(trials=100_000, seed=77, workers=1),
                                    [("spsr", p.rho)], ("op",))
        [(two, _)] = simulate_point(p, s1, SimConfig(trials=100_000, seed=77, workers=2),
                                    [("spsr", p.rho)], ("op",))
        assert one.estimate != two.estimate  # different partitions, same statistics
        assert abs(one.estimate - two.estimate) < 6 * one.ci_halfwidth

    def test_zero_threshold_extremes(self, s1):
        p = make_params(c_th=0.0)
        c = SimConfig(trials=10_000, seed=3)
        [(op_est, ip_est)] = simulate_point(p, s1, c, [("spsr", p.rho)])
        assert op_est.estimate == 0.0  # SNR is nonnegative
        assert ip_est.estimate == 1.0

    def test_matches_static_outage_analytics(self, s1):
        p = make_params(psi_db=2.0, rho=0.325)
        c = SimConfig(trials=400_000, seed=11)
        [(est, _)] = simulate_point(p, s1, c, [("spsr", p.rho)], ("op",))
        assert abs(est.estimate - op_spsr(p, s1)) < 3 * est.ci_halfwidth

    def test_dynamic_dominates_static_per_trial(self, s1):
        # common draws: the optimal ratio can never do worse
        p = make_params(rho=0.55)
        draw = draw_channels(s1, p, link_streams(123, 0, ("sr", "rd")), size=200_000)
        static = gamma_d_spsr(p, draw["sr"], draw["rd"])
        dynamic = gamma_d_dpsr(p, draw["sr"], draw["rd"])
        assert np.all(dynamic >= static - 1e-12)

    def test_jamming_off_raises_intercept(self, s1):
        p = make_params(psi_db=2.0, rho=0.55)
        c = SimConfig(trials=200_000, seed=21)
        [(_, on)] = simulate_point(p, s1, c, [("spsr", p.rho)], ("ip",))
        [(_, off)] = simulate_point(replace(p, phi=0.0), s1, c, [("spsr", p.rho)], ("ip",))
        assert off.estimate > on.estimate + 5 * on.ci_halfwidth

    def test_approx_mode_upper_bounds_exact(self, s1):
        # dropping the unit noise term can only raise the first-slot SNR
        p = make_params(psi_db=2.0, rho=0.55)
        [(_, exact)] = simulate_point(p, s1, SimConfig(trials=200_000, seed=9, e1_mode="exact"),
                                      [("spsr", p.rho)], ("ip",))
        [(_, approx)] = simulate_point(p, s1, SimConfig(trials=200_000, seed=9, e1_mode="approx"),
                                       [("spsr", p.rho)], ("ip",))
        assert approx.estimate >= exact.estimate


# (op, ip) success counts of simulate_point at s1, trials=600_001, seed=7, for
# (workers, scheme) in (1, spsr), (1, dpsr), (3, spsr), (3, dpsr); recorded with
# the engine that gives each link its own PCG64DXSM stream keyed by (seed,
# worker, link index), draws the best-of-M gain by the inverse CDF of the max
# and the jammer sum by standard_gamma(K), and counts ROW_BLOCK trials at a
# time.  The outage counts read no JE gain, so they do not change with K.
PINNED_COUNTS = {
    (1, 1): ((189811, 40757), (176525, 30674), (190078, 40347), (176915, 30565)),
    (1, 4): ((189811, 1115), (176525, 719), (190078, 1092), (176915, 663)),
    (1, 8): ((189811, 47), (176525, 23), (190078, 35), (176915, 17)),
    (1, 9): ((189811, 21), (176525, 17), (190078, 17), (176915, 14)),
    (3, 1): ((39542, 83397), (34576, 62657), (39974, 82994), (34974, 62350)),
    (3, 4): ((39542, 2963), (34576, 1877), (39974, 2930), (34974, 1783)),
    (3, 8): ((39542, 107), (34576, 68), (39974, 98), (34974, 59)),
    (3, 9): ((39542, 50), (34576, 33), (39974, 53), (34974, 32)),
    (8, 1): ((14934, 132884), (11530, 101763), (15098, 132799), (11751, 101462)),
    (8, 4): ((14934, 6577), (11530, 4103), (15098, 6471), (11751, 3974)),
    (8, 8): ((14934, 256), (11530, 177), (15098, 232), (11751, 156)),
    (8, 9): ((14934, 131), (11530, 88), (15098, 140), (11751, 78)),
    (9, 1): ((13988, 138836), (10660, 106572), (14158, 138901), (10820, 106402)),
    (9, 4): ((13988, 7177), (10660, 4459), (14158, 7048), (10820, 4344)),
    (9, 8): ((13988, 290), (10660, 200), (14158, 258), (10820, 177)),
    (9, 9): ((13988, 150), (10660, 97), (14158, 146), (10820, 86)),
}


class TestStreams:
    @pytest.mark.parametrize("m,k", sorted(PINNED_COUNTS))
    def test_counts_are_pinned(self, s1, m, k):
        # 600_001 trials: full and partial blocks, and a remainder worker at 3
        p = make_params(num_sources=m, num_jammers=k)
        got = []
        for workers in (1, 3):
            for scheme in ("spsr", "dpsr"):
                c = SimConfig(trials=600_001, seed=7, workers=workers)
                [(op, ip)] = simulate_point(p, s1, c, [(scheme, p.rho)])
                got.append((op.successes, ip.successes))
        assert tuple(got) == PINNED_COUNTS[m, k]


class TestMetricSubsets:
    # three blocks for one worker, two blocks each at 2, a remainder worker at 3
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_one_metric_counts_equal_the_joint_run(self, s1, workers, scheme):
        p = make_params(num_sources=3, num_jammers=4)
        c = SimConfig(trials=2 * ROW_BLOCK + 5, seed=31, workers=workers)
        schemes = [(scheme, p.rho)]
        [(op_joint, ip_joint)] = simulate_point(p, s1, c, schemes)
        assert simulate_point(p, s1, c, schemes, metrics=("op",)) == [(op_joint, None)]
        assert simulate_point(p, s1, c, schemes, metrics=("ip",)) == [(None, ip_joint)]

    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_outage_only_never_evaluates_the_eavesdropper(self, s1, monkeypatch, scheme):
        def forbidden(*args, **kwargs):
            raise AssertionError("gamma_e called in an outage-only run")

        monkeypatch.setattr(montecarlo, "gamma_e", forbidden)
        p = make_params()
        [(est, _)] = simulate_point(p, s1, SimConfig(trials=5000, seed=2), [(scheme, p.rho)],
                                    ("op",))
        assert 0.0 < est.estimate < 1.0

    def test_intercept_only_never_evaluates_the_destination(self, s1, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("gamma_d called in an intercept-only run")

        monkeypatch.setattr(montecarlo, "gamma_d_spsr", forbidden)
        monkeypatch.setattr(montecarlo, "gamma_d_dpsr", forbidden)
        p = make_params()
        [(_, est)] = simulate_point(p, s1, SimConfig(trials=5000, seed=2), [("spsr", p.rho)],
                                    ("ip",))
        assert 0.0 < est.estimate < 1.0

    @pytest.mark.parametrize("metrics", [(), ("op", "xp")])
    def test_bad_metrics_rejected(self, s1, metrics):
        with pytest.raises(ValueError, match="metrics"):
            simulate_point(make_params(), s1, SimConfig(trials=10), [("spsr", 0.5)],
                           metrics=metrics)


class TestBlockWorkspace:
    def test_every_block_reuses_the_first_blocks_arrays(self, s1, monkeypatch):
        # the arrays each boundary returns, call by call, kept alive
        returned = {}

        def spy(name, arrays):
            fn = getattr(montecarlo, name)

            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                returned.setdefault(name, []).append(arrays(result))
                return result

            monkeypatch.setattr(montecarlo, name, recorded)

        spy("draw_channels", lambda draw: list(draw.values()))
        spy("gamma_d_spsr", lambda snr: [snr])
        spy("gamma_d_dpsr", lambda snr: [snr])
        spy("gamma_e", lambda snr: [snr])
        p = make_params(num_sources=3, num_jammers=4)
        # one partition of three blocks, the last one partial
        c = SimConfig(trials=3 * ROW_BLOCK - 5, seed=4)
        simulate_point(p, s1, c, (("spsr", 0.225), ("spsr", 0.875), ("dpsr", 0.5)))
        assert set(returned) == {"draw_channels", "gamma_d_spsr", "gamma_d_dpsr", "gamma_e"}
        assert len(returned["draw_channels"]) == 3
        for name, calls in returned.items():
            per_block = len(calls) // 3
            assert per_block * 3 == len(calls)
            for i, arrays in enumerate(calls[per_block:]):
                first = calls[i % per_block]
                assert len(arrays) == len(first)
                assert all(np.shares_memory(a, b) for a, b in zip(arrays, first)), name


class TestBlockSize:
    """ROW_BLOCK fixes no count: a stream yields the same values however its
    rows are split across calls, and every count is per trial."""

    # one worker: 17 blocks at 2^12, three at ROW_BLOCK; a remainder worker at 3
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("jamming", [True, False])
    def test_counts_equal_at_every_block_size(self, s1, monkeypatch, workers, jamming):
        p = make_params(num_sources=3, num_jammers=4)
        p = p if jamming else replace(p, phi=0.0)  # silent jammers
        c = SimConfig(trials=2 * ROW_BLOCK + 5, seed=29, workers=workers)
        schemes = (("spsr", 0.3), ("dpsr", p.rho))
        runs = []
        for block in (1 << 12, 1 << 14, ROW_BLOCK):
            monkeypatch.setattr(montecarlo, "ROW_BLOCK", block)
            runs.append(simulate_point(p, s1, c, schemes))
        assert all(0 < est.successes < c.trials for pair in runs[0] for est in pair)
        assert runs[1] == runs[0] and runs[2] == runs[0]


def _full_draw_ip_count(p, s, kind, streams, n):
    # the intercept count of one block from a draw of all five links, with
    # the jammers silent (phi = 0 and a zero aggregate)
    d = draw_channels(s, p, streams, size=n)
    snr = gamma_e(p, d["se"], d["sr"], d["re"], np.zeros(n), mode="exact",
                  scheme=kind, gamma_rd=d["rd"])
    return int(np.count_nonzero(snr >= p.gamma_th))


class TestJammingOff:
    """With the jammers silent (phi = 0) the intercept reads no jammer gain,
    so its runs build no JE stream; each other link's values are those of a
    run that also draws JE."""

    @staticmethod
    def _record_links(monkeypatch):
        built = []
        streams = montecarlo.link_streams

        def recorded(seed, worker, links):
            built.append(set(links))
            return streams(seed, worker, links)

        monkeypatch.setattr(montecarlo, "link_streams", recorded)
        return built

    # three blocks for one worker, and a remainder worker at 3
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_counts_equal_those_of_the_full_draw(self, s1, monkeypatch, workers, scheme):
        p = replace(make_params(num_sources=3, num_jammers=4), phi=0.0)
        c = SimConfig(trials=2 * ROW_BLOCK + 5, seed=17, workers=workers)
        expected = 0
        for worker, n_worker in enumerate(c.partition()):
            streams = link_streams(c.seed, worker, LINK_KEYS)
            for lo in range(0, n_worker, ROW_BLOCK):
                expected += _full_draw_ip_count(p, s1, scheme, streams,
                                                min(ROW_BLOCK, n_worker - lo))
        built = self._record_links(monkeypatch)
        schemes = [(scheme, p.rho)]
        assert simulate_point(p, s1, c, schemes, ("ip",))[0][1].successes == expected
        assert simulate_point(p, s1, c, schemes)[0][1].successes == expected
        assert len(built) == 2 * workers and not any("je" in links for links in built)

    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_no_je_stream_whatever_the_metrics(self, s1, monkeypatch, scheme):
        p = replace(make_params(num_sources=2, num_jammers=8), phi=0.0)
        c = SimConfig(trials=1003, seed=5)
        expected = _full_draw_ip_count(p, s1, scheme, link_streams(c.seed, 0, LINK_KEYS),
                                       c.trials)
        built = self._record_links(monkeypatch)
        for metrics in (("ip",), ("op", "ip")):
            assert simulate_point(p, s1, c, [(scheme, p.rho)], metrics)[0][1].successes == expected
        ip_links = {"sr", "se", "re"} | ({"rd"} if scheme == "dpsr" else set())
        assert built == [ip_links, ip_links | {"rd"}]


def _sequential_counts(p, s, c, kind):
    op_total = ip_total = 0
    for worker, n_worker in enumerate(c.partition()):
        streams = link_streams(c.seed, worker, LINK_KEYS)
        for lo in range(0, n_worker, ROW_BLOCK):
            n = min(ROW_BLOCK, n_worker - lo)
            [(op, ip)] = montecarlo._count_block(p, s, c, streams, n, METRICS, [(kind, p)],
                                                 montecarlo._workspace(streams, n))
            op_total += op
            ip_total += ip
    return op_total, ip_total


class TestWorkerThreads:
    @pytest.mark.parametrize("cpus", [None, 1, 2, 4])
    def test_threads_capped_and_counts_sequential(self, s1, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(montecarlo, "usable_cpus", lambda: cpus)
        cap = min(64, montecarlo.usable_cpus())
        p = make_params(num_sources=3, num_jammers=2)
        c = SimConfig(trials=64 * 700 + 5, seed=13, workers=64)
        idents = set()
        lock = threading.Lock()
        in_flight = peak = 0
        count_block = montecarlo._count_block

        def recorded(*args):
            nonlocal in_flight, peak
            with lock:
                idents.add(threading.get_ident())
                in_flight += 1
                peak = max(peak, in_flight)
            try:
                return count_block(*args)
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(montecarlo, "_count_block", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose shared state
        try:
            [(op, ip)] = simulate_point(p, s1, c, [("spsr", p.rho)])
        finally:
            sys.setswitchinterval(interval)
        assert len(idents) <= cap and peak <= cap
        if cap == 1:
            assert idents == {threading.get_ident()}  # inline, no pool
        monkeypatch.setattr(montecarlo, "_count_block", count_block)
        assert (op.successes, ip.successes) == _sequential_counts(p, s1, c, "spsr")



class TestPartitionPool:
    """A run's partitions share one pool of at most ``usable_cpus()``
    threads, and run inline with no pool at one."""

    @staticmethod
    def _recorded_blocks(monkeypatch, delay=0.0):
        """Wrap ``_count_block`` to record the calling threads and the peak
        number of blocks in flight, each held for ``delay`` seconds."""
        seen = {"idents": set(), "in_flight": 0, "peak": 0}
        lock = threading.Lock()
        count_block = montecarlo._count_block

        def recorded(*args):
            with lock:
                seen["idents"].add(threading.get_ident())
                seen["in_flight"] += 1
                seen["peak"] = max(seen["peak"], seen["in_flight"])
            try:
                time.sleep(delay)
                return count_block(*args)
            finally:
                with lock:
                    seen["in_flight"] -= 1

        monkeypatch.setattr(montecarlo, "_count_block", recorded)
        return seen

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_counts_equal_whatever_the_cpus(self, s1, monkeypatch, cpus):
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: cpus)
        p = make_params(num_sources=2, num_jammers=3)
        c = SimConfig(trials=10 * 300 + 7, seed=17, workers=10)
        [(op, ip)] = simulate_point(p, s1, c, [("dpsr", p.rho)])
        assert (op.successes, ip.successes) == _sequential_counts(p, s1, c, "dpsr")

    def test_one_cpu_runs_inline_without_a_pool(self, s1, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created at one usable CPU")

        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
        seen = self._recorded_blocks(monkeypatch)
        p = make_params()
        simulate_point(p, s1, SimConfig(trials=5 * 100, seed=3, workers=5), [("spsr", p.rho)])
        assert seen["idents"] == {threading.get_ident()}

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_threads_capped_at_usable_cpus(self, s1, monkeypatch, cpus):
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: cpus)
        seen = self._recorded_blocks(monkeypatch, delay=0.002)
        p = make_params()
        simulate_point(p, s1, SimConfig(trials=12 * 100, seed=3, workers=12), [("spsr", p.rho)])
        assert len(seen["idents"]) <= cpus and seen["peak"] <= cpus

    @pytest.mark.parametrize("block", [ROW_BLOCK, 1 << 12])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_a_cpu_is_idle_beside_runs_of_full_blocks(self, monkeypatch, cpus, block):
        # fewer partitions than usable CPUs, each of at least one full block
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(montecarlo, "ROW_BLOCK", block)
        for workers in (1, 2, 3, 4, 5):
            for trials in (1, 256, block - 1, block, workers * block - 1, workers * block,
                           4 * block, 1 << 20):
                c = SimConfig(trials=trials, workers=workers)
                expected = workers < cpus and trials >= workers * block
                assert montecarlo.leaves_cpu_idle(c) == expected, (workers, trials)
        # more workers than trials: the one drawing partition does not make it full
        assert not montecarlo.leaves_cpu_idle(SimConfig(trials=block + 1, workers=block + 2))

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_first_failing_partition_in_order_propagates(self, s1, monkeypatch, cpus):
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: cpus)
        p = replace(make_params(), phi=0.0)
        approx = SimConfig(trials=4 * 100, seed=3, workers=4, e1_mode="approx")
        with pytest.raises(ValueError, match="approx mode divides by phi"):
            simulate_point(p, s1, approx, [("spsr", p.rho)], ("ip",))

        streams = montecarlo.link_streams

        def failing(seed, worker, links):
            if worker >= 3:
                time.sleep(0.001 * (10 - worker))  # later failures finish first
                raise ValueError(f"partition {worker}")
            return streams(seed, worker, links)

        monkeypatch.setattr(montecarlo, "link_streams", failing)
        c = SimConfig(trials=10 * 100, seed=3, workers=10)
        with pytest.raises(ValueError, match=r"^partition 3$"):
            simulate_point(p, s1, c, [("spsr", p.rho)])


SCHEMES = (("spsr", 0.225), ("spsr", 0.875), ("dpsr", 0.5))


class TestSchemeSets:
    """Schemes of one point counted on one draw equal their own runs."""

    # three blocks for one worker, and a remainder worker at 3
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("jamming,e1_mode", [(True, "exact"), (True, "approx"),
                                                 (False, "exact")])
    @pytest.mark.parametrize("metrics", [("op",), ("ip",), METRICS])
    def test_each_scheme_equals_its_own_run(self, s1, workers, jamming, e1_mode, metrics):
        p = make_params(num_sources=3, num_jammers=4)
        p = p if jamming else replace(p, phi=0.0)  # silent jammers
        c = SimConfig(trials=2 * ROW_BLOCK + 5, seed=23, workers=workers, e1_mode=e1_mode)
        alone = [simulate_point(replace(p, rho=rho), s1, c, [(kind, rho)], metrics)[0]
                 for kind, rho in SCHEMES]
        for order in (SCHEMES, SCHEMES[::-1]):
            shared = simulate_point(p, s1, c, order, metrics)
            expected = alone if order == SCHEMES else alone[::-1]
            assert shared == expected

    def test_one_draw_per_block_whatever_the_scheme_count(self, s1, monkeypatch):
        calls = []
        draw = montecarlo.draw_channels

        def counted(stats, p, streams, **kwargs):
            calls.append(set(streams))
            return draw(stats, p, streams, **kwargs)

        monkeypatch.setattr(montecarlo, "draw_channels", counted)
        p = make_params()
        c = SimConfig(trials=2 * ROW_BLOCK + 5, seed=3)
        simulate_point(p, s1, c, (("spsr", 0.3),), ("ip",))
        simulate_point(p, s1, c, SCHEMES, ("ip",))
        # spsr alone reads no RD; dpsr reads it, so the shared draw takes it
        assert calls == [{"sr", "se", "re", "je"}] * 3 + [{"sr", "se", "rd", "re", "je"}] * 3

    def test_no_scheme_rejected(self, s1):
        with pytest.raises(ValueError, match="scheme"):
            simulate_point(make_params(), s1, SimConfig(trials=10), ())
