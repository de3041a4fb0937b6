import math
import sys
import threading
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
from swipt_plsec import core, montecarlo
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

    def test_approx_requires_jamming(self):
        with pytest.raises(ValueError):
            SimConfig(jamming=False, e1_mode="approx")

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
        [(_, on)] = simulate_point(p, s1, SimConfig(trials=200_000, seed=21, jamming=True),
                                   [("spsr", p.rho)], ("ip",))
        [(_, off)] = simulate_point(p, s1, SimConfig(trials=200_000, seed=21, jamming=False),
                                    [("spsr", p.rho)], ("ip",))
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
# the engine that gives each link its own Philox stream keyed by (seed, worker,
# link index), draws the best-of-M gain by the inverse CDF of the max and the
# jammer sum by standard_gamma(K), and counts ROW_BLOCK trials at a time.  The
# outage counts read no JE gain, so they do not change with K.
PINNED_COUNTS = {
    (1, 1): ((190121, 40322), (176868, 30535), (190555, 40166), (177542, 30608)),
    (1, 4): ((190121, 1068), (176868, 653), (190555, 1104), (177542, 647)),
    (1, 8): ((190121, 37), (176868, 21), (190555, 29), (177542, 14)),
    (1, 9): ((190121, 12), (176868, 11), (190555, 17), (177542, 13)),
    (3, 1): ((40001, 83067), (34962, 62391), (39705, 83082), (34657, 62280)),
    (3, 4): ((40001, 2952), (34962, 1798), (39705, 2962), (34657, 1823)),
    (3, 8): ((40001, 108), (34962, 59), (39705, 91), (34657, 55)),
    (3, 9): ((40001, 47), (34962, 31), (39705, 51), (34657, 33)),
    (8, 1): ((15082, 132450), (11564, 101588), (15034, 132439), (11568, 101641)),
    (8, 4): ((15082, 6467), (11564, 3909), (15034, 6510), (11568, 4026)),
    (8, 8): ((15082, 265), (11564, 177), (15034, 247), (11568, 174)),
    (8, 9): ((15082, 110), (11564, 76), (15034, 119), (11568, 73)),
    (9, 1): ((14103, 138601), (10684, 106561), (14062, 138369), (10689, 106487)),
    (9, 4): ((14103, 7084), (10684, 4262), (14062, 7100), (10689, 4411)),
    (9, 8): ((14103, 297), (10684, 198), (14062, 281), (10689, 200)),
    (9, 9): ((14103, 122), (10684, 88), (14062, 131), (10689, 83)),
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


def _full_draw_ip_count(p, s, kind, streams, n):
    # the intercept count of one block from a draw of all five links, with
    # the jammers silent (a zero aggregate)
    d = draw_channels(s, p, streams, size=n)
    pair = gamma_e(p, d["se"], d["sr"], d["re"], np.zeros(n), mode="exact",
                   scheme=kind, gamma_rd=d["rd"])
    return int(np.count_nonzero(pair.combined >= p.gamma_th))


class TestJammingOff:
    """With the jammers off the intercept reads no jammer gain, so its runs
    build no JE stream; each other link's values are those of a run that
    also draws JE."""

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
        p = make_params(num_sources=3, num_jammers=4)
        c = SimConfig(trials=2 * ROW_BLOCK + 5, seed=17, workers=workers, jamming=False)
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
        p = make_params(num_sources=2, num_jammers=8)
        c = SimConfig(trials=1003, seed=5, jamming=False)
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
            [(op, ip)] = montecarlo._count_block(p, s, c, streams, n, METRICS, [(kind, p)])
            op_total += op
            ip_total += ip
    return op_total, ip_total


class TestWorkerThreads:
    @pytest.mark.parametrize("cpus", [None, 1, 2, 4])
    def test_threads_capped_and_counts_sequential(self, s1, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        cap = min(64, core.usable_cpus())
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
        c = SimConfig(trials=2 * ROW_BLOCK + 5, seed=23, workers=workers,
                      jamming=jamming, e1_mode=e1_mode)
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
