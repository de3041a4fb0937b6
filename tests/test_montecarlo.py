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
    simulate_ip,
    simulate_op,
    simulate_point,
)
from swipt_plsec import channel, core, montecarlo
from swipt_plsec.channel import draw_channels, worker_stream
from swipt_plsec.montecarlo import METRICS

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
        dict(trials=0), dict(workers=0), dict(scheme="xyz"), dict(e1_mode="none"),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestEngine:
    def test_bitwise_reproducible(self, s1):
        p = make_params()
        c = SimConfig(trials=100_000, seed=77, workers=3)
        a = simulate_point(p, s1, c)
        b = simulate_point(p, s1, c)
        assert a == b

    def test_worker_partition_changes_stream(self, s1):
        p = make_params()
        one = simulate_op(p, s1, SimConfig(trials=100_000, seed=77, workers=1))
        two = simulate_op(p, s1, SimConfig(trials=100_000, seed=77, workers=2))
        assert one.estimate != two.estimate  # different partitions, same statistics
        assert abs(one.estimate - two.estimate) < 6 * one.ci_halfwidth

    def test_shared_draws_match_single_metric_runs(self, s1):
        p = make_params()
        c = SimConfig(trials=50_000, seed=5, workers=2)
        op_joint, ip_joint = simulate_point(p, s1, c)
        assert op_joint == simulate_op(p, s1, c)
        assert ip_joint == simulate_ip(p, s1, c)

    def test_zero_threshold_extremes(self, s1):
        p = make_params(c_th=0.0)
        c = SimConfig(trials=10_000, seed=3)
        op_est, ip_est = simulate_point(p, s1, c)
        assert op_est.estimate == 0.0  # SNR is nonnegative
        assert ip_est.estimate == 1.0

    def test_matches_static_outage_analytics(self, s1):
        p = make_params(psi_db=2.0, rho=0.325)
        c = SimConfig(trials=400_000, seed=11)
        est = simulate_op(p, s1, c)
        assert abs(est.estimate - op_spsr(p, s1)) < 3 * est.ci_halfwidth

    def test_dynamic_dominates_static_per_trial(self, s1):
        # common draws: the optimal ratio can never do worse
        p = make_params(rho=0.55)
        draw = draw_channels(s1, p, worker_stream(123, 0), size=200_000)
        static = gamma_d_spsr(p, draw.gamma_sr_best, draw.gamma_rd)
        dynamic = gamma_d_dpsr(p, draw.gamma_sr_best, draw.gamma_rd)
        assert np.all(dynamic >= static - 1e-12)

    def test_jamming_off_raises_intercept(self, s1):
        p = make_params(psi_db=2.0, rho=0.55)
        on = simulate_ip(p, s1, SimConfig(trials=200_000, seed=21, jamming=True))
        off = simulate_ip(p, s1, SimConfig(trials=200_000, seed=21, jamming=False))
        assert off.estimate > on.estimate + 5 * on.ci_halfwidth

    def test_approx_mode_upper_bounds_exact(self, s1):
        # dropping the unit noise term can only raise the first-slot SNR
        p = make_params(psi_db=2.0, rho=0.55)
        exact = simulate_ip(p, s1, SimConfig(trials=200_000, seed=9, e1_mode="exact"))
        approx = simulate_ip(p, s1, SimConfig(trials=200_000, seed=9, e1_mode="approx"))
        assert approx.estimate >= exact.estimate


# (op, ip) success counts of simulate_point at s1, trials=600_001, seed=7, for
# (workers, scheme) in (1, spsr), (1, dpsr), (3, spsr), (3, dpsr); recorded with
# the engine that drew each (n, M) and (n, K) block in one call and reduced it
# with max(axis=1) and sum(axis=1)
PINNED_COUNTS = {
    (1, 1): ((189361, 40432), (176090, 30610), (190823, 40012), (177495, 30203)),
    (1, 4): ((189691, 1071), (176431, 652), (190823, 1056), (177495, 654)),
    (1, 8): ((189882, 33), (176643, 29), (190823, 39), (177495, 25)),
    (1, 9): ((190038, 20), (176637, 10), (190823, 14), (177495, 12)),
    (3, 1): ((39578, 83128), (34591, 62613), (39673, 83104), (34833, 62397)),
    (3, 4): ((39632, 2928), (34599, 1799), (39673, 2948), (34833, 1793)),
    (3, 8): ((39564, 100), (34629, 76), (39673, 105), (34833, 62)),
    (3, 9): ((39377, 55), (34418, 30), (39673, 42), (34833, 35)),
    (8, 1): ((14848, 132348), (11494, 101300), (15253, 132213), (11818, 101264)),
    (8, 4): ((14991, 6531), (11550, 4015), (15253, 6603), (11818, 4019)),
    (8, 8): ((14939, 253), (11588, 151), (15253, 248), (11818, 154)),
    (8, 9): ((14990, 122), (11576, 89), (15253, 117), (11818, 83)),
    (9, 1): ((14051, 138933), (10721, 106774), (13997, 138288), (10656, 106169)),
    (9, 4): ((14045, 7176), (10721, 4546), (13997, 6995), (10656, 4219)),
    (9, 8): ((14044, 269), (10745, 167), (13997, 263), (10656, 168)),
    (9, 9): ((14010, 141), (10695, 99), (13997, 133), (10656, 99)),
}


class TestStreams:
    @pytest.mark.parametrize("m,k", sorted(PINNED_COUNTS))
    def test_counts_are_pinned(self, s1, m, k):
        # 600_001 trials: full and partial chunks, and a remainder worker at 3
        p = make_params(num_sources=m, num_jammers=k)
        got = []
        for workers in (1, 3):
            for scheme in ("spsr", "dpsr"):
                c = SimConfig(trials=600_001, seed=7, workers=workers, scheme=scheme)
                op, ip = simulate_point(p, s1, c)
                got.append((op.successes, ip.successes))
        assert tuple(got) == PINNED_COUNTS[m, k]


class TestMetricSubsets:
    # three chunks for one worker, and a remainder worker at 3
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_one_metric_counts_equal_the_joint_run(self, s1, workers, scheme):
        p = make_params(num_sources=3, num_jammers=4)
        c = SimConfig(trials=2 * montecarlo._CHUNK + 5, seed=31, workers=workers,
                      scheme=scheme)
        op_joint, ip_joint = simulate_point(p, s1, c)
        assert simulate_point(p, s1, c, metrics=("op",)) == (op_joint, None)
        assert simulate_point(p, s1, c, metrics=("ip",)) == (None, ip_joint)
        assert simulate_op(p, s1, c) == op_joint
        assert simulate_ip(p, s1, c) == ip_joint

    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_outage_only_never_evaluates_the_eavesdropper(self, s1, monkeypatch, scheme):
        def forbidden(*args, **kwargs):
            raise AssertionError("gamma_e called in an outage-only run")

        monkeypatch.setattr(montecarlo, "gamma_e", forbidden)
        est = simulate_op(make_params(), s1, SimConfig(trials=5000, seed=2, scheme=scheme))
        assert 0.0 < est.estimate < 1.0

    def test_intercept_only_never_evaluates_the_destination(self, s1, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("gamma_d called in an intercept-only run")

        monkeypatch.setattr(montecarlo, "gamma_d_spsr", forbidden)
        monkeypatch.setattr(montecarlo, "gamma_d_dpsr", forbidden)
        est = simulate_ip(make_params(), s1, SimConfig(trials=5000, seed=2, scheme="spsr"))
        assert 0.0 < est.estimate < 1.0

    @pytest.mark.parametrize("metrics", [(), ("op", "xp")])
    def test_bad_metrics_rejected(self, s1, metrics):
        with pytest.raises(ValueError, match="metrics"):
            simulate_point(make_params(), s1, SimConfig(trials=10), metrics=metrics)


def _full_draw_ip_count(p, s, c, rng, n):
    # the intercept count of one chunk from a draw of all five links
    d = draw_channels(s, p, rng, size=n)
    pair = gamma_e(p, d.gamma_se, d.gamma_sr_best, d.gamma_re, d.xi, mode="no-jamming",
                   scheme=c.scheme, gamma_rd=d.gamma_rd)
    return int(np.count_nonzero(pair.combined >= p.gamma_th))


class TestJammingOff:
    """With the jammers off the intercept reads no jammer gain, so its runs
    skip the JE uniforms instead of drawing them."""

    @staticmethod
    def _forbid_je(monkeypatch):
        row_reduced_draw = channel._row_reduced_draw

        def guarded(rng, lam, n, width, best):
            if not best:
                raise AssertionError("JE block drawn with the jammers off")
            return row_reduced_draw(rng, lam, n, width, best)

        monkeypatch.setattr(channel, "_row_reduced_draw", guarded)

    # three chunks for one worker, and a remainder worker at 3
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_counts_equal_those_of_the_full_draw(self, s1, monkeypatch, workers, scheme):
        p = make_params(num_sources=3, num_jammers=4)
        c = SimConfig(trials=2 * montecarlo._CHUNK + 5, seed=17, workers=workers,
                      scheme=scheme, jamming=False)
        expected = 0
        for worker, n_worker in enumerate(c.partition()):
            rng = worker_stream(c.seed, worker)
            for lo in range(0, n_worker, montecarlo._CHUNK):
                expected += _full_draw_ip_count(p, s1, c, rng,
                                                min(montecarlo._CHUNK, n_worker - lo))
        self._forbid_je(monkeypatch)
        assert simulate_ip(p, s1, c).successes == expected
        assert simulate_point(p, s1, c)[1].successes == expected

    @pytest.mark.parametrize("scheme", ["spsr", "dpsr"])
    def test_chunk_leaves_the_stream_where_the_full_draw_does(self, s1, monkeypatch, scheme):
        p = make_params(num_sources=2, num_jammers=8)
        c = SimConfig(trials=1, seed=5, scheme=scheme, jamming=False)
        n = 1003
        full = worker_stream(c.seed, 0)
        expected = _full_draw_ip_count(p, s1, c, full, n)
        after = full.random(5)
        self._forbid_je(monkeypatch)
        for metrics in (("ip",), ("op", "ip")):
            rng = worker_stream(c.seed, 0)
            assert montecarlo._count_chunk(p, s1, c, rng, n, metrics,
                                           [(c.scheme, p)])[0][1] == expected
            assert rng.random(5).tobytes() == after.tobytes()


def _sequential_counts(p, s, c):
    op_total = ip_total = 0
    for worker, n_worker in enumerate(c.partition()):
        rng = worker_stream(c.seed, worker)
        for lo in range(0, n_worker, montecarlo._CHUNK):
            n = min(montecarlo._CHUNK, n_worker - lo)
            [(op, ip)] = montecarlo._count_chunk(p, s, c, rng, n, METRICS, [(c.scheme, p)])
            op_total += op
            ip_total += ip
    return op_total, ip_total


class TestWorkerThreads:
    @pytest.mark.parametrize("cpus", [None, 1])
    def test_threads_capped_and_counts_sequential(self, s1, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        cap = min(64, core.usable_cpus())
        p = make_params(num_sources=3, num_jammers=2)
        c = SimConfig(trials=64 * 700 + 5, seed=13, workers=64)
        idents = set()
        lock = threading.Lock()
        in_flight = peak = 0
        count_chunk = montecarlo._count_chunk

        def recorded(*args):
            nonlocal in_flight, peak
            with lock:
                idents.add(threading.get_ident())
                in_flight += 1
                peak = max(peak, in_flight)
            try:
                return count_chunk(*args)
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(montecarlo, "_count_chunk", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose shared state
        try:
            op, ip = simulate_point(p, s1, c)
        finally:
            sys.setswitchinterval(interval)
        assert len(idents) <= cap and peak <= cap
        if cap == 1:
            assert idents == {threading.get_ident()}  # inline, no pool
        monkeypatch.setattr(montecarlo, "_count_chunk", count_chunk)
        assert (op.successes, ip.successes) == _sequential_counts(p, s1, c)


SCHEMES = (("spsr", 0.225), ("spsr", 0.875), ("dpsr", 0.5))


class TestSchemeSets:
    """Schemes of one point counted on one draw equal their own runs."""

    # three chunks for one worker, and a remainder worker at 3
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("jamming,e1_mode", [(True, "exact"), (True, "approx"),
                                                 (False, "exact")])
    @pytest.mark.parametrize("metrics", [("op",), ("ip",), METRICS])
    def test_each_scheme_equals_its_own_run(self, s1, workers, jamming, e1_mode, metrics):
        p = make_params(num_sources=3, num_jammers=4)
        c = SimConfig(trials=2 * montecarlo._CHUNK + 5, seed=23, workers=workers,
                      jamming=jamming, e1_mode=e1_mode)
        alone = [simulate_point(replace(p, rho=rho), s1, replace(c, scheme=kind), metrics)
                 for kind, rho in SCHEMES]
        for order in (SCHEMES, SCHEMES[::-1]):
            shared = simulate_point(p, s1, c, metrics, schemes=order)
            expected = alone if order == SCHEMES else alone[::-1]
            assert shared == expected

    def test_one_draw_per_chunk_whatever_the_scheme_count(self, s1, monkeypatch):
        calls = []
        draw = montecarlo.draw_channels

        def counted(*args, **kwargs):
            calls.append(kwargs["links"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "draw_channels", counted)
        p = make_params()
        c = SimConfig(trials=2 * montecarlo._CHUNK + 5, seed=3)
        simulate_point(p, s1, c, ("ip",), schemes=(("spsr", 0.3),))
        simulate_point(p, s1, c, ("ip",), schemes=SCHEMES)
        # spsr alone skips RD; dpsr reads it, so the shared draw takes it
        assert calls == [{"sr", "se", "re", "je"}] * 3 + [{"sr", "se", "rd", "re", "je"}] * 3

    def test_no_scheme_rejected(self, s1):
        with pytest.raises(ValueError, match="scheme"):
            simulate_point(make_params(), s1, SimConfig(trials=10), schemes=())
