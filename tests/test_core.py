import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swipt_plsec import (
    SystemParams,
    achievable_rate,
    gamma_d_dpsr,
    gamma_d_spsr,
    gamma_e,
    rho_star,
    snr_threshold,
)

from swipt_plsec import core

from conftest import make_params


class TestSnrThreshold:
    def test_half_rate(self):
        assert snr_threshold(0.5) == pytest.approx(1.0, abs=0)

    def test_zero_rate(self):
        assert snr_threshold(0.0) == 0.0

    def test_quarter_rate(self):
        # oracle: 2**(2*0.25) - 1 evaluated independently
        assert snr_threshold(0.25) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            snr_threshold(-0.1)

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_inverse_of_rate(self, gamma):
        assert snr_threshold(achievable_rate(gamma)) == pytest.approx(gamma, rel=1e-12, abs=1e-12)


class TestAchievableRate:
    def test_unit_snr(self):
        assert achievable_rate(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_zero(self):
        assert achievable_rate(0.0) == 0.0

    def test_snr_three(self):
        assert achievable_rate(3.0) == pytest.approx(1.0, rel=1e-15)

    def test_monotone(self):
        g = np.linspace(0, 50, 200)
        r = achievable_rate(g)
        assert np.all(np.diff(r) > 0)


class TestSystemParams:
    def test_gamma_th_derived_exactly(self):
        p = make_params(c_th=0.5)
        assert p.gamma_th == 2.0 ** (2.0 * p.c_th) - 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(eta=0.0), dict(eta=1.2), dict(rho=-0.1), dict(rho=1.1),
        dict(num_sources=0), dict(num_jammers=0), dict(c_th=-1.0),
        dict(psi_db=math.nan), dict(psi_db=math.inf), dict(phi_db=math.nan),
        dict(phi_db=math.inf), dict(c_th=math.nan), dict(c_th=math.inf),
        dict(c_th=1000.0),  # 2**2000 is beyond float range
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_params(**kwargs)


class TestDestinationSnr:
    def test_hand_value_static(self):
        p = make_params(rho=0.5, eta=0.8)
        p = SystemParams(eta=0.8, rho=0.5, psi=10.0, phi=p.phi,
                         num_sources=2, num_jammers=1, c_th=0.5)
        assert gamma_d_spsr(p, 1.0, 1.0) == pytest.approx(2.0 / 0.9, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_endpoints_give_zero(self, rho):
        p = make_params(rho=rho)
        assert gamma_d_spsr(p, 3.0, 2.0) == 0.0
        assert gamma_d_spsr(p, 0.0, 0.0) == 0.0

    def test_hand_value_dynamic(self):
        p = SystemParams(eta=0.8, rho=0.5, psi=10.0, phi=1.0,
                         num_sources=2, num_jammers=1, c_th=0.5)
        expected = 8.0 / (1.0 + math.sqrt(0.8)) ** 2
        assert gamma_d_dpsr(p, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_dynamic_zero_source_gain(self):
        p = make_params()
        assert gamma_d_dpsr(p, 0.0, 5.0) == 0.0

    def test_dynamic_equals_static_at_optimum(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            eta = rng.uniform(0.05, 1.0)
            gsr, grd = rng.exponential(2.0, size=2)
            psi = rng.uniform(0.1, 100)
            base = SystemParams(eta=eta, rho=0.5, psi=psi, phi=1.0,
                                num_sources=1, num_jammers=1, c_th=0.5)
            p_opt = SystemParams(eta=eta, rho=rho_star(eta, grd), psi=psi, phi=1.0,
                                 num_sources=1, num_jammers=1, c_th=0.5)
            assert gamma_d_dpsr(base, gsr, grd) == pytest.approx(
                gamma_d_spsr(p_opt, gsr, grd), rel=1e-12)

    def test_dynamic_dominates_any_fixed_rho(self):
        # oracle: dense rho grid search at 100 random parameter points
        rng = np.random.default_rng(5)
        rhos = np.linspace(1e-4, 1 - 1e-4, 2001)
        for _ in range(100):
            eta = rng.uniform(0.05, 1.0)
            gsr, grd = rng.exponential(2.0, size=2)
            num = eta * rhos * (1 - rhos) * 10.0 * gsr * grd
            den = eta * rhos * grd + (1 - rhos)
            p = SystemParams(eta=eta, rho=0.5, psi=10.0, phi=1.0,
                             num_sources=1, num_jammers=1, c_th=0.5)
            assert gamma_d_dpsr(p, gsr, grd) >= np.max(num / den) - 1e-9

    def test_concave_in_rho(self):
        # midpoint value must not fall below the chord midpoint
        rng = np.random.default_rng(17)
        for _ in range(1000):
            eta = rng.uniform(0.05, 1.0)
            gsr, grd = rng.exponential(1.0, size=2) + 1e-6
            r1, r2 = np.sort(rng.uniform(0.0, 1.0, size=2))
            def f(rho):
                p = SystemParams(eta=eta, rho=rho, psi=10.0, phi=1.0,
                                 num_sources=1, num_jammers=1, c_th=0.5)
                return gamma_d_spsr(p, gsr, grd)
            assert f(0.5 * (r1 + r2)) >= 0.5 * (f(r1) + f(r2)) - 1e-12

    def test_monotone_in_gains_and_psi(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            eta = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.05, 0.95)
            gsr, grd = rng.exponential(1.0, size=2)
            psi = rng.uniform(0.1, 50)
            bump = rng.uniform(0.01, 1.0)
            def gd(psi_, gsr_, grd_):
                p = SystemParams(eta=eta, rho=rho, psi=psi_, phi=1.0,
                                 num_sources=1, num_jammers=1, c_th=0.5)
                return gamma_d_spsr(p, gsr_, grd_)
            base = gd(psi, gsr, grd)
            assert gd(psi + bump, gsr, grd) >= base
            assert gd(psi, gsr + bump, grd) >= base
            assert gd(psi, gsr, grd + bump) >= base


def _guarded_gamma_d(eta, rho, psi, gamma_sr, gamma_rd):
    # the static destination SNR as first written: the division guarded
    # against den = 0 at every splitting ratio
    rho = np.asarray(rho, dtype=float)
    num = eta * rho * (1.0 - rho) * psi * gamma_sr * gamma_rd
    den = eta * rho * gamma_rd + (1.0 - rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


class TestDestinationSnrFastPath:
    """Inside (0, 1) gamma_d_spsr divides directly; it must return the bits
    of the guarded division it skips."""

    @pytest.mark.parametrize("rho", [0.0, 1e-12, 0.225, 0.5, 0.875, 1.0 - 1e-12, 1.0])
    def test_equals_the_guarded_division(self, rho):
        rng = np.random.default_rng(31)
        p = make_params(rho=rho, psi_db=13.0)
        gsr, grd = rng.exponential(1.5, size=(2, 1000))
        gsr[:3], grd[3:6] = 0.0, 0.0
        ref = _guarded_gamma_d(p.eta, p.rho, p.psi, gsr, grd)
        got = gamma_d_spsr(p, gsr, grd)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        for a, b in zip(gsr[:20], grd[:20]):
            v = gamma_d_spsr(p, float(a), float(b))
            assert isinstance(v, float)
            assert v.hex() == float(_guarded_gamma_d(p.eta, p.rho, p.psi, a, b)).hex()

    def test_keeps_the_argument_checks(self):
        p = make_params(rho=0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            gamma_d_spsr(p, np.array([1.0, -1e-300]), np.ones(2))
        with pytest.raises(ValueError, match="nonnegative"):
            gamma_d_spsr(p, 1.0, -1.0)


class TestRhoStar:
    def test_unit_case(self):
        assert rho_star(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_degenerate_link(self):
        assert rho_star(0.7, 0.0) == 1.0

    def test_hand_value(self):
        assert rho_star(0.8, 1.0) == pytest.approx(1.0 / (1.0 + math.sqrt(0.8)), rel=1e-14)

    def test_in_unit_interval(self):
        g = np.linspace(0, 100, 512)
        r = rho_star(0.8, g)
        assert np.all((r > 0) & (r <= 1))


class TestEavesdropperSnr:
    def test_first_slot_exact_and_approx(self):
        p = SystemParams(eta=0.8, rho=0.5, psi=10.0, phi=1.0,
                         num_sources=2, num_jammers=1, c_th=0.5)
        exact = gamma_e(p, 1.0, 0.0, 0.0, 1.0, mode="exact")
        approx = gamma_e(p, 1.0, 0.0, 0.0, 1.0, mode="approx")
        assert exact.gamma_e1 == pytest.approx(5.0, rel=1e-14)
        assert approx.gamma_e1 == pytest.approx(10.0, rel=1e-14)

    def test_second_slot_hand_value(self):
        p = SystemParams(eta=0.8, rho=0.5, psi=10.0, phi=1.0,
                         num_sources=2, num_jammers=1, c_th=0.5)
        pair = gamma_e(p, 0.0, 1.0, 1.0, 1.0, mode="exact")
        assert pair.gamma_e2 == pytest.approx(2.0 / 1.4, rel=1e-14)

    def test_nothing_reaches_eavesdropper(self):
        p = make_params()
        pair = gamma_e(p, 0.0, 0.0, 1.0, 1.0, mode="exact")
        assert pair.combined == 0.0

    def test_approx_rejects_zero_jamming(self):
        p = make_params()
        with pytest.raises(ValueError):
            gamma_e(p, 1.0, 1.0, 1.0, 0.0, mode="approx")

    def test_no_jamming_drops_dilution(self):
        # the jammers silent: exact mode at xi = 0 leaves slot 1 undiluted,
        # and slot 2 that of a jammed draw with no jamming power
        p = make_params(psi_db=10.0)
        pair = gamma_e(p, 2.0, 1.0, 1.0, 0.0, mode="exact")
        assert pair.gamma_e1 == pytest.approx(p.psi * 2.0, rel=1e-14)
        ref = gamma_e(replace(p, phi=0.0), 2.0, 1.0, 1.0, 5.0, mode="exact")
        assert pair.gamma_e2 == pytest.approx(ref.gamma_e2, rel=1e-14)

    def test_dpsr_equals_spsr_at_optimal_split(self):
        rng = np.random.default_rng(31)
        p = make_params()
        for _ in range(100):
            gse, gsr, gre, xi, grd = rng.exponential(1.0, size=5)
            dyn = gamma_e(p, gse, gsr, gre, xi, mode="exact", scheme="dpsr", gamma_rd=grd)
            p_at = SystemParams(eta=p.eta, rho=rho_star(p.eta, grd), psi=p.psi, phi=p.phi,
                                num_sources=p.num_sources, num_jammers=p.num_jammers,
                                c_th=p.c_th)
            ref = gamma_e(p_at, gse, gsr, gre, xi, mode="exact")
            assert dyn.gamma_e2 == pytest.approx(ref.gamma_e2, rel=1e-12)
            assert dyn.gamma_e1 == pytest.approx(ref.gamma_e1, rel=1e-12)

    def test_dpsr_requires_gamma_rd(self):
        p = make_params()
        with pytest.raises(ValueError):
            gamma_e(p, 1.0, 1.0, 1.0, 1.0, scheme="dpsr")

    def test_monotone_in_psi(self):
        p_lo = make_params(psi_db=0.0)
        p_hi = make_params(psi_db=6.0)
        lo = gamma_e(p_lo, 1.0, 1.0, 1.0, 1.0, mode="exact")
        hi = gamma_e(p_hi, 1.0, 1.0, 1.0, 1.0, mode="exact")
        assert hi.gamma_e1 > lo.gamma_e1
        assert hi.gamma_e2 > lo.gamma_e2


class TestSpreadMap:
    """``core.spread_map`` is the package's one thread policy: the MC
    partitions and the outer dynamic-splitting IP average both go through it."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_results_in_item_order(self, monkeypatch, cpus):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)

        def slow_square(x):
            time.sleep(0.001 * (10 - x))  # early items finish last
            return x * x

        assert core.spread_map(slow_square, range(10)) == [x * x for x in range(10)]

    def test_one_cpu_runs_inline_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created at one usable CPU")

        monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        monkeypatch.setattr(core, "ThreadPoolExecutor", no_pool)
        idents = core.spread_map(lambda _: threading.get_ident(), range(5))
        assert set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_threads_capped_at_usable_cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        lock = threading.Lock()
        in_flight = peak = 0

        def recorded(_):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.002)
            with lock:
                in_flight -= 1
            return threading.get_ident()

        idents = core.spread_map(recorded, range(12))
        assert len(set(idents)) <= cpus and peak <= cpus

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_first_failing_item_in_order_propagates(self, monkeypatch, cpus):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)

        def f(x):
            if x >= 3:
                time.sleep(0.001 * (10 - x))  # later failures finish first
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match=r"^item 3$"):
            core.spread_map(f, range(10))
