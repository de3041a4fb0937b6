import math
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


def _reference_snrs(route, p, gsr, grd, gse, gre, xi):
    # every SNR as first written, one fresh array per expression
    if route == "d-spsr":
        return (_guarded_gamma_d(p.eta, p.rho, p.psi, gsr, grd),)
    if route == "d-dpsr":
        return (p.eta * p.psi * np.asarray(gsr, dtype=float) * grd
                / (1.0 + np.sqrt(p.eta * np.asarray(grd, dtype=float))) ** 2,)
    _, kind, mode = route.split("-")
    rho = 1.0 / (1.0 + np.sqrt(p.eta * np.asarray(grd, dtype=float))) if kind == "dpsr" else p.rho
    phi_xi = p.phi * np.asarray(xi, dtype=float)
    e1 = p.psi * gse / phi_xi if mode == "approx" else p.psi * gse / (phi_xi + 1.0)
    rho = np.asarray(rho, dtype=float)
    num = p.eta * rho * (1.0 - rho) * gsr * gre * p.psi
    den = p.eta * rho * gre + (1.0 - rho) * phi_xi + (1.0 - rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        e2 = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return e1, e2, np.maximum(e1, e2)


def _slots(p, gse, gsr, gre, xi, **kwargs):
    """The eavesdropper SNR of each slot alone, one call at a time, since each
    may return a row of the same ``out`` workspace: a zero SR gain silences
    slot 2, a zero SE gain slot 1."""
    yield gamma_e(p, gse, 0.0 * gsr, gre, xi, **kwargs)
    yield gamma_e(p, 0.0 * gse, gsr, gre, xi, **kwargs)


def _snrs(route, p, gsr, grd, gse, gre, xi, out=None):
    # one call at a time: an eavesdropper route yields each slot alone, then
    # the two combined
    if route == "d-spsr":
        yield gamma_d_spsr(p, gsr, grd, out=out)
        return
    if route == "d-dpsr":
        yield gamma_d_dpsr(p, gsr, grd, out=out)
        return
    _, kind, mode = route.split("-")
    kwargs = dict(mode=mode, scheme=kind, gamma_rd=grd, out=out)
    yield from _slots(p, gse, gsr, gre, xi, **kwargs)
    yield gamma_e(p, gse, gsr, gre, xi, **kwargs)


class TestDestinationSnrFastPath:
    """The SNR functions compute in a workspace, and gamma_d_spsr divides
    directly inside (0, 1); they must return the bits of the formulas as
    first written, with or without a workspace, for arrays and scalars."""

    @pytest.mark.parametrize("route", ["d-spsr", "d-dpsr", "e-spsr-exact", "e-spsr-approx",
                                       "e-dpsr-exact", "e-dpsr-approx"])
    @pytest.mark.parametrize("rho", [0.0, 1e-12, 0.225, 0.5, 0.875, 1.0 - 1e-12, 1.0])
    def test_equals_the_guarded_division(self, route, rho):
        rng = np.random.default_rng(31)
        p = make_params(rho=rho, psi_db=13.0)
        gains = rng.exponential(1.5, size=(5, 1000))  # gsr, grd, gse, gre, xi
        # zero source, destination and wiretap gains; both of the last two
        # at rows 6-8, where dpsr's second-slot denominator is 0
        gains[0, :3], gains[1, 3:9], gains[3, 6:12] = 0.0, 0.0, 0.0
        ref = _reference_snrs(route, p, *gains)
        work = core.snr_workspace(gains.shape[1:])
        for out in (None, work, work):
            got = _snrs(route, p, *gains, out=out)
            for g, r in zip(got, ref, strict=True):
                assert np.array_equal(g.view(np.uint64), r.view(np.uint64))
                assert out is None or np.shares_memory(g, out[0])
        for column in gains[:, :20].T:
            got = _snrs(route, p, *map(float, column))
            for g, r in zip(got, _reference_snrs(route, p, *column), strict=True):
                assert isinstance(g, float)
                assert g.hex() == float(r).hex()

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
        # zero SR and RE gains: only slot 1 reaches the eavesdropper
        p = SystemParams(eta=0.8, rho=0.5, psi=10.0, phi=1.0,
                         num_sources=2, num_jammers=1, c_th=0.5)
        exact = gamma_e(p, 1.0, 0.0, 0.0, 1.0, mode="exact")
        approx = gamma_e(p, 1.0, 0.0, 0.0, 1.0, mode="approx")
        assert exact == pytest.approx(5.0, rel=1e-14)
        assert approx == pytest.approx(10.0, rel=1e-14)

    def test_second_slot_hand_value(self):
        # zero SE gain: only slot 2 reaches the eavesdropper
        p = SystemParams(eta=0.8, rho=0.5, psi=10.0, phi=1.0,
                         num_sources=2, num_jammers=1, c_th=0.5)
        assert gamma_e(p, 0.0, 1.0, 1.0, 1.0, mode="exact") == pytest.approx(2.0 / 1.4, rel=1e-14)

    def test_nothing_reaches_eavesdropper(self):
        p = make_params()
        assert gamma_e(p, 0.0, 0.0, 1.0, 1.0, mode="exact") == 0.0

    def test_approx_rejects_zero_jamming(self):
        p = make_params()
        with pytest.raises(ValueError):
            gamma_e(p, 1.0, 1.0, 1.0, 0.0, mode="approx")

    def test_no_jamming_drops_dilution(self):
        # the jammers silent: exact mode at xi = 0 leaves slot 1 undiluted,
        # and slot 2 that of a jammed draw with no jamming power
        p = make_params(psi_db=10.0)
        e1, e2 = _slots(p, 2.0, 1.0, 1.0, 0.0, mode="exact")
        assert e1 == pytest.approx(p.psi * 2.0, rel=1e-14)
        _, ref = _slots(replace(p, phi=0.0), 2.0, 1.0, 1.0, 5.0, mode="exact")
        assert e2 == pytest.approx(ref, rel=1e-14)
        assert gamma_e(p, 2.0, 1.0, 1.0, 0.0, mode="exact") == max(e1, e2)

    def test_dpsr_equals_spsr_at_optimal_split(self):
        rng = np.random.default_rng(31)
        p = make_params()
        for _ in range(100):
            gse, gsr, gre, xi, grd = rng.exponential(1.0, size=5)
            dyn1, dyn2 = _slots(p, gse, gsr, gre, xi, mode="exact", scheme="dpsr",
                                gamma_rd=grd)
            p_at = SystemParams(eta=p.eta, rho=rho_star(p.eta, grd), psi=p.psi, phi=p.phi,
                                num_sources=p.num_sources, num_jammers=p.num_jammers,
                                c_th=p.c_th)
            ref1, ref2 = _slots(p_at, gse, gsr, gre, xi, mode="exact")
            assert dyn2 == pytest.approx(ref2, rel=1e-12)
            assert dyn1 == pytest.approx(ref1, rel=1e-12)
            assert gamma_e(p, gse, gsr, gre, xi, mode="exact", scheme="dpsr",
                           gamma_rd=grd) == max(dyn1, dyn2)

    def test_dpsr_requires_gamma_rd(self):
        p = make_params()
        with pytest.raises(ValueError):
            gamma_e(p, 1.0, 1.0, 1.0, 1.0, scheme="dpsr")

    def test_monotone_in_psi(self):
        p_lo = make_params(psi_db=0.0)
        p_hi = make_params(psi_db=6.0)
        lo1, lo2 = _slots(p_lo, 1.0, 1.0, 1.0, 1.0, mode="exact")
        hi1, hi2 = _slots(p_hi, 1.0, 1.0, 1.0, 1.0, mode="exact")
        assert hi1 > lo1
        assert hi2 > lo2
        assert gamma_e(p_hi, 1.0, 1.0, 1.0, 1.0, mode="exact") > \
            gamma_e(p_lo, 1.0, 1.0, 1.0, 1.0, mode="exact")
