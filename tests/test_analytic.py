import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from swipt_plsec import (
    AnalyticConfig,
    CancellationError,
    ChannelStats,
    NumericalError,
    QuadratureError,
    SeriesNotConverged,
    SystemParams,
    ip_dpsr,
    ip_dpsr_no_jamming,
    ip_dpsr_quadrature,
    ip_spsr,
    ip_spsr_no_jamming,
    ip_spsr_quadrature,
    op_dpsr,
    op_dpsr_quadrature,
    op_dpsr_series,
    op_spsr,
    op_spsr_closed_form,
    op_spsr_quadrature,
)
from swipt_plsec import analytic, core
from swipt_plsec.analytic import _best_source_average
from swipt_plsec.reference import (
    dpsr_slot2_factor_quadrature,
    dpsr_slot2_kernel,
    dpsr_slot2_outage_factor,
    intercept_series_term,
    slot1_intercept_probability,
    slot2_bessel_form,
    slot2_outage_factor_quadrature,
)
from swipt_plsec.specfun import QuadratureSpec, bessel_k, integrate, sum_series

from conftest import db, make_params


# the sweep's kernel route and the paper's form, for the properties both keep
STATIC_ROUTES = (op_spsr, op_spsr_closed_form)
DYNAMIC_ROUTES = (op_dpsr, op_dpsr_series)


class TestOutageStatic:
    def test_closed_form_matches_quadrature(self, s1):
        for psi_db in (-5.0, 2.0, 15.0):
            for rho in (0.225, 0.55, 0.875):
                p = make_params(psi_db=psi_db, rho=rho)
                assert op_spsr_closed_form(p, s1) == pytest.approx(
                    op_spsr_quadrature(p, s1), rel=1e-8)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_endpoint_rho_is_certain_outage(self, s1, rho):
        p = make_params(rho=rho)
        for op in STATIC_ROUTES:
            assert op(p, s1) == 1.0, op.__name__
        assert op_spsr_quadrature(p, s1) == 1.0

    def test_zero_threshold(self, s1):
        p = make_params(c_th=0.0)
        for op in STATIC_ROUTES:
            assert op(p, s1) == 0.0, op.__name__

    def test_vanishing_power(self, s1):
        p = SystemParams(eta=0.8, rho=0.5, psi=1e-6, phi=1.0,
                         num_sources=2, num_jammers=1, c_th=0.5)
        for op in STATIC_ROUTES:
            assert op(p, s1) > 0.9999, op.__name__

    def test_within_unit_interval(self, s1):
        for psi_db in np.linspace(-5, 15, 9):
            p = make_params(psi_db=psi_db, rho=0.325)
            for op in STATIC_ROUTES:
                v = op(p, s1)
                assert -1e-6 <= v <= 1 + 1e-6, (op.__name__, psi_db)


class TestOutageDynamic:
    def test_series_matches_quadrature(self, s1):
        for psi_db in (-5.0, 2.0, 15.0):
            p = make_params(psi_db=psi_db)
            assert op_dpsr_series(p, s1) == pytest.approx(op_dpsr_quadrature(p, s1), rel=1e-7)

    def test_series_converges_at_default_tolerance_across_table(self, s1, s2):
        # the outage series must reach the default 1e-8 tolerance within the
        # term cap at every standard configuration
        for stats in (s1, s2):
            for c_th in (0.25, 0.5):
                for psi_db in (-5.0, 0.0, 5.0, 10.0, 15.0):
                    for m in (2, 3):
                        p = make_params(psi_db=psi_db, c_th=c_th, num_sources=m)
                        v = op_dpsr_series(p, stats)  # raises SeriesNotConverged on failure
                        assert 0.0 <= v <= 1.0 + 1e-9

    def test_dominates_every_static_ratio(self, s1):
        p = make_params(psi_db=2.0)
        for op_dynamic, op_static in zip(DYNAMIC_ROUTES, STATIC_ROUTES):
            dyn = op_dynamic(p, s1)
            for rho in np.linspace(0.05, 0.95, 19):
                assert dyn <= op_static(make_params(psi_db=2.0, rho=rho), s1) + 1e-12, \
                    (op_dynamic.__name__, rho)

    def test_vanishing_power(self, s1):
        p = SystemParams(eta=0.8, rho=0.5, psi=1e-6, phi=1.0,
                         num_sources=2, num_jammers=1, c_th=0.5)
        for op in DYNAMIC_ROUTES:
            assert op(p, s1) > 0.9999, op.__name__

    def test_zero_threshold(self, s1):
        p = make_params(c_th=0.0)
        for op in DYNAMIC_ROUTES:
            assert op(p, s1) == 0.0, op.__name__


def _scalar_op_spsr(p, s):
    # one scalar Bessel-K call per binomial term, as the route was first written
    if p.gamma_th == 0:
        return 0.0
    if p.rho in (0.0, 1.0):
        return 1.0
    acc = 1.0
    for b in range(1, p.num_sources + 1):
        coef = (-1.0) ** b * math.comb(p.num_sources, b)
        a = b * s.lambda_sr * s.lambda_rd * p.gamma_th / (p.eta * p.rho * p.psi)
        r = math.sqrt(a)
        acc += 2.0 * coef * math.exp(-b * s.lambda_sr * p.gamma_th / ((1.0 - p.rho) * p.psi)) \
            * (r * bessel_k(1, 2.0 * r))
    return acc


def _scalar_op_dpsr(p, s):
    if p.gamma_th == 0:
        return 0.0
    ln_rd = math.log(s.lambda_rd / p.eta)

    def term(t):
        tot = 0.0
        for b in range(1, p.num_sources + 1):
            coef = (-1.0) ** b * math.comb(p.num_sources, b)
            x = b * s.lambda_sr * p.gamma_th / p.psi
            z = 2.0 * math.sqrt(x * s.lambda_rd / p.eta)
            k = bessel_k(1.0 - t / 2.0, z)
            if not math.isfinite(k):
                return math.inf
            ln_mag = ((t + 1) * math.log(2.0) - math.lgamma(t + 1)
                      + (t / 4.0 + 0.5) * ln_rd
                      + (3.0 * t / 4.0 + 0.5) * math.log(x) - x)
            tot += coef * math.exp(ln_mag) * k
        return (-1.0) ** t * tot

    cfg = AnalyticConfig()
    res = sum_series(term, cfg.series_rel_tol, cfg.series_max_terms, initial=1.0)
    if not res.converged:
        raise SeriesNotConverged("", res.value, res.error_estimate, res.terms)
    return res.value


def _outcome(route, p, s):
    try:
        v = route(p, s)
    except SeriesNotConverged as e:
        return ("not converged", e.value, e.achieved_rel_tol, e.terms)
    except CancellationError as e:
        # a sum refused for cancellation carries its value, which keeps the
        # loop's bits; TestOutageSeriesCancellation pins where it refuses
        v = e.value
    return (type(v), v)


class TestOutageMatchesScalarLoops:
    """The paper's OP forms batch their Bessel-K calls over the binomial index
    and must return the bits of the one-call-per-term loops, also where those
    bits are cancellation noise (``op_spsr_closed_form`` at M = 64 leaves
    [0, 1]) or a non-converged series (``op_dpsr_series`` at -10 dB, M >= 4)."""

    GRID = [(stats, psi_db, m) for stats in ("s1", "s2") for psi_db in (-10.0, 10.0, 25.0, 40.0)
            for m in (1, 2, 3, 8, 17, 40, 64)]

    @pytest.mark.parametrize("stats,psi_db,m", GRID)
    def test_bitwise_equal(self, request, stats, psi_db, m):
        s = request.getfixturevalue(stats)
        for rho in (0.225, 0.875):
            p = make_params(psi_db=psi_db, rho=rho, num_sources=m)
            assert _outcome(op_spsr_closed_form, p, s) == _outcome(_scalar_op_spsr, p, s)
        p = make_params(psi_db=psi_db, num_sources=m)
        got = _outcome(op_dpsr_series, p, s)
        assert got == _outcome(_scalar_op_dpsr, p, s)
        if psi_db == -10.0 and m >= 4:
            assert got[0] == "not converged"

    @pytest.mark.parametrize("m", [1, 2, 8, 40])
    def test_underflowing_power(self, s1, m):
        # the Bessel factors underflow to zero and every term vanishes
        p = SystemParams(eta=0.8, rho=0.5, psi=1e-6, phi=1.0,
                         num_sources=m, num_jammers=1, c_th=0.5)
        assert _outcome(op_spsr_closed_form, p, s1) == _outcome(_scalar_op_spsr, p, s1)
        assert _outcome(op_dpsr_series, p, s1) == _outcome(_scalar_op_dpsr, p, s1)


class TestOutageSeriesCancellation:
    """The paper's dpsr series refuses, with CancellationError, where its
    binomial terms cancel past the quadrature tolerance, as the slot-2
    closed form does."""

    # s1, psi 40 dB, c_th 0.5: the series' value and the kernel's at the cells
    # where the series drifts from 3e-6 relative (M 16) to garbage (M 64)
    @pytest.mark.parametrize("m,series,kernel", [
        (16, 1.32035e-6, 1.32035e-6),
        (24, 1.15188e-6, 1.15182e-6),
        (40, -2.8643e-5, 9.9329e-7),
        (48, 0.023766, 9.4701e-7),
        (64, 1238.74, 8.8237e-7),
    ])
    def test_cancelled_cells_raise_with_their_value(self, s1, m, series, kernel):
        p = make_params(psi_db=40.0, num_sources=m)
        with pytest.raises(CancellationError) as exc:
            op_dpsr_series(p, s1)
        assert exc.value.value == pytest.approx(series, rel=1e-3)
        assert exc.value.bound > max(1e-8 * abs(exc.value.value), 1e-12)
        assert op_dpsr(p, s1) == pytest.approx(kernel, rel=1e-3)

    def test_refusals_on_the_scalar_loop_grid(self, s1, s2):
        # at 10-40 dB the cells at M 17, 40 and 64 refuse; at -10 dB the series
        # stops converging first, and that error wins
        refused = []
        for name, s in (("s1", s1), ("s2", s2)):
            for psi_db in (-10.0, 10.0, 25.0, 40.0):
                for m in (1, 2, 3, 8, 17, 40, 64):
                    try:
                        op_dpsr_series(make_params(psi_db=psi_db, num_sources=m), s)
                    except CancellationError:
                        refused.append((name, psi_db, m))
                    except SeriesNotConverged:
                        assert psi_db == -10.0 and m >= 3
        assert refused == [(name, psi_db, m) for name in ("s1", "s2")
                           for psi_db in (10.0, 25.0, 40.0) for m in (17, 40, 64)]


class TestOutageEnvelope:
    """Across the declared envelope the sweep's OP routes return a
    probability that agrees with the adaptive-quadrature reference.  K does
    not enter OP, and s2 shares s1's source-to-relay and relay-to-destination
    rates, so neither is swept."""

    # the reference's accuracy contract in the benchmark checker: the scalar
    # quadrature cannot reach the default 1e-12 absolute budget everywhere
    REF_CFG = AnalyticConfig(quad=QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11))

    @pytest.mark.parametrize("stats", ["s1", "dense_stats"])
    def test_kernel_routes_match_the_reference(self, request, stats):
        s = request.getfixturevalue(stats)
        misses = []
        for psi_db in (-10.0, 0.0, 10.0, 15.0, 25.0, 40.0):
            for m in (1, 2, 3, 8, 17, 40, 64):
                for c_th in (0.25, 0.5, 1.0):
                    cells = [(op_spsr, op_spsr_quadrature, rho)
                             for rho in (0.05, 0.225, 0.875, 0.95)]
                    cells.append((op_dpsr, op_dpsr_quadrature, 0.5))
                    for route, reference, rho in cells:
                        p = make_params(psi_db=psi_db, rho=rho, num_sources=m, c_th=c_th)
                        v = route(p, s)
                        ref = reference(p, s, self.REF_CFG)
                        if not (0.0 <= v <= 1.0 and abs(v - ref) <= 1e-6 * abs(ref) + 1e-11):
                            misses.append((route.__name__, psi_db, m, c_th, rho, v, ref))
        assert not misses

    def test_reference_reruns_a_segment_budget_overrun(self, s1):
        # the first pass's segment errors sum to 5.12e-11 against a budget of
        # 5.03e-11; its value already matched op_dpsr to 6e-15 relative
        p = make_params(psi_db=0.0, c_th=0.25, num_sources=55)
        assert op_dpsr_quadrature(p, s1, self.REF_CFG) == pytest.approx(op_dpsr(p, s1), rel=1e-8)

    @staticmethod
    def _mpmath_outage(p, s, rho):
        # the defining average at 30 digits, split once per decade of the gain
        with mpmath.workdps(30):
            eta, g, psi = mpmath.mpf(p.eta), mpmath.mpf(p.gamma_th), mpmath.mpf(p.psi)
            lam_sr, lam_rd = mpmath.mpf(s.lambda_sr), mpmath.mpf(s.lambda_rd)
            if rho is None:
                def thr(x):
                    return g * (1 + mpmath.sqrt(eta * x)) ** 2 / (eta * psi * x)
            else:
                r = mpmath.mpf(rho)

                def thr(x):
                    return g * (eta * r * x + 1 - r) / (eta * r * (1 - r) * psi * x)

            def f(x):
                return ((-mpmath.expm1(-lam_sr * thr(x))) ** p.num_sources
                        * lam_rd * mpmath.exp(-lam_rd * x))

            edges = [0] + [mpmath.mpf(10) ** k for k in range(-12, 4)] + [mpmath.inf]
            return float(mpmath.quad(f, edges))

    # At 40 dB with many sources the outage mass sits within a decade above the
    # gain lambda_sr * gamma_th / (eta * rho * psi), far below the other split
    # points; unbracketed, quad accepted estimates that missed it (by 1e-5 to
    # 1 relative) at these cells.
    @pytest.mark.parametrize("m,rho,c_th", [(40, None, 0.25), (64, 0.875, 0.25),
                                            (64, 0.95, 0.25), (64, None, 0.25),
                                            (21, None, 0.5), (22, 0.875, 0.5)])
    def test_reference_resolves_mass_at_small_gains(self, s1, m, rho, c_th):
        p = make_params(psi_db=40.0, rho=0.5 if rho is None else rho, num_sources=m,
                        c_th=c_th)
        oracle = self._mpmath_outage(p, s1, rho)
        if rho is None:
            route, reference = op_dpsr, op_dpsr_quadrature
        else:
            route, reference = op_spsr, op_spsr_quadrature
        assert route(p, s1) == pytest.approx(oracle, rel=1e-8)
        assert reference(p, s1) == pytest.approx(oracle, rel=1e-8)
        assert reference(p, s1, self.REF_CFG) == pytest.approx(oracle, rel=1e-8)


class TestInterceptStatic:
    def test_quadrature_monotone_decreasing_in_phi(self, s1):
        values = []
        for phi_db in np.linspace(-3, 15, 10):
            p = make_params(phi_db=phi_db, rho=0.55)
            values.append(ip_spsr_quadrature(p, s1))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_saturates_at_high_power(self, s1):
        p = SystemParams(eta=0.8, rho=0.55, psi=1e6, phi=db(1.0),
                         num_sources=2, num_jammers=1, c_th=0.5)
        assert ip_spsr_quadrature(p, s1) > 0.999

    def test_zero_threshold(self, s1):
        p = make_params(c_th=0.0)
        assert ip_spsr_quadrature(p, s1) == 1.0
        assert ip_spsr(p, s1) == 1.0

    def test_series_diverges_in_weak_link_geometry(self, s1):
        p = make_params(rho=0.55)
        with pytest.raises(SeriesNotConverged) as exc:
            ip_spsr(p, s1)
        assert exc.value.value > 0  # best-effort value still reported
        assert exc.value.achieved_rel_tol > 1e-8

    def test_series_matches_quadrature_where_summable(self, dense_stats):
        # 20-point consistency grid inside the series' validity region
        cfg = AnalyticConfig(series_rel_tol=1e-6)
        for psi_db in (-2.0, 0.0, 1.0, 2.0):
            for rho in (0.1, 0.15, 0.2, 0.25, 0.3):
                p = make_params(psi_db=psi_db, rho=rho)
                series = ip_spsr(p, dense_stats, cfg)
                quad = ip_spsr_quadrature(p, dense_stats)
                assert series == pytest.approx(quad, rel=1e-2)

    def test_rho_endpoints_rejected(self, s1):
        for rho in (0.0, 1.0):
            with pytest.raises(ValueError):
                ip_spsr_quadrature(make_params(rho=rho), s1)

    def test_no_jamming_exceeds_jammed(self, s1):
        p = make_params(rho=0.55)
        assert ip_spsr_no_jamming(p, s1) > ip_spsr_quadrature(p, s1)


class TestInterceptDynamic:
    def test_assembly_matches_quadrature(self, s1):
        for psi_db, phi_db in ((2.0, 1.0), (4.0, -1.0)):
            p = make_params(psi_db=psi_db, phi_db=phi_db)
            assert ip_dpsr(p, s1) == pytest.approx(ip_dpsr_quadrature(p, s1), rel=1e-6)

    def test_no_jamming_exceeds_jammed(self, s1):
        p = make_params()
        assert ip_dpsr_no_jamming(p, s1) > ip_dpsr_quadrature(p, s1)

    def test_zero_threshold(self, s1):
        p = make_params(c_th=0.0)
        assert ip_dpsr(p, s1) == 1.0


class TestUnitIntervalInvariant:
    def test_probabilities_land_in_range_without_clamping(self, s1):
        # evaluators return raw formula values (the intercept routes move only
        # a residue of at most 1e-12 to the end it passed); they must land
        # inside [0, 1] to 1e-6 on their own
        lo, hi = -1e-6, 1.0 + 1e-6
        for psi_db in (-5.0, 2.0, 15.0):
            p = make_params(psi_db=psi_db, rho=0.55)
            values = [
                op_spsr(p, s1), op_spsr_quadrature(p, s1),
                op_dpsr(p, s1), op_dpsr_quadrature(p, s1),
                ip_spsr_quadrature(p, s1), ip_spsr_no_jamming(p, s1),
            ]
            assert all(lo <= v <= hi for v in values), (psi_db, values)
        p = make_params(psi_db=2.0, rho=0.55)
        for v in (ip_dpsr(p, s1), ip_dpsr_quadrature(p, s1), ip_dpsr_no_jamming(p, s1)):
            assert lo <= v <= hi

    @staticmethod
    def _intercept_at(monkeypatch, s, ip):
        # the no-jamming static route, IP = P1 + (its best-source average),
        # with that average replaced by the value that puts IP at ``ip``
        p = make_params(psi_db=-10.0)
        p1 = 1.0 + math.expm1(-p.gamma_th * s.lambda_se / p.psi)  # 1 - q1, as the route
        monkeypatch.setattr(analytic, "_best_source_average", lambda h, a, m: ip - p1)
        return ip_spsr_no_jamming(p, s)

    @pytest.mark.parametrize("ip, end", [(-2 ** -52, 0.0), (1.0 + 1e-14, 1.0)])
    def test_intercept_moves_a_rounding_residue_to_the_end(self, s1, monkeypatch, ip, end):
        assert self._intercept_at(monkeypatch, s1, ip) == end

    @pytest.mark.parametrize("ip", [-1e-9, 1.0 + 1e-9, -0.5, math.nan])
    def test_intercept_refuses_a_value_beyond_the_residue(self, s1, monkeypatch, ip):
        with pytest.raises(NumericalError, match=r"outside \[0, 1\]") as info:
            self._intercept_at(monkeypatch, s1, ip)
        if math.isnan(ip):
            assert math.isnan(info.value.value)
        else:
            assert info.value.value == pytest.approx(ip, rel=1e-6)
            assert info.value.bound == pytest.approx(max(-ip, ip - 1.0), rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", [ip_spsr_quadrature, ip_spsr_no_jamming,
                                       ip_dpsr_quadrature, ip_dpsr_no_jamming],
                             ids=lambda f: f.__name__)
    def test_intercept_refuses_a_psi_whose_scale_overflows(self, s1, route):
        # at psi = 1e-310 (-3100 dB) gamma_th/psi is beyond float range
        with pytest.raises(ValueError, match=r"psi = 1e-310 is too small"):
            route(make_params(psi_db=-3100.0, rho=0.55), s1)

    # s1, rho 0.55: from psi 1e-300 to 1e-308 gamma_th/psi is finite, but
    # the source-side thresholds, the wiretap tilt c/lambda_je and beta
    # overflow one after another; every route returns IP's limit 0, up to
    # the slot-1 mass, under 1e-301 with the jammers on
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", [ip_spsr_quadrature, ip_spsr_no_jamming,
                                       ip_dpsr_quadrature, ip_dpsr_no_jamming],
                             ids=lambda f: f.__name__)
    def test_intercept_at_tiny_psi_is_its_limit_without_warnings(self, s1, route):
        for psi_db in (-3000.0, -3050.0, -3070.0, -3080.0):
            p = make_params(psi_db=psi_db, rho=0.55)
            assert 0.0 <= route(p, s1) < 1e-301, psi_db

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", [op_spsr, op_dpsr], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("psi_db", [-3000.0, -3100.0, -3200.0])
    def test_outage_at_tiny_psi_is_its_limit_without_warnings(self, s1, route, psi_db):
        # the source-side threshold overflows to inf, where the best-source
        # CDF is 1 and the average beyond it 0
        assert route(make_params(psi_db=psi_db, rho=0.55), s1) == 1.0


class TestInterceptPieces:
    def test_slot1_mass_vs_quadrature(self):
        # dilute rate 1.5 with base rate 1, two jammers: (1/1.5)**2
        p = SystemParams(eta=0.8, rho=0.5, psi=1.0, phi=1.0,
                         num_sources=2, num_jammers=2, c_th=0.5)
        s = ChannelStats(lambda_sr=1.0, lambda_rd=1.0, lambda_re=1.0,
                         lambda_je=1.0, lambda_se=0.5)
        assert slot1_intercept_probability(p, s) == pytest.approx((1 / 1.5) ** 2, rel=1e-12)
        tilted = p.gamma_th * s.lambda_se * p.phi / p.psi + s.lambda_je
        value, _ = integrate(
            lambda x: x * math.exp(-tilted * x) * s.lambda_je ** 2,
            QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13), points=(2.0,))
        assert slot1_intercept_probability(p, s) == pytest.approx(value, rel=1e-8)

    @staticmethod
    def _slot2(p, s, x):
        # the Bessel form of the static slot-2 factor at jammer aggregate x
        return slot2_bessel_form(p, s, p.rho, p.phi * x + 1.0)

    def test_slot2_factor_matches_quadrature(self, s1):
        p = make_params(rho=0.55)
        for x in (0.0, 1.0, 5.0):
            closed = self._slot2(p, s1, x)
            ref = slot2_outage_factor_quadrature(p, s1, x)
            assert closed == pytest.approx(ref, rel=1e-6)

    def test_slot2_factor_kept_where_its_rounding_bound_is_small(self, s1):
        p = make_params(psi_db=10.0, num_sources=16)
        assert self._slot2(p, s1, 1.0) == pytest.approx(
            slot2_outage_factor_quadrature(p, s1, 1.0), rel=1e-10)

    @pytest.mark.parametrize("m,psi_db", [(60, 10.0), (40, 25.0), (16, 40.0)])
    def test_slot2_factor_refuses_cancelled_sums(self, s1, m, psi_db):
        # at M 60 / 10 dB the binomial sum comes out as -0.121 against 0.0613
        p = make_params(psi_db=psi_db, num_sources=m)
        with pytest.raises(CancellationError) as exc:
            self._slot2(p, s1, 1.0)
        ref = slot2_outage_factor_quadrature(p, s1, 1.0)
        assert abs(exc.value.value - ref) > 1e-8 * ref
        assert exc.value.bound > max(1e-8 * abs(exc.value.value), 1e-12)

    def test_slot2_factor_mirrors_outage_form_without_jamming(self, s1):
        # at zero aggregate the factor has the outage closed form with the
        # relay-to-eavesdropper rate in the Bessel argument
        p = make_params(rho=0.55)
        swapped = ChannelStats(lambda_sr=s1.lambda_sr, lambda_rd=s1.lambda_re,
                               lambda_re=s1.lambda_re, lambda_je=s1.lambda_je,
                               lambda_se=s1.lambda_se)
        assert self._slot2(p, s1, 0.0) == pytest.approx(
            op_spsr_closed_form(p, swapped), rel=1e-12)

    def test_series_term_matches_direct_integral(self, dense_stats):
        # independently coded quadrature of the pre-transformation integral
        for (t, b, rho) in ((1, 1, 0.2), (2, 1, 0.3), (1, 2, 0.25)):
            p = make_params(rho=rho)
            k = p.num_jammers
            c = b * dense_stats.lambda_sr * dense_stats.lambda_re * p.gamma_th \
                / (p.eta * p.rho * p.psi)
            tilted = p.gamma_th * dense_stats.lambda_se * p.phi / p.psi + dense_stats.lambda_je

            def integrand(y):
                return y ** 0.5 * (y - 1.0) ** (t + k - 1) * bessel_k(1, 2.0 * math.sqrt(c * y))

            ref, _ = integrate(integrand, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30, lower=1.0),
                               points=(1.0 + (t + k) / math.sqrt(c),))
            expected = (-1.0) ** t * tilted ** t / (
                math.factorial(t) * p.phi ** (t + k)) * ref
            got = intercept_series_term(p, dense_stats, t, b, tilted)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_single_jammer_leading_term_closes_the_loop(self, dense_stats):
        # for one jammer the t=0 term is, by the y = phi*x + 1 substitution,
        # exactly the aggregate-domain quadrature of the slot-2 Bessel kernel
        # with no density weight; computing it both ways checks the
        # substitution chain behind the Meijer-backed series
        p = make_params(rho=0.25, num_jammers=1)
        for b in (1, 2):
            c = b * dense_stats.lambda_sr * dense_stats.lambda_re * p.gamma_th \
                / (p.eta * p.rho * p.psi)

            def f(x, c=c):
                root = math.sqrt(c * (p.phi * x + 1.0))
                return math.sqrt(p.phi * x + 1.0) * bessel_k(1, 2.0 * root)

            direct, _ = integrate(f, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14),
                                  points=(1.0 / p.phi,))
            # weight^0 = 1, so the Erlang rate argument is irrelevant at t=0
            got = intercept_series_term(p, dense_stats, 0, b, dense_stats.lambda_je)
            assert got == pytest.approx(direct, rel=1e-7)

    def test_no_jamming_routes_match_the_conditional_averages(self, s1):
        # with the jammers silent IP = 1 - q1 * (slot-2 factor at x = 0),
        # each factor by adaptive quadrature over its gain
        for psi_db in (0.0, 10.0):
            p = make_params(psi_db=psi_db, rho=0.225)
            q1 = -math.expm1(-p.gamma_th * s1.lambda_se / p.psi)
            assert 1.0 - ip_spsr_no_jamming(p, s1) == pytest.approx(
                q1 * slot2_outage_factor_quadrature(p, s1, 0.0), rel=1e-6)
            assert 1.0 - ip_dpsr_no_jamming(p, s1) == pytest.approx(
                q1 * dpsr_slot2_factor_quadrature(p, s1, 0.0), rel=1e-6)

    def test_dpsr_factor_matches_conditional_average(self, s1):
        # the dynamic slot-2 factor at jammer aggregate x, dilution phi*x + 1:
        # the kernel's conditional factor at rho* of each node of the gain
        # table, Kronrod-weighted, against adaptive quadrature over the gain
        p = make_params()
        omega, weights = analytic._gain_table(s1.lambda_rd)
        rho = core.rho_star(p.eta, omega)
        for x in (0.0, 2.0):
            dilution = p.phi * x + 1.0
            fast = sum(w * _kernel_slot2(p, s1, r, dilution) for r, w in zip(rho, weights[:, 0]))
            ref = dpsr_slot2_factor_quadrature(p, s1, x)
            assert fast == pytest.approx(ref, rel=1e-6)

    def test_dpsr_conditional_factor_edges(self, s1):
        p = make_params()
        assert dpsr_slot2_outage_factor(p, s1, 1.0, 0.0) == 1.0
        v = dpsr_slot2_outage_factor(p, s1, 1.0, 2.0)
        assert 0.0 <= v <= 1.0

    def test_dpsr_kernel_positive_decreasing_in_x(self, s1):
        p = make_params()
        k0 = dpsr_slot2_kernel(p, s1, 0.0, 1)
        k5 = dpsr_slot2_kernel(p, s1, 5.0, 1)
        assert k0 > k5 > 0


class TestAveragingKernel:
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_slot1_mass_is_the_closed_form(self, s1, k):
        # at the smallest rho beta overflows, so slot 2 is never intercepted
        # and IP is the slot-1 mass (lam_je / tilted)**K alone
        p = make_params(rho=5e-324, num_jammers=k)
        assert ip_spsr_quadrature(p, s1) == pytest.approx(slot1_intercept_probability(p, s1),
                                                          rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 12, 16, 24, 40, 64])
    def test_kernel_mass_completes_the_cdf(self, m):
        # E[1; z > 0] = 1 - F_M(a), whether the threshold a sits below, at or
        # above the bulk of the best-of-M law near log M
        for a in (0.0, 1e-6, 1.0, 4.0, 30.0):
            mass = _best_source_average(np.ones_like, a, m)
            assert mass + (-math.expm1(-a)) ** m == pytest.approx(1.0, rel=0, abs=1e-13), a

    def test_unresolved_integrand_raises_with_its_accuracy(self):
        # a step inside a panel defeats both rules of the Gauss-Kronrod pair
        with pytest.raises(QuadratureError) as exc:
            _best_source_average(lambda z: np.where(z > 1.3, 1.0, 0.0), 0.0, 1)
        assert exc.value.value == pytest.approx(math.exp(-1.3), abs=1e-2)
        assert max(1e-8 * abs(exc.value.value), 1e-12) < exc.value.bound < 1e-1

    def test_node_tables_are_built_on_first_use(self):
        # importing the package, resolving a scenario and evaluating a paper
        # form leave the rule and both node tables unbuilt
        code = ("import swipt_plsec.analytic as a; from swipt_plsec import resolve_scenario; "
                "from swipt_plsec.reference import op_spsr_closed_form; "
                "from conftest import make_params; "
                "op_spsr_closed_form(make_params(), resolve_scenario('s1')); "
                "print(*(f.cache_info().currsize for f in (a._rules, a._z_table, a._gain_table)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "0 0 0"

    def test_panel_tables(self):
        # the gains of dynamic splitting are width 1 from -5.5 up; z is width
        # 1 from -12.5 and 0.5 from -0.5 up; both grow by 1.5x below, the
        # lowest panel cut at -35.5
        assert analytic._IP_PANELS == (-35.5, -25.28125, -17.6875, -12.625, -9.25, -7.0,
                                       *np.arange(-5.5, 5.0))
        assert analytic._Z_PANELS == (-35.5, -32.28125, -24.6875, -19.625, -16.25, -14.0,
                                      *np.arange(-12.5, 0.0), *np.arange(0.0, 4.75, 0.5))
        assert analytic._z_table()[0].size == 588
        assert analytic._gain_table(0.7)[0].size == 336

    def test_node_tables_are_read_only(self):
        for table in (*analytic._z_table(), *analytic._gain_table(0.7)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0

    def test_gain_table_is_built_once_per_rate(self, s1, monkeypatch):
        p = make_params(num_sources=3)
        first = ip_dpsr_quadrature(p, s1)

        def forbidden(*args):
            raise AssertionError("node tables rebuilt")

        monkeypatch.setattr(analytic, "erlang_pdf_xi", forbidden)
        assert ip_dpsr_quadrature(p, s1) == first
        ip_dpsr_no_jamming(make_params(num_sources=5, psi_db=25.0), s1)
        with pytest.raises(AssertionError, match="rebuilt"):
            analytic._gain_table(0.3141)

    def test_gauss_kronrod_constants(self):
        # the 10-point Gauss rule sits at the odd Kronrod nodes, with zero
        # Gauss weight elsewhere; K21 is exact to degree 31 and G10 to 19
        t, wk, wg = analytic._rules()
        gx, gw = np.polynomial.legendre.leggauss(10)
        assert t.shape == wk.shape == wg.shape == (21,)
        np.testing.assert_allclose(t[1::2], gx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(wg[1::2], gw, rtol=0, atol=1e-15)
        assert not wg[::2].any()
        assert wk.sum() == pytest.approx(2.0, rel=0, abs=1e-14)
        assert wk @ t ** 30 == pytest.approx(2.0 / 31.0, rel=0, abs=1e-14)
        assert wg @ t ** 18 == pytest.approx(2.0 / 19.0, rel=0, abs=1e-14)

    @staticmethod
    def _largest_estimate(monkeypatch, cells, averages=1):
        # the largest Gauss-Kronrod estimate over the cells, in units of its
        # tolerance max(rel_tol*|value|, abs_tol); every cell must be accepted,
        # each after ``averages`` kernel calls
        ratios = []
        refuse = analytic.refuse_beyond

        def spy(value, bound, spec, error, what):
            if error is QuadratureError:
                tol = np.maximum(spec.rel_tol * np.abs(value), spec.abs_tol)
                ratios.append(float(np.max(bound / tol)))
            return refuse(value, bound, spec, error, what)

        monkeypatch.setattr(analytic, "refuse_beyond", spy)
        for route, p, s in cells:
            route(p, s)
        assert len(ratios) == averages * len(cells)
        return max(ratios)

    def test_outage_estimates_keep_their_headroom(self, s1, s2, dense_stats, monkeypatch):
        # the z table resolves every OP cell of the envelope grid with the
        # estimate at most a tenth of its tolerance
        cells = [(route, make_params(psi_db=psi_db, rho=rho, num_sources=m), s)
                 for s in (s1, s2, dense_stats) for psi_db in (-10.0, 10.0, 25.0, 40.0)
                 for m in range(1, 65)
                 for route, rho in ((op_spsr, 0.225), (op_spsr, 0.875), (op_dpsr, 0.5))]
        assert len(cells) == 2304
        assert self._largest_estimate(monkeypatch, cells) <= 0.1

    def test_static_intercept_estimates_keep_their_headroom(self, s1, s2, dense_stats,
                                                            monkeypatch):
        # phi and c_th move the slot-1 tilt c and with it G; large M moves
        # the best-of-M bulk to log M, where the z panels are width 0.5
        cells = [(ip_spsr_quadrature, make_params(psi_db=psi_db, rho=rho, num_sources=m,
                                                  num_jammers=k, phi_db=phi_db, c_th=c_th), s)
                 for s in (s1, s2, dense_stats) for psi_db in (-10.0, 0.0, 10.0, 25.0, 40.0)
                 for m in (1, 2, 4, 8, 12, 16, 24, 40, 64) for k in (1, 4)
                 for rho in (0.225, 0.875)
                 for phi_db, c_th in ((-10.0, 0.25), (-10.0, 1.0), (1.0, 0.5), (10.0, 0.25),
                                      (10.0, 1.0))]
        assert len(cells) == 2700
        assert self._largest_estimate(monkeypatch, cells) <= 0.1

    def test_dynamic_intercept_estimates_keep_their_headroom(self, s1, s2, dense_stats,
                                                             monkeypatch):
        # the inner best-source average once per panel of gains, and the
        # outer average over the gains
        cells = [(ip_dpsr_quadrature, make_params(psi_db=psi_db, num_sources=m,
                                                  num_jammers=k), s)
                 for s in (s1, s2, dense_stats) for psi_db in (-10.0, 0.0, 10.0, 25.0, 40.0)
                 for m in (1, 2, 4, 8, 12, 16, 24, 40, 64) for k in (1, 4)]
        assert len(cells) == 270
        panels = len(analytic._IP_PANELS) - 1
        assert self._largest_estimate(monkeypatch, cells, 1 + panels) <= 0.1

    @pytest.mark.parametrize("route", [ip_dpsr_quadrature, ip_dpsr_no_jamming],
                             ids=lambda f: f.__name__)
    def test_dpsr_average_takes_one_panel_of_gains_at_a_time(self, s1, monkeypatch, route):
        # (21, 588) float64 temporaries are 98,784 bytes, under glibc's
        # 128 KiB mmap threshold, so no block pays for fresh pages
        shapes = []
        kernel = analytic._best_source_average

        def recorded(h, a, m):
            shapes.append(np.broadcast_shapes(np.shape(a), analytic._z_table()[0].shape))
            return kernel(h, a, m)

        monkeypatch.setattr(analytic, "_best_source_average", recorded)
        route(make_params(num_jammers=4), s1)
        assert shapes == [(21, 588)] * 16

    # values of the nested scipy.quad routes at the figure_ip benchmark points
    @pytest.mark.parametrize("psi_db,spsr_lo,spsr_hi,dpsr", [
        (0.0, 0.053712410853, 0.0760080995633, 0.0705640990776),
        (10.0, 0.465904472931, 0.666301566615, 0.543115431474),
    ])
    def test_figure_points_keep_the_nested_quadrature_values(self, s1, psi_db, spsr_lo,
                                                             spsr_hi, dpsr):
        assert ip_spsr_quadrature(make_params(psi_db=psi_db, rho=0.225), s1) == \
            pytest.approx(spsr_lo, abs=1e-9)
        assert ip_spsr_quadrature(make_params(psi_db=psi_db, rho=0.875), s1) == \
            pytest.approx(spsr_hi, abs=1e-9)
        assert ip_dpsr_quadrature(make_params(psi_db=psi_db), s1) == pytest.approx(dpsr, abs=1e-9)


def _rebuilt_best_source_average(h, a, m):
    # the best-source kernel with its z table rebuilt on every call: the
    # G10/K21 pair mapped onto each of the 28 panels in log z, the Kronrod
    # and Gauss weights side by side times z, and each node weighted by the
    # best-of-M density at a + z
    t, wk, wg = analytic._rules()
    edges = np.array([-35.5, -32.28125, -24.6875, -19.625, -16.25, -14.0,
                      *np.arange(-12.5, 0.0), *np.arange(0.0, 4.75, 0.5)])
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    z = np.exp((mid + half * t).ravel())
    wz = np.stack([(half * wk).ravel(), (half * wg).ravel()], axis=1) * z[:, None]
    u = a + z
    sums = (h(z) * (m * np.exp(-u) * (-np.expm1(-u)) ** (m - 1))).dot(wz)
    kronrod, err = sums[..., 0], np.abs(sums[..., 0] - sums[..., 1])
    spec = AnalyticConfig().quad
    if not np.all(err <= np.maximum(spec.rel_tol * np.abs(kronrod), spec.abs_tol)):
        raise QuadratureError("", math.nan, math.inf)
    return kronrod


class TestCachedKernelOracle:
    """Every best-source average the sweep's routes take returns the bits of
    the kernel rebuilt on every call, so the one cached z table serves every
    route, threshold and number of sources unchanged."""

    @staticmethod
    def _checked(monkeypatch):
        shapes = []
        kernel = analytic._best_source_average

        def checked(h, a, m):
            got = kernel(h, a, m)
            assert np.array_equal(got, _rebuilt_best_source_average(h, a, m))
            shapes.append(np.shape(got))
            return got

        monkeypatch.setattr(analytic, "_best_source_average", checked)
        return shapes

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    def test_outage_routes_match_the_rebuilt_kernel(self, request, monkeypatch, stats):
        s = request.getfixturevalue(stats)
        shapes = self._checked(monkeypatch)
        for psi_db in (-10.0, 10.0, 25.0, 40.0):
            for m in range(1, 65):
                for route, rho in ((op_spsr, 0.225), (op_spsr, 0.875), (op_dpsr, 0.5)):
                    route(make_params(psi_db=psi_db, rho=rho, num_sources=m), s)
        assert shapes == [()] * (4 * 64 * 3)

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    def test_intercept_routes_match_the_rebuilt_kernel(self, request, monkeypatch, stats):
        s = request.getfixturevalue(stats)
        shapes = self._checked(monkeypatch)
        for psi_db in (0.0, 10.0, 25.0):
            for k in (1, 4, 8):
                for rho in (0.225, 0.875):
                    p = make_params(psi_db=psi_db, rho=rho, num_jammers=k, num_sources=8)
                    ip_spsr_quadrature(p, s)
                    ip_spsr_no_jamming(p, s)
        ip_dpsr_quadrature(make_params(num_sources=24), s)
        assert shapes == [()] * (3 * 3 * 2 * 2) + [(21,)] * 16


def _kernel_slot2(p, s, rho, dilution):
    # the slot-2 no-intercept factor at (rho, dilution D) by the best-source
    # kernel: the best gain misses A + B' D / y, y ~ Exp(1) the scaled
    # relay-to-eavesdropper gain, with probability
    # F_M(a) + E[1 - exp(-D beta / z); z > 0], beta = lambda_sr B'
    a = s.lambda_sr * p.gamma_th / ((1.0 - rho) * p.psi)
    beta = s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * rho * p.psi)
    m = p.num_sources
    return ((-math.expm1(-a)) ** m
            + float(_best_source_average(lambda z: -np.expm1(-dilution * beta / z), a, m)))


def _mpmath_k1(x):
    # K_1(x) by its ascending series (Abramowitz & Stegun 9.6.11) at the
    # working precision, plus the digits the series cancels (about x/ln 10);
    # ten times cheaper than mpmath.besselk, which takes integer orders as a
    # limit
    with mpmath.extradps(10 + int(x)):
        x = mpmath.mpf(x)
        q = x * x / 4
        c, s_i, s_k, h, k = mpmath.mpf(1), 0, 0, -mpmath.euler, 1
        while c > mpmath.eps * s_i:
            s_i += c
            s_k += (2 * h + 1 / mpmath.mpf(k)) * c  # (psi(k) + psi(k + 1)) * c
            h += 1 / mpmath.mpf(k)
            c *= q / (k * (k + 1))
            k += 1
        return 1 / x + mpmath.log(x / 2) * x / 2 * s_i - x / 4 * s_k


def _mpmath_slot2(p, s, rho, dilution):
    # the binomial Bessel sum of reference.slot2_bessel_form at 50 digits,
    # where its alternating terms lose nothing
    with mpmath.workdps(50):
        rho = mpmath.mpf(rho)
        lam_sr = mpmath.mpf(s.lambda_sr)
        harvest = lam_sr * s.lambda_re * p.gamma_th * dilution / (p.eta * rho * p.psi)
        info = -lam_sr * p.gamma_th / ((1 - rho) * p.psi)
        acc = mpmath.mpf(1)
        for b in range(1, p.num_sources + 1):
            r = mpmath.sqrt(b * harvest)
            acc += ((-1) ** b * 2 * mpmath.binomial(p.num_sources, b) * mpmath.exp(b * info)
                    * r * _mpmath_k1(2 * r))
        return float(acc)


# The cells of the intercept envelope grid (tests/test_envelope.py: K 1,
# phi 1 dB, eta 0.8, c_th 0.5) at which the intercept routes refused while
# they summed the Bessel form: from these M on (of 1/8/16/24/40/64), per
# deployment and psi (dB), for spsr at rho 0.225, spsr at rho 0.875 and
# dpsr; none at -10 dB.  63 of the 144 cells.
FIRST_CANCELLING_M = {
    ("s1", 10.0): (40, 24, 24), ("s1", 25.0): (24, 16, 16), ("s1", 40.0): (16, 16, 16),
    ("s2", 10.0): (24, 24, 24), ("s2", 25.0): (24, 16, 16), ("s2", 40.0): (16, 16, 16),
}
CANCELLED_CELLS = [(stats, psi_db, m, scheme)
                   for (stats, psi_db), firsts in FIRST_CANCELLING_M.items()
                   for m in (16, 24, 40, 64)
                   for scheme, first in zip(("spsr0.225", "spsr0.875", "dpsr"), firsts)
                   if m >= first]


class TestSlot2KernelMatchesBesselForm:
    """The slot-2 no-intercept factor two ways: the best-source kernel
    conditions on the best gain; the Bessel form of ``reference`` expands
    the best-of-M CDF into M alternating binomial terms.  Where that sum
    keeps its digits (M <= 12) the float form is the oracle, and at the
    cells where it cancels (``CANCELLED_CELLS``) the same sum at 50 digits.
    The kernel must meet its tolerance max(1e-8*|value|, 1e-12) against
    both."""

    RHOS = (0.05, 0.225, 0.5, 0.875, 0.95)
    DILUTIONS = (1.0, 3.0, 30.0, 1e3)

    @staticmethod
    def _close(got, ref, slack=1.0):
        return abs(got - ref) <= slack * max(1e-8 * abs(ref), 1e-12)

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    @pytest.mark.parametrize("psi_db", [-10.0, 0.0, 10.0, 25.0, 40.0])
    def test_matches_the_float_form_where_it_keeps_its_digits(self, request, stats, psi_db):
        # the float form's rounding bound eps*2**M is under 1e-12 here, so
        # the two may differ by the kernel's tolerance plus that
        s = request.getfixturevalue(stats)
        for m in range(1, 13):
            p = make_params(psi_db=psi_db, num_sources=m)
            for rho in self.RHOS:
                for dilution in self.DILUTIONS:
                    ref = slot2_bessel_form(p, s, rho, dilution)
                    got = _kernel_slot2(p, s, rho, dilution)
                    assert self._close(got, ref, slack=2.0), (m, rho, dilution, got, ref)

    def test_series_k1_is_mpmath_besselk_to_50_digits(self):
        with mpmath.workdps(50):
            for x in ("1e-3", "0.3", "2.5", "9", "40"):
                ref = mpmath.besselk(1, mpmath.mpf(x))
                assert abs(_mpmath_k1(mpmath.mpf(x)) / ref - 1) < mpmath.mpf("1e-48"), x

    @pytest.mark.parametrize("stats,psi_db,m,scheme", CANCELLED_CELLS)
    def test_matches_the_sum_at_50_digits_where_it_cancels(self, request, stats, psi_db, m,
                                                           scheme):
        # at every cell the float form refuses at one (rho, D) at least,
        # and the kernel meets its tolerance against the 50-digit sum at all
        s = request.getfixturevalue(stats)
        p = make_params(psi_db=psi_db, num_sources=m)
        rhos = {"spsr0.225": (0.225,), "spsr0.875": (0.875,),
                "dpsr": tuple(core.rho_star(p.eta, np.array([0.3, 3.0])))}[scheme]
        cancelled = 0
        for rho in rhos:
            for dilution in (1.0, 30.0):
                ref = _mpmath_slot2(p, s, rho, dilution)
                got = _kernel_slot2(p, s, rho, dilution)
                assert self._close(got, ref), (rho, dilution, got, ref)
                try:
                    slot2_bessel_form(p, s, rho, dilution)
                except CancellationError:
                    cancelled += 1
        assert cancelled > 0
