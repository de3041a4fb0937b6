import math
import os
import subprocess
import sys
import threading

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
from swipt_plsec.analytic import (
    _gamma_average,
    _slot2_no_intercept,
    dpsr_slot2_factor,
    dpsr_slot2_outage_factor,
    slot1_outage_factor,
    slot2_outage_factor,
)
from swipt_plsec.reference import (
    dpsr_slot2_factor_quadrature,
    dpsr_slot2_kernel,
    intercept_series_term,
    slot1_intercept_probability,
    slot2_outage_factor_quadrature,
)
from swipt_plsec.channel import best_source_cdf, erlang_pdf_xi
from swipt_plsec.specfun import QuadratureSpec, bessel_k, bessel_k1, integrate, sum_series

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

    @pytest.mark.parametrize("no_intercept, ip", [(1.0 + 2 ** -52, 0.0),
                                                  (-1e-14, 1.0)])
    def test_intercept_moves_a_rounding_residue_to_the_end(self, s1, no_intercept, ip):
        p = make_params(psi_db=-10.0)
        q1 = -math.expm1(-p.gamma_th * s1.lambda_se / p.psi)
        value = analytic._intercept(p, s1, lambda x: no_intercept / q1, jamming=False)
        assert value == ip

    @pytest.mark.parametrize("no_intercept", [1.0 + 1e-9, -1e-9, 1.5, math.nan])
    def test_intercept_refuses_a_value_beyond_the_residue(self, s1, no_intercept):
        p = make_params(psi_db=-10.0)
        q1 = -math.expm1(-p.gamma_th * s1.lambda_se / p.psi)
        with pytest.raises(NumericalError, match=r"outside \[0, 1\]") as info:
            analytic._intercept(p, s1, lambda x: no_intercept / q1, jamming=False)
        if math.isnan(no_intercept):
            assert math.isnan(info.value.value)
        else:
            ip = 1.0 - no_intercept
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

    # s1, rho 0.55: from psi 1e-305 gamma_th/psi is finite, but the slot-2
    # Bessel argument overflows at some nodes; a route that meets one names
    # psi, the others return IP's limit 0 to rounding.  At 1e-300 the bits
    # are those the routes had before the argument check.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route,outcomes", [
        (ip_spsr_quadrature, ("0x1.4p-51", "0x1.4p-51", None, None)),
        (ip_spsr_no_jamming, ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", None)),
        (ip_dpsr_quadrature, ("0x1.cp-51", None, None, None)),
        (ip_dpsr_no_jamming, ("0x1.4p-51", "0x1.4p-51", None, None)),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_intercept_names_a_psi_whose_slot2_argument_overflows(self, s1, route, outcomes):
        for psi_db, bits in zip((-3000.0, -3050.0, -3070.0, -3080.0), outcomes):
            p = make_params(psi_db=psi_db, rho=0.55)
            if bits is None:
                with pytest.raises(ValueError, match=rf"psi = {p.psi:g} is too small: "
                                                     "the slot-2 Bessel argument overflows"):
                    route(p, s1)
            else:
                assert route(p, s1).hex() == float.fromhex(bits).hex(), psi_db

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", [op_spsr, op_dpsr], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("psi_db", [-3000.0, -3100.0, -3200.0])
    def test_outage_at_tiny_psi_is_its_limit_without_warnings(self, s1, route, psi_db):
        # the thresholds overflow to inf, where the best-source CDF is 1
        assert route(make_params(psi_db=psi_db, rho=0.55), s1) == 0.9999999999999994


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

    def test_slot1_factor_vanishes_without_dilution(self, s1):
        p = make_params()
        assert slot1_outage_factor(p, s1, 0.0) == 0.0

    def test_slot2_factor_matches_quadrature(self, s1):
        p = make_params(rho=0.55)
        for x in (0.0, 1.0, 5.0):
            closed = slot2_outage_factor(p, s1, x)
            ref = slot2_outage_factor_quadrature(p, s1, x)
            assert closed == pytest.approx(ref, rel=1e-6)

    def test_slot2_factor_kept_where_its_rounding_bound_is_small(self, s1):
        p = make_params(psi_db=10.0, num_sources=16)
        assert slot2_outage_factor(p, s1, 1.0) == pytest.approx(
            slot2_outage_factor_quadrature(p, s1, 1.0), rel=1e-10)

    @pytest.mark.parametrize("m,psi_db", [(60, 10.0), (40, 25.0), (16, 40.0)])
    def test_slot2_factor_refuses_cancelled_sums(self, s1, m, psi_db):
        # at M 60 / 10 dB the binomial sum comes out as -0.121 against 0.0613
        p = make_params(psi_db=psi_db, num_sources=m)
        with pytest.raises(CancellationError) as exc:
            slot2_outage_factor(p, s1, 1.0)
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
        assert slot2_outage_factor(p, s1, 0.0) == pytest.approx(
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

    def test_dpsr_factor_matches_conditional_average(self, s1):
        p = make_params()
        for x in (0.0, 2.0):
            fast = dpsr_slot2_factor(p, s1, x)
            ref = dpsr_slot2_factor_quadrature(p, s1, x)
            assert fast == pytest.approx(ref, rel=1e-6)

    def test_dpsr_conditional_factor_edges(self, s1):
        p = make_params()
        assert dpsr_slot2_outage_factor(p, s1, 1.0, 0.0) == 1.0
        v = dpsr_slot2_outage_factor(p, s1, 1.0, 2.0)
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, np.array([math.nan, 1.0]), np.array([math.inf, 1.0]),
    ], ids=["nan", "inf", "nan-entry", "inf-entry"])
    @pytest.mark.parametrize("factor", [
        lambda p, s, v: slot1_outage_factor(p, s, v),
        lambda p, s, v: slot2_outage_factor(p, s, v),
        lambda p, s, v: dpsr_slot2_outage_factor(p, s, v, 1.0),
        lambda p, s, v: dpsr_slot2_outage_factor(p, s, 1.0, v),
    ], ids=["slot1-x", "slot2-x", "dpsr-x", "dpsr-omega"])
    def test_slot_factors_refuse_non_finite_conditioning_values(self, s1, factor, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            factor(make_params(), s1, bad)

    def test_dpsr_kernel_positive_decreasing_in_x(self, s1):
        p = make_params()
        k0 = dpsr_slot2_kernel(p, s1, 0.0, 1)
        k5 = dpsr_slot2_kernel(p, s1, 5.0, 1)
        assert k0 > k5 > 0


class TestAveragingKernel:
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_slot1_average_is_the_closed_mass(self, s1, k):
        p = make_params(num_jammers=k)
        avg = _gamma_average(lambda x: slot1_outage_factor(p, s1, x), s1.lambda_je, k)
        assert 1.0 - avg == pytest.approx(slot1_intercept_probability(p, s1), rel=1e-12)

    def test_unresolved_integrand_raises_with_its_accuracy(self):
        # a step inside a panel defeats both rules of the Gauss-Kronrod pair
        with pytest.raises(QuadratureError) as exc:
            _gamma_average(lambda x: np.where(x > 1.3, 1.0, 0.0), 1.0, 1)
        assert exc.value.value == pytest.approx(math.exp(-1.3), abs=1e-2)
        assert max(1e-8 * abs(exc.value.value), 1e-12) < exc.value.bound < 1e-1

    def test_nodes_are_built_on_first_use(self):
        # importing the package, resolving a scenario and evaluating a paper
        # form leave the node tables unbuilt
        code = ("import swipt_plsec.analytic as a; from swipt_plsec import resolve_scenario; "
                "from swipt_plsec.reference import op_spsr_closed_form; "
                "from conftest import make_params; "
                "op_spsr_closed_form(make_params(), resolve_scenario('s1')); "
                "print(a._rules.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "0"

    def test_weighted_blocks_are_built_on_first_use(self):
        code = ("import swipt_plsec.analytic as a; from swipt_plsec import resolve_scenario; "
                "from swipt_plsec.reference import op_spsr_closed_form; "
                "from conftest import make_params; "
                "op_spsr_closed_form(make_params(), resolve_scenario('s1')); "
                "print(a._weighted_blocks.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "0"

    def test_weighted_blocks_are_read_only(self):
        nodes, weights, blocks = analytic._weighted_blocks(0.7, 3)
        for b in (blocks[0], blocks[-1]):
            for table in (nodes, weights, nodes[b], weights[b]):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 1.0

    def test_weighted_blocks_are_built_once_per_rate_and_order(self, s1, monkeypatch):
        p = make_params(num_sources=3, rho=0.225)
        first = op_spsr(p, s1)
        mass = _gamma_average(np.ones_like, 0.3141, 1)

        def forbidden(*args):
            raise AssertionError("node tables rebuilt")

        monkeypatch.setattr(analytic, "erlang_pdf_xi", forbidden)
        assert op_spsr(p, s1) == first
        op_dpsr(make_params(num_sources=5, psi_db=25.0), s1)
        assert _gamma_average(np.ones_like, 0.3141, 1) == mass
        with pytest.raises(AssertionError, match="rebuilt"):
            _gamma_average(np.ones_like, 0.3141, 2)

    @staticmethod
    def _both_layouts(f, lam, k):
        # (one integrand call over every node, one call per block), as bits
        # or as the error each raises
        out = []
        for flat in (True, False):
            try:
                out.append(float(_gamma_average(f, lam, k, flat=flat)).hex())
            except (QuadratureError, CancellationError) as exc:
                out.append((type(exc), str(exc), dict(vars(exc))))
        return out

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    def test_one_call_average_equals_the_block_sums(self, request, stats):
        s = request.getfixturevalue(stats)
        thresholds = ((analytic._spsr_threshold, 0.225), (analytic._spsr_threshold, 0.875),
                      (analytic._dpsr_threshold, 0.5))
        misses = []
        for psi_db in (-10.0, 10.0, 25.0, 40.0):
            for m in range(1, 65):
                for thr, rho in thresholds:
                    p = make_params(psi_db=psi_db, rho=rho, num_sources=m)
                    flat, blocked = self._both_layouts(
                        lambda x: (-np.expm1(-s.lambda_sr * thr(p, x))) ** m, s.lambda_rd, 1)
                    if flat != blocked:
                        misses.append((thr.__name__, psi_db, m, rho))
        assert not misses

    @pytest.mark.parametrize("m", [2, 24])
    def test_one_call_average_raises_as_the_blocks_do(self, s1, m):
        # the static intercept average, which refuses for cancellation at
        # M 24 and high power, and an unresolved step
        refused = 0
        for psi_db in (0.0, 10.0, 40.0):
            for k in (1, 4, 8):
                p = make_params(psi_db=psi_db, rho=0.225, num_sources=m, num_jammers=k)
                flat, blocked = self._both_layouts(
                    lambda x: slot1_outage_factor(p, s1, x) * slot2_outage_factor(p, s1, x),
                    s1.lambda_je, k)
                assert flat == blocked, (psi_db, k)
                refused += flat[0] is CancellationError
        assert (refused > 0) == (m == 24)
        flat, blocked = self._both_layouts(lambda x: np.where(x > 1.3, 1.0, 0.0), 1.0, 1)
        assert flat == blocked and flat[0] is QuadratureError

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
    def _largest_estimate(monkeypatch, cells):
        # the largest Gauss-Kronrod estimate over the cells, in units of its
        # tolerance max(rel_tol*|value|, abs_tol); every cell must be accepted
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
        assert len(ratios) == len(cells)
        return max(ratios)

    def test_outage_estimates_keep_their_headroom(self, s1, s2, dense_stats, monkeypatch):
        # width-1 panels resolve every OP cell of the envelope grid with the
        # estimate at most a tenth of its tolerance
        cells = [(route, make_params(psi_db=psi_db, rho=rho, num_sources=m), s)
                 for s in (s1, s2, dense_stats) for psi_db in (-10.0, 10.0, 25.0, 40.0)
                 for m in range(1, 65)
                 for route, rho in ((op_spsr, 0.225), (op_spsr, 0.875), (op_dpsr, 0.5))]
        assert len(cells) == 2304
        assert self._largest_estimate(monkeypatch, cells) <= 0.1

    def test_static_intercept_estimates_keep_their_headroom(self, s1, s2, dense_stats,
                                                            monkeypatch):
        cells = [(ip_spsr_quadrature, make_params(psi_db=psi_db, rho=rho, num_sources=m,
                                                  num_jammers=k), s)
                 for s in (s1, s2, dense_stats) for psi_db in (-10.0, 0.0, 10.0, 25.0, 40.0)
                 for m in (1, 2, 4, 8, 12) for k in (1, 4) for rho in (0.225, 0.875)]
        assert len(cells) == 300
        assert self._largest_estimate(monkeypatch, cells) <= 0.1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_nested_dpsr_average_keeps_its_blocks(self, s1, monkeypatch, cpus):
        # the outer average and the inner one per outer block both call their
        # integrand on at most one block of nodes, whether spread or inline
        sizes = []
        factor = analytic.dpsr_slot2_outage_factor
        slot1 = analytic.slot1_outage_factor

        def recorded_factor(p, s, x, omega):
            sizes.append(("inner", np.broadcast(x, omega).size))
            return factor(p, s, x, omega)

        def recorded_slot1(p, s, x):
            sizes.append(("outer", np.size(x)))
            return slot1(p, s, x)

        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(analytic, "dpsr_slot2_outage_factor", recorded_factor)
        monkeypatch.setattr(analytic, "slot1_outage_factor", recorded_slot1)
        ip_dpsr_quadrature(make_params(num_jammers=4), s1)
        assert max(n for kind, n in sizes if kind == "outer") == analytic._BLOCK
        assert max(n for kind, n in sizes if kind == "inner") == analytic._BLOCK ** 2
        # one outer call per block, and per outer block one inner call per block
        outer = len(analytic._weighted_blocks(s1.lambda_je, 4)[2])
        inner = len(analytic._weighted_blocks(s1.lambda_rd, 1)[2])
        assert len(sizes) == outer + outer * inner

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


def _rebuilt_gamma_average(f, lam, k, spec):
    # the G10/K21 averaging kernel with its node tables rebuilt on every call:
    # the pair mapped onto each width-1 panel, the Kronrod and Gauss weights
    # Erlang-weighted side by side, and the two sums of each block added in
    # block order
    t, wk, wg = analytic._rules()
    edges = analytic._PANEL_EDGES
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    x = np.exp((mid + half * t).ravel()) / lam
    wx = (np.stack([(half * wk).ravel(), (half * wg).ravel()], axis=1)
          * (x * erlang_pdf_xi(x, lam, k))[:, None])
    step = analytic._BLOCK
    kronrod, gauss = sum(f(x[i:i + step]).dot(wx[i:i + step]) for i in range(0, x.size, step))
    err = abs(kronrod - gauss)
    if not err <= max(spec.rel_tol * abs(kronrod), spec.abs_tol):
        raise QuadratureError("", float(kronrod), float(err))
    return float(kronrod)


class TestCachedKernelOracle:
    """The sweep's OP and IP kernel routes return the bits of the G10/K21
    kernel rebuilt on every call, which checks its outage integrand through
    ``best_source_cdf`` block by block."""

    @staticmethod
    def _bits(v):
        return float(v).hex()

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    def test_outage_routes_match_the_rebuilt_kernel(self, request, stats):
        s = request.getfixturevalue(stats)
        quad = AnalyticConfig().quad
        cells = ((op_spsr, analytic._spsr_threshold, 0.225),
                 (op_spsr, analytic._spsr_threshold, 0.875),
                 (op_dpsr, analytic._dpsr_threshold, 0.5))
        misses = []
        for psi_db in (-10.0, 10.0, 25.0, 40.0):
            for m in range(1, 65):
                for route, thr, rho in cells:
                    p = make_params(psi_db=psi_db, rho=rho, num_sources=m)
                    ref = _rebuilt_gamma_average(
                        lambda x: best_source_cdf(thr(p, x), s.lambda_sr, m),
                        s.lambda_rd, 1, quad)
                    if self._bits(route(p, s)) != self._bits(ref):
                        misses.append((route.__name__, psi_db, m, rho))
        assert not misses

    @pytest.mark.parametrize("rho", [0.225, 0.875])
    def test_static_intercept_matches_the_rebuilt_kernel(self, s1, rho):
        # the tables are cached per Erlang order, so each K must get its own
        for psi_db in (0.0, 10.0, 25.0):
            for k in (1, 4, 8):
                p = make_params(psi_db=psi_db, rho=rho, num_jammers=k)
                ref = 1.0 - _rebuilt_gamma_average(
                    lambda x: slot1_outage_factor(p, s1, x) * slot2_outage_factor(p, s1, x),
                    s1.lambda_je, k, AnalyticConfig().quad)
                assert self._bits(ip_spsr_quadrature(p, s1)) == self._bits(ref), (psi_db, k)


def _every_term_slot2_no_intercept(p, s, rho, dilution, k1=bessel_k1):
    # the slot-2 closed form as first written, every term evaluated, with
    # ``k1`` for K_1; returns the value and its rounding bound
    # eps*(1 + sum |terms|), or raises with both where the value is not
    # finite or the bound is not within the tolerance
    rho = np.asarray(rho, dtype=float)
    harvest = s.lambda_sr * s.lambda_re * p.gamma_th / (p.eta * p.psi) * (dilution / rho)
    with np.errstate(divide="ignore"):
        info = -s.lambda_sr * p.gamma_th / ((1.0 - rho) * p.psi)
    acc = 1.0
    magnitude = 1.0
    for b in range(1, p.num_sources + 1):
        coef = (-1.0) ** b * math.comb(p.num_sources, b)
        r = np.sqrt(b * harvest)
        term = 2.0 * coef * np.exp(b * info) * r * k1(2.0 * r)
        acc += term
        magnitude += np.abs(term)
    spec = AnalyticConfig().quad
    bound = np.finfo(float).eps * magnitude
    bad = ~(np.isfinite(acc) & (bound <= np.maximum(spec.rel_tol * np.abs(acc), spec.abs_tol)))
    if np.any(bad):
        i = np.argmax(np.ravel(bad))
        raise CancellationError("", float(np.ravel(acc)[i]), float(np.ravel(bound)[i]))
    return acc, bound


def _kv_slot2_no_intercept(p, s, rho, dilution):
    # the loop as first written, with kv(1, .) for K_1
    return _every_term_slot2_no_intercept(p, s, rho, dilution, lambda z: bessel_k(1, z))


class TestSlot2KernelMatchesKv:
    """``_slot2_no_intercept`` evaluates K_1 by Cephes ``k1``; the ``kv(1, .)``
    loop it replaced is the oracle.  The two agree to 1e-13 relative up to
    the rounding bound of the alternating sum: ulp-level differences of the
    terms survive the cancellation (at M = 12 and psi = 40 dB they reach
    3e-8 relative on values near 1e-5, 1.5 bounds).  Past M = 12 both must
    refuse the same cells."""

    RHOS = np.array([0.05, 0.225, 0.5, 0.875, 0.95])
    DILUTIONS = np.array([1.0, 3.0, 30.0, 1e3])

    @staticmethod
    def _close(got, ref, bound):
        return np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + 2.0 * bound)

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    @pytest.mark.parametrize("psi_db", [-10.0, 0.0, 10.0, 25.0, 40.0])
    def test_agrees_with_kv_loop(self, request, stats, psi_db):
        s = request.getfixturevalue(stats)
        for m in range(1, 13):
            p = make_params(psi_db=psi_db, num_sources=m)
            args = (p, s, self.RHOS[:, None], self.DILUTIONS)
            assert self._close(_slot2_no_intercept(*args), *_kv_slot2_no_intercept(*args)), m

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    @pytest.mark.parametrize("m", [16, 24, 40])
    def test_refuses_the_same_cells_as_kv_loop(self, request, stats, m):
        s = request.getfixturevalue(stats)
        refused = 0
        for psi_db in (10.0, 25.0, 40.0):
            p = make_params(psi_db=psi_db, num_sources=m)
            for rho in self.RHOS:
                for dilution in self.DILUTIONS:
                    try:
                        ref, bound = _kv_slot2_no_intercept(p, s, rho, dilution)
                    except CancellationError:
                        refused += 1
                        with pytest.raises(CancellationError):
                            _slot2_no_intercept(p, s, rho, dilution)
                        continue
                    assert self._close(_slot2_no_intercept(p, s, rho, dilution), ref, bound)
        assert refused > 0


def _omega_blocks(s):
    # the relay-to-destination node blocks, as the nested average hands them
    # to the slot-2 factor
    nodes, _, blocks = analytic._weighted_blocks(s.lambda_rd, 1)
    return [nodes[b] for b in blocks]


class TestSlot2SkipIsExact:
    """``_slot2_no_intercept`` skips ``sqrt`` and K_1 where the prefactor
    exp(b*info) underflows to 0.  The loop over every term is the oracle: the
    values, and the value and bound of every refusal, must be its bits.  On
    the node blocks K_1 must also see every entry whose prefactor is not 0,
    tiny ones included: skipping those would change no bit here (their
    terms fall below an ulp of a value near 1), so only the count tells an
    exact skip from a truncation."""

    DILUTIONS = np.array([1.0, 3.0, 30.0, 1e3])[:, None]

    @staticmethod
    def _counting_k1(monkeypatch):
        sizes = []

        def k1(z):
            sizes.append(np.size(z))
            return bessel_k1(z)

        monkeypatch.setattr(analytic, "bessel_k1", k1)
        return sizes

    @staticmethod
    def _live_count(p, s, rho, rows):
        info = -s.lambda_sr * p.gamma_th / ((1.0 - rho) * p.psi)
        return rows * sum(int(np.count_nonzero(np.exp(b * info) > 0))
                          for b in range(1, p.num_sources + 1))

    @staticmethod
    def _outcome(fn, *args):
        try:
            got = fn(*args)
        except CancellationError as exc:
            return ("refused", float(exc.value).hex(), float(exc.bound).hex())
        except ValueError as exc:
            return ("error", str(exc))
        if isinstance(got, tuple):
            got = got[0]
        return ("value", type(got), np.shape(got), np.asarray(got).tobytes())

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    @pytest.mark.parametrize("psi_db", [-10.0, 0.0, 10.0, 25.0, 40.0])
    def test_node_blocks_match_every_term_loop(self, request, monkeypatch, stats, psi_db):
        s = request.getfixturevalue(stats)
        sizes = self._counting_k1(monkeypatch)
        skipped = 0
        for m in range(1, 13):
            p = make_params(psi_db=psi_db, num_sources=m)
            for omega in _omega_blocks(s):
                rho = core.rho_star(p.eta, omega)
                args = (p, s, rho, self.DILUTIONS)
                ref = self._outcome(_every_term_slot2_no_intercept, *args)
                sizes.clear()
                assert self._outcome(_slot2_no_intercept, *args) == ref, (m, omega[0])
                live = self._live_count(p, s, rho, self.DILUTIONS.size)
                assert sum(sizes) == live, (m, omega[0])
                skipped += m * rho.size * self.DILUTIONS.size - live
        assert skipped > 0

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    @pytest.mark.parametrize("psi_db", [-10.0, 0.0, 10.0, 25.0, 40.0])
    def test_scalar_inputs_and_rho_one_match_every_term_loop(self, request, stats, psi_db):
        # fixed rho with x = 0 (dilution 1) as a float and as a 0-d array,
        # and rho = 1, where every prefactor is 0
        s = request.getfixturevalue(stats)
        for m in range(1, 13):
            p = make_params(psi_db=psi_db, num_sources=m)
            for rho, dilution in ((0.225, 1.0), (0.875, np.asarray(1.0)), (0.05, 1e3),
                                  (1.0, 1.0), (1.0, self.DILUTIONS)):
                args = (p, s, rho, dilution)
                assert (self._outcome(_slot2_no_intercept, *args)
                        == self._outcome(_every_term_slot2_no_intercept, *args)), (m, rho)

    @pytest.mark.parametrize("rho,dilution", [
        (1.0 - 1e-6, [np.nan, 1.0]), (1.0 - 1e-6, [np.inf, 1.0]),
        (1.0 - 1e-6, [0.0, 1.0]), (0.0, [1.0, 3.0])])
    def test_harvest_outside_the_open_half_line_evaluates_every_term(self, s1, rho, dilution):
        # every prefactor is 0 at rho near 1, but a NaN, infinite or zero
        # harvest makes its term NaN, which is refused, or K_1 refuse, in the
        # every-term loop; rho = 0 gives an infinite harvest at live prefactors
        p = make_params(psi_db=0.0, num_sources=3)
        args = (p, s1, rho, np.array(dilution))
        with np.errstate(all="ignore"):
            ref = self._outcome(_every_term_slot2_no_intercept, *args)
            assert self._outcome(_slot2_no_intercept, *args) == ref
        assert ref[0] == "error" or (ref[0] == "refused" and math.isnan(float.fromhex(ref[1])))

    @pytest.mark.parametrize("stats", ["s1", "s2"])
    @pytest.mark.parametrize("m", [16, 24, 40])
    def test_refuses_the_cells_of_every_term_loop(self, request, stats, m):
        s = request.getfixturevalue(stats)
        refused = 0
        for psi_db in (10.0, 25.0, 40.0):
            p = make_params(psi_db=psi_db, num_sources=m)
            for omega in _omega_blocks(s):
                args = (p, s, core.rho_star(p.eta, omega), self.DILUTIONS)
                ref = self._outcome(_every_term_slot2_no_intercept, *args)
                assert self._outcome(_slot2_no_intercept, *args) == ref, (psi_db, omega[0])
                refused += ref[0] == "refused"
        assert refused > 0

    @pytest.mark.parametrize("psi_db,expected", [(0.0, 776_160), (10.0, 938_280)])
    def test_dpsr_average_hands_k1_only_live_terms(self, s1, monkeypatch, psi_db, expected):
        # every outer aggregate node meets every live (b, gain node) pair
        # once; the every-term loop would hand K_1 2 * 840 * 840 elements
        p = make_params(psi_db=psi_db, num_sources=2, num_jammers=1)
        gains = analytic._weighted_blocks(s1.lambda_rd, 1)[0]
        outer = analytic._weighted_blocks(s1.lambda_je, 1)[0].size
        live = self._live_count(p, s1, core.rho_star(p.eta, gains), outer)
        sizes = self._counting_k1(monkeypatch)
        ip_dpsr_quadrature(p, s1)
        assert sum(sizes) == live == expected < 2 * gains.size * outer


class TestBlockThreads:
    """The outer average of ``ip_dpsr_quadrature`` maps its node blocks over
    up to ``core.usable_cpus()`` threads; values and errors must not depend on
    how many."""

    @staticmethod
    def _run(monkeypatch, cpus, fn):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose shared state
        try:
            return fn()
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _outcome(fn):
        try:
            return ("value", np.asarray(fn()).tobytes())
        except (QuadratureError, CancellationError) as exc:
            return (type(exc), str(exc), dict(vars(exc)))

    @pytest.mark.parametrize("psi_db,m,k", [(0.0, 2, 1), (10.0, 3, 4), (40.0, 24, 1)])
    def test_bits_and_errors_independent_of_thread_count(self, s1, monkeypatch, psi_db, m, k):
        p = make_params(psi_db=psi_db, num_sources=m, num_jammers=k)
        routes = [lambda: ip_dpsr_quadrature(p, s1),
                  lambda: ip_spsr_quadrature(make_params(psi_db=psi_db, num_sources=m,
                                                         num_jammers=k, rho=0.225), s1),
                  lambda: dpsr_slot2_factor(p, s1, np.array([0.0, 0.5, 4.0]))]
        serial, *threaded = ([self._run(monkeypatch, cpus, lambda: self._outcome(r))
                              for r in routes] for cpus in (1, 2, 4))
        assert threaded == [serial, serial]
        if m == 24:  # the slot-2 closed form refuses inside a block
            assert serial[0][0] is CancellationError

    def test_first_failing_block_in_order_propagates(self, monkeypatch):
        # several blocks raise, each with its own fields; the serial path
        # meets the lowest node first, and so must the threaded one
        def f(x):
            if x[-1] > 0.05:
                raise QuadratureError(f"block ending at {x[-1]!r}", float(x[0]), float(x[-1]))
            return np.ones_like(x)

        serial = self._outcome(lambda: _gamma_average(f, 1.0, 1))
        assert serial[0] is QuadratureError
        for cpus in (1, 4):
            assert self._run(monkeypatch, cpus, lambda: self._outcome(
                lambda: _gamma_average(f, 1.0, 1, spread=True))) == serial

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_in_flight_blocks_capped_and_pools_not_nested(self, s1, monkeypatch, cpus):
        lock = threading.Lock()
        idents, pools = set(), []
        in_flight = peak = 0
        factor = analytic.dpsr_slot2_factor
        executor = core.ThreadPoolExecutor

        def recorded_factor(*args):
            nonlocal in_flight, peak
            with lock:
                idents.add(threading.get_ident())
                in_flight += 1
                peak = max(peak, in_flight)
            try:
                return factor(*args)
            finally:
                with lock:
                    in_flight -= 1

        def recorded_executor(*args, **kwargs):
            pools.append(threading.get_ident())
            return executor(*args, **kwargs)

        monkeypatch.setattr(analytic, "dpsr_slot2_factor", recorded_factor)
        monkeypatch.setattr(core, "ThreadPoolExecutor", recorded_executor)
        p = make_params(num_jammers=4)
        self._run(monkeypatch, cpus, lambda: (ip_dpsr_quadrature(p, s1),
                                              ip_spsr_quadrature(make_params(rho=0.225), s1)))
        main = threading.get_ident()
        assert peak <= cpus and len(idents) <= cpus
        if cpus == 1:
            assert idents == {main} and pools == []
        else:
            assert pools == [main]  # one pool, for the outer dpsr average only
