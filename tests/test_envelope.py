"""Every production route over the declared parameter envelope returns a
probability or refuses with a reason.

The envelope: the packaged deployments s1 and s2 and the dense-link
statistics; psi -10..40 dB, M 1..64, K 1..8, rho in (0, 1), phi -10..10 dB
and a target rate of 0.25..1 bits/s/Hz.  The six analytic routes of a sweep
and a short Monte-Carlo run of both schemes are called at each drawn point;
a RuntimeWarning (numpy's overflow, divide or invalid-value warning) fails
the test, since a route that raises one may be returning garbage.  On a
fixed grid of high power and many sources every intercept cell is a
probability, and the static ones match a nested adaptive quadrature.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from swipt_plsec import (
    CancellationError,
    NumericalError,
    QuadratureSpec,
    SimConfig,
    ip_dpsr_no_jamming,
    ip_dpsr_quadrature,
    ip_spsr_no_jamming,
    ip_spsr_quadrature,
    op_dpsr,
    op_spsr,
    simulate_point,
)
from swipt_plsec.reference import slot2_outage_factor_quadrature
from swipt_plsec.specfun import integrate

from conftest import make_params

ROUTES = (op_spsr, op_dpsr, ip_spsr_quadrature, ip_dpsr_quadrature,
          ip_spsr_no_jamming, ip_dpsr_no_jamming)

envelope = dict(
    stats=st.sampled_from(("s1", "s2", "dense_stats")),
    psi_db=st.floats(-10.0, 40.0),
    num_sources=st.integers(1, 64),
    num_jammers=st.integers(1, 8),
    rho=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    phi_db=st.floats(-10.0, 10.0),
    c_th=st.floats(0.25, 1.0),
)


def _check_probability(value):
    assert isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0, value


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(**envelope)
# the smallest rho makes the slot-2 scale beta (and the outage threshold
# kappa) overflow: slot 2 is never intercepted, and outage is certain
@example(stats="s1", psi_db=-10.0, num_sources=1, num_jammers=1, rho=5e-324, phi_db=0.0,
         c_th=0.25)
# rho next to 1: the source-side threshold a is about 1e17, so every
# best-source average is 0 and IP the slot-1 mass
@example(stats="s1", psi_db=-10.0, num_sources=37, num_jammers=7, rho=1 - 2 ** -53,
         phi_db=0.24983911025395145, c_th=0.945092068724532)
# high power and many sources, where the binomial Bessel form of the slot-2
# factor used to cancel and the intercept routes refused
@example(stats="s1", psi_db=40.0, num_sources=64, num_jammers=8, rho=0.875, phi_db=10.0,
         c_th=0.5)
def test_every_route_returns_a_probability_or_a_reason(s1, s2, dense_stats, stats, psi_db,
                                                       num_sources, num_jammers, rho, phi_db,
                                                       c_th):
    s = {"s1": s1, "s2": s2, "dense_stats": dense_stats}[stats]
    p = make_params(psi_db=psi_db, rho=rho, phi_db=phi_db, num_sources=num_sources,
                    num_jammers=num_jammers, c_th=c_th)
    for route in ROUTES:
        try:
            _check_probability(route(p, s))
        except NumericalError as exc:
            assert str(exc), route.__name__
            # no route sums alternating terms, so none can cancel
            assert not isinstance(exc, CancellationError), (route.__name__, exc)
            # a refusal carries the value it reached and the error bound it missed
            assert math.isfinite(exc.value) and math.isfinite(exc.bound), (route.__name__, exc)
        except ValueError as exc:
            assert str(exc), route.__name__
    for model in (p, replace(p, phi=0.0)):  # the jammers on, then silent
        estimates = simulate_point(model, s, SimConfig(trials=500, seed=3),
                                   [("spsr", rho), ("dpsr", rho)])
        for pair in estimates:
            for est in pair:
                _check_probability(est.estimate)
                assert math.isfinite(est.ci_halfwidth)


def _nested_no_intercept(p, s):
    # 1 - IP for one jammer by nested adaptive quadrature: the slot-1 miss
    # probability 1 - exp(-c x) times the slot-2 factor quadrature, averaged
    # over the jammer's gain x ~ Exp(lambda_je)
    c = p.gamma_th * s.lambda_se * p.phi / p.psi

    def f(x):
        return (-math.expm1(-c * x) * slot2_outage_factor_quadrature(p, s, x)
                * s.lambda_je * math.exp(-s.lambda_je * x))

    value, _ = integrate(f, QuadratureSpec(), points=(1.0 / c, 1.0 / s.lambda_je))
    return value


# On this grid (K 1, phi 1 dB, eta 0.8, c_th 0.5) the binomial Bessel form of
# the slot-2 factor cancelled beyond its rounding bound at 63 of the 144
# cells, from M 16 on at 10-40 dB; conditioned on the best source gain,
# nothing cancels (tests/test_analytic.py checks the slot-2 factor at those
# cells against the Bessel sum at 50 digits).  18 cells per deployment and psi.
@pytest.mark.parametrize("stats", ["s1", "s2"])
@pytest.mark.parametrize("psi_db", [-10.0, 10.0, 25.0, 40.0])
def test_intercept_covers_the_cells_where_the_bessel_form_cancelled(request, stats, psi_db):
    s = request.getfixturevalue(stats)
    for m in (1, 8, 16, 24, 40, 64):
        for route, rho in ((ip_spsr_quadrature, 0.225), (ip_spsr_quadrature, 0.875),
                           (ip_dpsr_quadrature, 0.5)):
            p = make_params(psi_db=psi_db, rho=rho, num_sources=m)
            ip = route(p, s)
            cell = (m, route.__name__, rho, ip)
            assert 0.0 <= ip <= 1.0, cell
            if route is ip_spsr_quadrature:  # the reference converges at each
                assert 1.0 - ip == pytest.approx(_nested_no_intercept(p, s), rel=1e-6), cell
