"""Every production route over the declared parameter envelope returns a
probability or refuses with a reason.

The envelope: the packaged deployments s1 and s2 and the dense-link
statistics; psi -10..40 dB, M 1..64, K 1..8, rho in (0, 1), phi -10..10 dB
and a target rate of 0.25..1 bits/s/Hz.  The six analytic routes of a sweep
and a short Monte-Carlo run of both schemes are called at each drawn point;
a RuntimeWarning (numpy's overflow, divide or invalid-value warning) fails
the test, since a route that raises one may be returning garbage.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from swipt_plsec import (
    NumericalError,
    SimConfig,
    ip_dpsr_no_jamming,
    ip_dpsr_quadrature,
    ip_spsr_no_jamming,
    ip_spsr_quadrature,
    op_dpsr,
    op_spsr,
    simulate_point,
)

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
# the smallest rho makes dilution/rho overflow: refused, naming psi and rho
@example(stats="s1", psi_db=-10.0, num_sources=1, num_jammers=1, rho=5e-324, phi_db=0.0,
         c_th=0.25)
# rho next to 1: the no-intercept average exceeds 1 by a rounding residue
@example(stats="s1", psi_db=-10.0, num_sources=37, num_jammers=7, rho=1 - 2 ** -53,
         phi_db=0.24983911025395145, c_th=0.945092068724532)
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
            # a refusal carries the value it reached and the error bound it missed
            assert math.isfinite(exc.value) and math.isfinite(exc.bound), (route.__name__, exc)
        except ValueError as exc:
            assert str(exc), route.__name__
    for jamming in (True, False):
        estimates = simulate_point(p, s, SimConfig(trials=500, seed=3, jamming=jamming),
                                   [("spsr", rho), ("dpsr", rho)])
        for pair in estimates:
            for est in pair:
                _check_probability(est.estimate)
                assert math.isfinite(est.ci_halfwidth)
