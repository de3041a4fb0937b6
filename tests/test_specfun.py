import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from swipt_plsec.specfun import (
    QuadratureError,
    QuadratureSpec,
    SeriesNotConverged,
    bessel_k,
    gamma_fn,
    integrate,
    meijer_g3013,
    sum_series,
)


class TestGamma:
    def test_unit(self):
        assert gamma_fn(1.0) == 1.0

    def test_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_integer_vs_quadrature(self):
        # oracle: direct quadrature of the defining integral
        value, _ = integrate(lambda t: t ** 1.5 * math.exp(-t),
                             QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12), points=(1.5,))
        assert gamma_fn(2.5) == pytest.approx(value, rel=1e-9)

    def test_nonpositive_rejected(self):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                gamma_fn(x)


class TestBesselK:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_half_order_closed_form(self, z):
        assert bessel_k(0.5, z) == pytest.approx(
            math.sqrt(math.pi / (2 * z)) * math.exp(-z), rel=1e-12)

    def test_k1_vs_integral_representation(self):
        # oracle: K_v(z) = int_0^inf exp(-z cosh t) cosh(v t) dt; the tail
        # beyond t = 30 is below exp(-exp(29)) and the truncation exact
        def rep(v, z):
            val, _ = integrate(lambda t: math.exp(-z * math.cosh(t)) * math.cosh(v * t),
                               QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14, upper=30.0))
            return val
        assert bessel_k(1.0, 1.0) == pytest.approx(rep(1.0, 1.0), rel=1e-9)
        assert bessel_k(2.0, 3.0) == pytest.approx(rep(2.0, 3.0), rel=1e-9)

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_order_reflection(self, z):
        assert bessel_k(-1.0, z) == pytest.approx(bessel_k(1.0, z), rel=1e-14)

    def test_positive_decreasing(self):
        z = np.linspace(0.05, 20, 300)
        k = bessel_k(1.0, z)
        assert np.all(k > 0)
        assert np.all(np.diff(k) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, -2.0)

    @pytest.mark.parametrize("z", [2.5, np.float64(2.5), np.float32(2.5)])
    def test_float_argument_gives_the_array_bits(self, z):
        # floats skip the array round trip of the domain check
        got = bessel_k(1.0, z)
        assert type(got) is float
        assert got == bessel_k(1.0, np.array([z]))[0]
        for bad in (type(z)(0.0), type(z)(-1.0)):
            with pytest.raises(ValueError, match="bessel_k requires z > 0"):
                bessel_k(1.0, bad)

    def test_nan_passes_through(self):
        assert math.isnan(bessel_k(1.0, math.nan))


class TestIntegrate:
    def test_unit_exponential(self):
        value, err = integrate(lambda x: math.exp(-x), QuadratureSpec())
        assert value == pytest.approx(1.0, abs=1e-10)
        assert err < 1e-8

    def test_reciprocal_exponential_closed_form(self):
        # oracle: int_0^inf exp(-a/x - b x) dx = 2 sqrt(a/b) K_1(2 sqrt(a b))
        a = b = 1.0
        value, _ = integrate(lambda x: math.exp(-a / x - b * x) if x > 0 else 0.0,
                             QuadratureSpec(), points=(math.sqrt(a / b),))
        assert value == pytest.approx(2.0 * bessel_k(1.0, 2.0), rel=1e-9)

    def test_gamma_moment_closed_form(self):
        # oracle: int_0^inf x^{k-1} exp(-lam x) dx = Gamma(k) / lam^k
        k, lam = 3, 2.0
        value, _ = integrate(lambda x: x ** (k - 1) * math.exp(-lam * x),
                             QuadratureSpec(), points=(k / lam,))
        assert value == pytest.approx(gamma_fn(k) / lam ** k, rel=1e-10)

    def test_reciprocal_exponential_family(self):
        # 200 random (a, b): closed form against quadrature to 1e-7 relative
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-2, 1, size=2)
            value, _ = integrate(lambda x, a=a, b=b: math.exp(-a / x - b * x) if x > 0 else 0.0,
                                 QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13),
                                 points=(math.sqrt(a / b),))
            closed = 2.0 * math.sqrt(a / b) * bessel_k(1.0, 2.0 * math.sqrt(a * b))
            assert value == pytest.approx(closed, rel=1e-7)

    def test_finite_interval(self):
        value, _ = integrate(lambda x: x * x, QuadratureSpec(lower=0.0, upper=2.0))
        assert value == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_nan_integrand_flagged(self):
        with pytest.raises(QuadratureError, match="NaN"):
            integrate(lambda x: math.nan, QuadratureSpec())

    def test_missed_budget_raises_with_value_and_bound(self):
        # a step inside the one allowed subinterval defeats quad's estimate
        spec = QuadratureSpec(lower=0.0, upper=1.0, max_subdivisions=1)
        with pytest.raises(QuadratureError, match="quadrature reached error") as exc:
            integrate(lambda x: 1.0 if x > 0.3 else 0.0, spec)
        assert exc.value.value == pytest.approx(0.7, abs=0.1)
        assert exc.value.bound > max(spec.rel_tol * abs(exc.value.value), spec.abs_tol)

    def test_error_estimates_conservative(self):
        # reported error must bound the true error in at least 99 of 100 cases
        rng = np.random.default_rng(57)
        hits = 0
        for _ in range(100):
            kind = rng.integers(3)
            if kind == 0:
                b = 10.0 ** rng.uniform(-1, 1)
                truth = 1.0 / b
                value, err = integrate(lambda x, b=b: math.exp(-b * x), QuadratureSpec())
            elif kind == 1:
                k = int(rng.integers(1, 6))
                b = 10.0 ** rng.uniform(-1, 1)
                truth = gamma_fn(k) / b ** k
                value, err = integrate(lambda x, k=k, b=b: x ** (k - 1) * math.exp(-b * x),
                                       QuadratureSpec(), points=(k / b,))
            else:
                a, b = 10.0 ** rng.uniform(-1.5, 0.5, size=2)
                truth = 2.0 * math.sqrt(a / b) * bessel_k(1.0, 2.0 * math.sqrt(a * b))
                value, err = integrate(lambda x, a=a, b=b: math.exp(-a / x - b * x) if x > 0 else 0.0,
                                       QuadratureSpec(), points=(math.sqrt(a / b),))
            if err >= abs(value - truth):
                hits += 1
        assert hits >= 99


    def test_scipy_integrate_is_imported_on_first_use(self, tmp_path):
        # a sweep fills every column without adaptive quadrature, so it never
        # pays for importing scipy.integrate; the reference routes still can
        code = (
            "import math, sys; from swipt_plsec.cli import main; "
            "rc = main(['sweep', '--scenario', 's1', '--sweep', 'psi_db:10:10:1', "
            "'--outputs', 'both', '--scheme', 'spsr,dpsr', '--trials', '400', "
            "'--output', sys.argv[1]]); "
            "print(rc, 'scipy.integrate' in sys.modules); "
            "from swipt_plsec.specfun import integrate; "
            "print(integrate(lambda x: math.exp(-x))[0])")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.csv")],
                             capture_output=True, text=True, check=True, env=env)
        swept, integrated = out.stdout.splitlines()[-2:]
        assert swept == "0 False"
        assert float(integrated) == pytest.approx(1.0, rel=1e-12)


    def test_scipy_special_is_imported_on_first_use(self, tmp_path):
        # an outage-only sweep calls no special function, so importing the
        # CLI and running it leaves scipy.special unimported; the Bessel
        # kernel still imports it when first called
        code = (
            "import sys; from swipt_plsec.cli import main; "
            "rc = main(['sweep', '--scenario', 's1', '--sweep', 'M:1:3:1', "
            "'--outputs', 'op', '--scheme', 'spsr,dpsr', '--rho', '0.225', "
            "'--trials', '400', '--output', sys.argv[1]]); "
            "print(rc, 'scipy.special' in sys.modules); "
            "from swipt_plsec.specfun import bessel_k; "
            "print(bessel_k(1, 1.0), 'scipy.special' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.csv")],
                             capture_output=True, text=True, check=True, env=env)
        swept, called = out.stdout.splitlines()[-2:]
        assert swept == "0 False"
        value, imported = called.split()
        assert float(value) == pytest.approx(0.6019072301972346, rel=1e-14)
        assert imported == "True"


class TestMeijerInstance:
    @pytest.mark.parametrize("z,t,k", [(0.5, 0, 1), (1.0, 1, 1), (2.0, 0, 2), (0.7, 2, 1)])
    def test_against_mpmath(self, z, t, k):
        # independent oracle: mpmath's hypergeometric-series G evaluation
        ours = meijer_g3013(z, -(t + k))
        ref = float(mpmath.meijerg([[], [0]], [[-t - k, 1, 0], []], z))
        assert ours == pytest.approx(ref, rel=1e-8)

    def test_decay_for_large_argument(self):
        values = [meijer_g3013(z, -1) for z in (10.0, 20.0, 50.0)]
        assert values[0] > values[1] > values[2] > 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            meijer_g3013(-1.0, -1)
        with pytest.raises(ValueError):
            meijer_g3013(1.0, -0.5)
        with pytest.raises(ValueError):
            meijer_g3013(1.0, 1)


class TestSumSeries:
    def test_geometric(self):
        res = sum_series(lambda t: 0.5 ** t, rel_tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-11)

    def test_initial_counts_toward_tolerance(self):
        res = sum_series(lambda t: 0.5 ** (t + 20), rel_tol=1e-6, initial=1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0 + 0.5 ** 20 / 0.5, rel=1e-6)

    def test_alternating_asymptotic_cut_at_minimum(self):
        # |terms| = t!/10^t fall to ~4e-4 near t=9, then grow factorially
        def term(t):
            return (-1.0) ** t * math.factorial(t) / 10.0 ** t
        res = sum_series(term, rel_tol=1e-12, max_terms=100)
        assert not res.converged
        assert 8 <= res.terms <= 12
        assert res.error_estimate < 1e-3

    def test_cap_breach_not_converged(self):
        res = sum_series(lambda t: 1.0 / (t + 1.0), rel_tol=1e-12, max_terms=10)
        assert not res.converged

    def test_nonfinite_term_raises(self):
        with pytest.raises(SeriesNotConverged):
            sum_series(lambda t: math.inf, rel_tol=1e-6)
