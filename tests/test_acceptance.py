"""Acceptance suite: one test per acceptance criterion, each printing a
``[ACCEPT] ...`` pass/fail line (run with ``pytest -s`` to see them live).

Criterion 2 encodes three published benchmark targets for the outage
probability at 15 dB.  Two of those targets are attached to the wrong curves
in the source material and one is a coarse log-scale read-off: the closed
form, its defining integral, and the Monte-Carlo engine agree with each
other to better than 0.5% but not with the quoted targets as attributed.
Those tests assert the targets as stated and FAIL by design; the companion
attribution test demonstrates that the quoted numbers are in fact exact
values of neighbouring curves.  See the failure messages for the full
analysis.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats as scipy_stats

from swipt_plsec import (
    AnalyticConfig,
    ChannelStats,
    EstimateWithCI,
    QuadratureSpec,
    SimConfig,
    SystemParams,
    bessel_k,
    best_source_cdf,
    gamma_d_dpsr,
    gamma_d_spsr,
    integrate,
    ip_dpsr,
    ip_dpsr_no_jamming,
    ip_dpsr_quadrature,
    ip_spsr,
    ip_spsr_no_jamming,
    ip_spsr_quadrature,
    meijer_g3013,
    op_dpsr,
    op_dpsr_quadrature,
    op_dpsr_series,
    op_spsr,
    op_spsr_closed_form,
    op_spsr_quadrature,
    resolve_scenario,
    rho_star,
    simulate_point,
)
from swipt_plsec.reference import slot1_intercept_probability
from swipt_plsec.channel import derive_seed, draw_channels, link_streams

from conftest import make_params

S1 = resolve_scenario("s1")
S2 = resolve_scenario("s2")


def report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPT] {cid}: {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# criterion 1: scenario geometry reproduces the reference rate table


class TestCriterion1Geometry:
    TABLE = {
        ("s1", "sr"): 0.1768, ("s1", "rd"): 0.1768, ("s1", "re"): 2.7557,
        ("s1", "se"): 3.1434, ("s1", "je"): 0.1768,
        ("s2", "sr"): 0.1768, ("s2", "rd"): 0.1768, ("s2", "re"): 1.3216,
        ("s2", "se"): 1.0, ("s2", "je"): 1.0,
    }

    def test_rate_table_to_four_decimals(self):
        stats = {"s1": S1, "s2": S2}
        bad = []
        for (scen, link), expected in self.TABLE.items():
            got = getattr(stats[scen], f"lambda_{link}")
            if abs(got - expected) >= 1e-4:
                bad.append((scen, link, got, expected))
        report("criterion-1 geometry", not bad,
               f"10 rates checked to 4 decimals (chi=2.5){'; bad: ' + str(bad) if bad else ''}")
        assert not bad


# ---------------------------------------------------------------------------
# criterion 2: outage benchmark targets at 15 dB (see module docstring)


def _op15(rho: float | None) -> float:
    p = make_params(psi_db=15.0, rho=0.5 if rho is None else rho)
    return op_dpsr(p, S1) if rho is None else op_spsr(p, S1)


class TestCriterion2OutageBenchmarks:
    def test_static_rho_0225_target(self):
        got = _op15(0.225)
        target = 0.0025
        ok = abs(got - target) <= 0.15 * target
        report("criterion-2 static rho=0.225 vs 0.0025 +-15%", ok, f"computed {got:.6f}")
        assert ok, (
            f"computed {got:.6f}; closed form, defining integral and Monte Carlo all agree "
            "on this value, so the 0.0025 target cannot be met by a correct implementation. "
            "0.0025 is the dynamic-splitting value at this operating point (see the "
            "attribution test) and appears to be attached to the wrong curve in the source.")

    def test_static_rho_0875_target(self):
        got = _op15(0.875)
        target = 0.0079
        ok = abs(got - target) <= 0.15 * target
        report("criterion-2 static rho=0.875 vs 0.0079 +-15%", ok, f"computed {got:.6f}")
        assert ok, (
            f"computed {got:.6f}; the 0.0079 target is the rho=0.225 curve's value "
            f"({_op15(0.225):.6f}) and appears to be attached to the wrong curve in the "
            "source; the rho=0.875 value has no correct counterpart among the quoted numbers.")

    def test_dynamic_target(self):
        got = _op15(None)
        target = 10.0 ** -2.7
        ok = abs(got - target) <= 0.20 * target
        report("criterion-2 dynamic vs 10^-2.7 +-20%", ok, f"computed {got:.6f}")
        assert ok, (
            f"computed {got:.6f} = 10^{math.log10(got):.2f}; the quoted 10^-2.7 is a coarse "
            "log-scale read-off of this same curve (the value rounds to 0.0025, which the "
            "source quotes for a different curve). 25.5% above the +-20% band.")

    def test_benchmark_numbers_match_reattributed_curves(self):
        """The quoted numbers are exact values of neighbouring curves."""
        static_0225 = _op15(0.225)
        dynamic = _op15(None)
        ok = (abs(static_0225 - 0.0079) <= 0.15 * 0.0079
              and abs(dynamic - 0.0025) <= 0.15 * 0.0025)
        report("criterion-2 attribution analysis", ok,
               f"static rho=0.225 -> {static_0225:.6f} (quoted 0.0079), "
               f"dynamic -> {dynamic:.6f} (quoted 0.0025)")
        assert ok

    def test_three_routes_agree_at_15db(self):
        """Closed form, defining integral, and Monte Carlo agree pairwise."""
        checks = []
        for rho in (0.225, 0.875):
            p = make_params(psi_db=15.0, rho=rho)
            closed = op_spsr_closed_form(p, S1)
            quad = op_spsr_quadrature(p, S1)
            [(mc, _)] = simulate_point(p, S1, SimConfig(trials=2_000_000, seed=404),
                                       [("spsr", p.rho)], ("op",))
            checks.append(abs(closed - quad) <= 1e-8 * closed)
            checks.append(abs(closed - mc.estimate) <= 3 * mc.ci_halfwidth)
        p = make_params(psi_db=15.0)
        closed = op_dpsr_series(p, S1)
        quad = op_dpsr_quadrature(p, S1)
        [(mc, _)] = simulate_point(p, S1, SimConfig(trials=2_000_000, seed=405),
                                   [("dpsr", p.rho)], ("op",))
        checks.append(abs(closed - quad) <= 1e-6 * closed)
        checks.append(abs(closed - mc.estimate) <= 3 * mc.ci_halfwidth)
        report("criterion-2 route agreement", all(checks),
               "closed vs integral vs MC at all three 15 dB points")
        assert all(checks)


# ---------------------------------------------------------------------------
# criterion 3: intercept benchmark values, with and without jamming


class TestCriterion3InterceptBenchmarks:
    # (psi_db, scheme, jamming) -> published value; rho=0.55, phi=1 dB, M=2, K=1
    GOLDEN = {
        (2.0, "spsr", True): 0.1542, (4.0, "spsr", True): 0.2456,
        (2.0, "dpsr", True): 0.1228, (4.0, "dpsr", True): 0.1992,
        (2.0, "spsr", False): 0.5194, (4.0, "spsr", False): 0.7043,
        (2.0, "dpsr", False): 0.4404, (4.0, "dpsr", False): 0.6370,
    }

    def test_analytic_and_mc_within_ten_percent(self):
        failures = []
        for (psi_db, scheme, jamming), golden in self.GOLDEN.items():
            p = make_params(psi_db=psi_db, rho=0.55)
            if scheme == "spsr":
                analytic = ip_spsr_quadrature(p, S1) if jamming else ip_spsr_no_jamming(p, S1)
            else:
                analytic = ip_dpsr_quadrature(p, S1) if jamming else ip_dpsr_no_jamming(p, S1)
            # the benchmark values realize the jamming-dominated first-slot
            # model, which is the engine's approx mode
            sim = SimConfig(trials=1_000_000, seed=derive_seed(31, int(psi_db)),
                            jamming=jamming, e1_mode="approx" if jamming else "exact")
            [(_, mc)] = simulate_point(p, S1, sim, [(scheme, p.rho)], ("ip",))
            for label, value in (("analytic", analytic), ("mc", mc.estimate)):
                if abs(value - golden) > 0.10 * golden:
                    failures.append((psi_db, scheme, jamming, label, value, golden))
        report("criterion-3 intercept benchmarks", not failures,
               f"8 points x (analytic, mc) vs published values +-10%"
               f"{'; failures: ' + str(failures) if failures else ''}")
        assert not failures


# ---------------------------------------------------------------------------
# criterion 4: derivation-chain oracles (fast form vs defining integral)


GRID_CFG = AnalyticConfig(series_rel_tol=1e-6,
                          quad=QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10))


class TestCriterion4DerivationChains:
    def test_static_outage_chain(self):
        worst = 0.0
        for psi_db in (0.0, 2.0, 8.0):
            for rho in (0.225, 0.55, 0.875):
                p = make_params(psi_db=psi_db, rho=rho)
                a, b = op_spsr_closed_form(p, S1), op_spsr_quadrature(p, S1)
                worst = max(worst, abs(a - b) / b)
        report("criterion-4 static outage chain", worst <= 0.01,
               f"worst relative gap {worst:.2e} on 3x3 grid")
        assert worst <= 0.01

    def test_static_intercept_chain(self):
        # the asymptotic series is summable in the strong-link regime only
        dense = ChannelStats(lambda_sr=2.0, lambda_rd=0.1768, lambda_re=2.0,
                             lambda_je=0.5, lambda_se=0.5)
        worst = 0.0
        for psi_db in (-2.0, 0.0, 2.0):
            for rho in (0.1, 0.2, 0.3):
                p = make_params(psi_db=psi_db, rho=rho)
                a = ip_spsr(p, dense, GRID_CFG)
                b = ip_spsr_quadrature(p, dense)
                worst = max(worst, abs(a - b) / b)
        report("criterion-4 static intercept chain", worst <= 0.01,
               f"worst relative gap {worst:.2e} on 3x3 grid (strong-link regime)")
        assert worst <= 0.01

    def test_dynamic_outage_chain(self):
        worst = 0.0
        for psi_db in (-5.0, 2.0, 15.0):
            for c_th in (0.25, 0.5, 1.0):
                p = make_params(psi_db=psi_db, c_th=c_th)
                a, b = op_dpsr_series(p, S1), op_dpsr_quadrature(p, S1)
                worst = max(worst, abs(a - b) / b)
        report("criterion-4 dynamic outage chain", worst <= 0.01,
               f"worst relative gap {worst:.2e} on 3x3 grid")
        assert worst <= 0.01

    def test_dynamic_intercept_chain(self):
        worst = 0.0
        for psi_db in (0.0, 2.0, 4.0):
            for phi_db in (-1.0, 1.0, 3.0):
                p = make_params(psi_db=psi_db, phi_db=phi_db, rho=0.55)
                a = ip_dpsr(p, S1, GRID_CFG)
                b = ip_dpsr_quadrature(p, S1)
                worst = max(worst, abs(a - b) / b)
        report("criterion-4 dynamic intercept chain", worst <= 0.01,
               f"worst relative gap {worst:.2e} on 3x3 grid")
        assert worst <= 0.01

    def test_slot1_mass_closed_form_vs_quadrature(self):
        # rates chosen so the tilted rate is 1.5 against base 1 with K=2
        p = SystemParams(eta=0.8, rho=0.5, psi=1.0, phi=1.0,
                         num_sources=2, num_jammers=2, c_th=0.5)
        s = ChannelStats(lambda_sr=1.0, lambda_rd=1.0, lambda_re=1.0,
                         lambda_je=1.0, lambda_se=0.5)
        closed = slot1_intercept_probability(p, s)
        value, _ = integrate(lambda x: x * math.exp(-1.5 * x),
                             QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14), points=(2.0,))
        gap = abs(closed - value) / value
        report("criterion-4 slot-1 mass", gap <= 1e-6,
               f"closed {closed:.9f} vs quadrature {value:.9f}")
        assert closed == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert gap <= 1e-6

    @pytest.mark.parametrize("z,t,k", [(0.5, 0, 1), (1.0, 1, 1), (2.0, 0, 2)])
    def test_meijer_instance_vs_independent_evaluation(self, z, t, k):
        ours = meijer_g3013(z, -(t + k))
        ref = float(mpmath.meijerg([[], [0]], [[-t - k, 1, 0], []], z))
        gap = abs(ours - ref) / abs(ref)
        report(f"criterion-4 meijer z={z} t={t} K={k}", gap <= 1e-6,
               f"quadrature {ours:.10g} vs series {ref:.10g}")
        assert gap <= 1e-6


# ---------------------------------------------------------------------------
# criterion 5: analytic values sit inside Monte-Carlo confidence intervals


PSI_GRID = (-5.0, 0.0, 5.0, 10.0, 15.0)


class TestCriterion5StatisticalValidation:
    def test_analytic_inside_ci_at_five_points_per_scheme(self):
        misses = []
        for scheme in ("spsr", "dpsr"):
            for psi_db in PSI_GRID:
                p = make_params(psi_db=psi_db)
                if scheme == "spsr":
                    a_op, a_ip = op_spsr(p, S1), ip_spsr_quadrature(p, S1)
                else:
                    a_op, a_ip = op_dpsr(p, S1), ip_dpsr_quadrature(p, S1)
                sim = SimConfig(trials=1_000_000, seed=derive_seed(1234, int(psi_db) + 5),
                                e1_mode="approx")
                [(op_est, ip_est)] = simulate_point(p, S1, sim, [(scheme, p.rho)])
                if not op_est.covers(a_op):
                    misses.append((scheme, psi_db, "op"))
                if not ip_est.covers(a_ip):
                    misses.append((scheme, psi_db, "ip"))
        report("criterion-5 CI containment", not misses,
               f"20 analytic values vs 95% CIs at 10^6 trials"
               f"{'; misses: ' + str(misses) if misses else ''}")
        assert not misses

    def test_coverage_over_thirty_seeds(self):
        p = make_params(psi_db=2.0)
        a_op, a_ip = op_spsr(p, S1), ip_spsr_quadrature(p, S1)
        hits_op = hits_ip = 0
        for i in range(30):
            sim = SimConfig(trials=1_000_000, seed=derive_seed(987, i), e1_mode="approx")
            [(op_est, ip_est)] = simulate_point(p, S1, sim, [("spsr", p.rho)])
            hits_op += op_est.covers(a_op)
            hits_ip += ip_est.covers(a_ip)
        ok = hits_op >= 25 and hits_ip >= 25
        report("criterion-5 coverage replication", ok,
               f"op {hits_op}/30, ip {hits_ip}/30 seeds contain the analytic value")
        assert ok


# ---------------------------------------------------------------------------
# criterion 6: property suite


class TestCriterion6Properties:
    def test_optimal_split_is_the_argmax(self):
        rng = np.random.default_rng(606)
        rhos = np.arange(1e-4, 1.0, 1e-4)
        worst = 0.0
        for _ in range(25):
            eta = rng.uniform(0.05, 1.0)
            gsr, grd = rng.exponential(2.0, size=2) + 1e-9
            psi = 10.0 ** rng.uniform(-1, 2)
            num = eta * rhos * (1 - rhos) * psi * gsr * grd
            den = eta * rhos * grd + (1 - rhos)
            grid_best = np.max(num / den)
            p = SystemParams(eta=eta, rho=rho_star(eta, grd), psi=psi, phi=1.0,
                             num_sources=1, num_jammers=1, c_th=0.5)
            at_star = gamma_d_spsr(p, gsr, grd)
            worst = max(worst, (grid_best - at_star) / at_star)
        report("criterion-6 argmax", worst <= 1e-8,
               f"grid step 1e-4 never beats the closed-form optimum by more than {worst:.2e}")
        assert worst <= 1e-8

    def test_destination_snr_concave_in_rho(self):
        rng = np.random.default_rng(607)
        ok = True
        for _ in range(1000):
            eta = rng.uniform(0.05, 1.0)
            gsr, grd = rng.exponential(1.0, size=2) + 1e-9
            r1, r2 = np.sort(rng.uniform(0.0, 1.0, size=2))
            def f(rho):
                p = SystemParams(eta=eta, rho=rho, psi=10.0, phi=1.0,
                                 num_sources=1, num_jammers=1, c_th=0.5)
                return gamma_d_spsr(p, gsr, grd)
            if f(0.5 * (r1 + r2)) < 0.5 * (f(r1) + f(r2)) - 1e-12:
                ok = False
        report("criterion-6 concavity", ok, "1000 random midpoint-vs-chord cases")
        assert ok

    def test_dynamic_dominates_static_per_trial(self):
        p = make_params(rho=0.55)
        draw = draw_channels(S1, p, link_streams(608, 0, ("sr", "rd")), size=1_000_000)
        static = gamma_d_spsr(p, draw["sr"], draw["rd"])
        dynamic = gamma_d_dpsr(p, draw["sr"], draw["rd"])
        ok = bool(np.all(dynamic >= static - 1e-12))
        report("criterion-6 per-trial dominance", ok, "10^6 common-draw trials")
        assert ok

    @staticmethod
    def _mc(p, scheme="spsr", seed=0, **kw):
        sim = SimConfig(trials=500_000, seed=seed, e1_mode="approx", **kw)
        return simulate_point(p, S1, sim, [(scheme, p.rho)])[0]

    def test_outage_monotone_in_power_and_sources(self):
        ok = True
        detail = []
        ests = [self._mc(make_params(psi_db=v), seed=1)[0] for v in (-5.0, 0.0, 5.0, 10.0, 15.0)]
        for a, b in zip(ests, ests[1:]):
            if not b.estimate <= a.estimate + 2 * (a.ci_halfwidth + b.ci_halfwidth):
                ok = False
                detail.append("psi")
        ests = [self._mc(make_params(num_sources=m), seed=2)[0] for m in (1, 2, 3, 5)]
        for a, b in zip(ests, ests[1:]):
            if not b.estimate <= a.estimate + 2 * (a.ci_halfwidth + b.ci_halfwidth):
                ok = False
                detail.append("M")
        # a third source must help strictly, beyond the CI noise
        if not ests[2].estimate < ests[1].estimate - 2 * (
                ests[1].ci_halfwidth + ests[2].ci_halfwidth):
            ok = False
            detail.append("M=3 vs M=2 not separated")
        report("criterion-6 outage monotone (psi, M)", ok, ",".join(detail) or "all orderings hold")
        assert ok

    def test_intercept_monotone_in_power_jammers_and_phi(self):
        ok = True
        detail = []
        ests = [self._mc(make_params(psi_db=v), seed=3)[1] for v in (-5.0, 0.0, 5.0, 10.0, 15.0)]
        for a, b in zip(ests, ests[1:]):
            if not b.estimate >= a.estimate - 2 * (a.ci_halfwidth + b.ci_halfwidth):
                ok = False
                detail.append("psi")
        ests = [self._mc(make_params(num_jammers=k), seed=4)[1] for k in (1, 2, 4, 8)]
        for a, b in zip(ests, ests[1:]):
            if not b.estimate <= a.estimate + 2 * (a.ci_halfwidth + b.ci_halfwidth):
                ok = False
                detail.append("K")
        ests = [self._mc(make_params(phi_db=v), seed=5)[1] for v in (-1.0, 1.0, 3.0, 6.0)]
        for a, b in zip(ests, ests[1:]):
            if not b.estimate <= a.estimate + 2 * (a.ci_halfwidth + b.ci_halfwidth):
                ok = False
                detail.append("phi")
        # the wiretap side of the source-count trade-off, strictly separated
        m2 = self._mc(make_params(num_sources=2), seed=6)[1]
        m3 = self._mc(make_params(num_sources=3), seed=6)[1]
        if not m3.estimate > m2.estimate + 2 * (m2.ci_halfwidth + m3.ci_halfwidth):
            ok = False
            detail.append("M=3 vs M=2 not separated")
        report("criterion-6 intercept monotone (psi, K, phi, M)", ok,
               ",".join(detail) or "all orderings hold")
        assert ok

    def test_best_source_distribution_ks(self):
        p = make_params(num_sources=2)
        draw = draw_channels(S1, p, link_streams(609, 0, ("sr",)), size=1_000_000)
        stat = scipy_stats.kstest(
            draw["sr"], lambda x: best_source_cdf(x, S1.lambda_sr, 2)).statistic
        report("criterion-6 best-source KS", stat < 0.002, f"KS statistic {stat:.5f} at 10^6 draws")
        assert stat < 0.002

    def test_jammer_aggregate_chi_square(self):
        p = make_params(num_jammers=3)
        draw = draw_channels(S1, p, link_streams(610, 0, ("je",)), size=100_000)
        dist = scipy_stats.gamma(a=3, scale=1.0 / S1.lambda_je)
        edges = dist.ppf(np.linspace(0, 1, 21))
        counts, _ = np.histogram(draw["je"], bins=edges)
        pvalue = scipy_stats.chisquare(counts).pvalue
        report("criterion-6 jammer-aggregate chi^2", pvalue > 0.01, f"p-value {pvalue:.3f}")
        assert pvalue > 0.01

    def test_bessel_recurrence_and_half_order(self):
        worst = 0.0
        for v in np.linspace(-3, 3, 25):
            for z in np.geomspace(0.1, 20, 25):
                lhs = bessel_k(v + 1, z)
                rhs = bessel_k(v - 1, z) + 2 * v / z * bessel_k(v, z)
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
        for z in (0.5, 1.0, 2.0):
            closed = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
            worst = max(worst, abs(bessel_k(0.5, z) - closed) / closed)
        report("criterion-6 Bessel identities", worst <= 1e-8, f"worst relative error {worst:.2e}")
        assert worst <= 1e-8

    def test_estimator_merge_and_reproducibility(self):
        rng = np.random.default_rng(611)
        parts = [(int(rng.integers(0, 50)), int(rng.integers(50, 500))) for _ in range(6)]
        total = EstimateWithCI.from_counts(sum(s for s, _ in parts), sum(n for _, n in parts))
        order = list(range(6))
        rng.shuffle(order)
        acc = EstimateWithCI.from_counts(*parts[order[0]])
        for i in order[1:]:
            acc = acc.merge(EstimateWithCI.from_counts(*parts[i]))
        merged_ok = acc == total

        p = make_params()
        c = SimConfig(trials=100_000, seed=612, workers=4, e1_mode="approx")
        schemes = [("spsr", p.rho)]
        repro_ok = simulate_point(p, S1, c, schemes) == simulate_point(p, S1, c, schemes)
        report("criterion-6 merge/reproducibility", merged_ok and repro_ok,
               "shuffled merge exact; repeated run bitwise identical")
        assert merged_ok and repro_ok
