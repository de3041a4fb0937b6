import itertools
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from swipt_plsec import (
    ChannelStats,
    best_source_cdf,
    draw_channels,
    erlang_pdf_xi,
    pathloss_rate,
)
from swipt_plsec.channel import LINK_KEYS, link_streams
from swipt_plsec.montecarlo import ROW_BLOCK
from swipt_plsec.scenario import ScenarioError, load_scenario, parse_scenario, resolve_scenario
from swipt_plsec.specfun import QuadratureSpec, integrate

from conftest import make_params


class TestPathloss:
    def test_half_unit_link(self):
        assert pathloss_rate(0.5, 2.5) == pytest.approx(0.5 ** 2.5, rel=1e-15)

    def test_unit_distance(self):
        for chi in (1.0, 2.0, 2.5, 4.0):
            assert pathloss_rate(1.0, chi) == 1.0

    def test_long_link(self):
        assert pathloss_rate(1.5, 2.5) == pytest.approx(1.5 ** 2.5, rel=1e-15)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            pathloss_rate(0.0, 2.5)
        with pytest.raises(ValueError):
            pathloss_rate(-1.0, 2.5)


class TestBestSourceCdf:
    def test_single_source_reduces_to_exponential(self):
        x = np.linspace(0, 10, 64)
        assert best_source_cdf(x, 0.7, 1) == pytest.approx(1 - np.exp(-0.7 * x), rel=1e-14)

    def test_two_source_hand_value(self):
        assert best_source_cdf(1.0, 1.0, 2) == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-12)

    def test_product_matches_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            lam = rng.uniform(0.05, 5.0)
            x = rng.exponential(2.0)
            m = int(rng.integers(1, 11))
            a = best_source_cdf(x, lam, m)
            # the alternating binomial sum the analytic forms integrate term by term
            b = 1.0 + sum((-1.0) ** j * math.comb(m, j) * math.exp(-j * lam * x)
                          for j in range(1, m + 1))
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_nondecreasing_and_bounded(self):
        x = np.linspace(0, 40, 512)
        c = best_source_cdf(x, 0.1768, 3)
        assert np.all(np.diff(c) >= 0)
        assert np.all((c >= 0) & (c <= 1))

    def test_more_sources_pointwise_smaller(self):
        x = np.linspace(0.05, 30, 128)
        for m in range(1, 6):
            assert np.all(best_source_cdf(x, 0.5, m + 1) < best_source_cdf(x, 0.5, m))


class TestErlangAggregate:
    def test_single_jammer_is_exponential(self):
        x = np.linspace(0, 10, 64)
        assert erlang_pdf_xi(x, 0.9, 1) == pytest.approx(0.9 * np.exp(-0.9 * x), rel=1e-14)

    def test_two_jammer_hand_value(self):
        assert erlang_pdf_xi(1.0, 1.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_normalization_by_quadrature(self, k):
        lam = 0.6
        value, _ = integrate(lambda x: erlang_pdf_xi(x, lam, k),
                             QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12),
                             points=(k / lam,))
        assert value == pytest.approx(1.0, abs=1e-8)


class TestChannelStats:
    def test_geometry_exact_when_unquantized(self):
        pos = {"S": (0, 0), "R": (0.5, 0), "D": (1, 0), "E": (0.5, 1.5), "J": (0.5, 1.0)}
        stats = ChannelStats.from_positions(pos, chi=2.5)
        for link, d in stats.distances().items():
            assert getattr(stats, f"lambda_{link}") == pytest.approx(d ** 2.5, rel=1e-6)

    def test_overrides_win(self):
        pos = {"S": (0, 0), "R": (0.5, 0), "D": (1, 0), "E": (0.5, 1.5), "J": (0.5, 1.0)}
        stats = ChannelStats.from_positions(pos, chi=2.5, overrides={"se": 9.0})
        assert stats.lambda_se == 9.0
        assert stats.lambda_sr == pytest.approx(0.5 ** 2.5)

    def test_missing_node_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ChannelStats.from_positions({"S": (0, 0)}, chi=2.5)

    @pytest.mark.parametrize("field,value", [("lambda_sr", 0.0)] + [
        (field, value) for field in ("lambda_sr", "lambda_rd", "lambda_re", "lambda_je",
                                     "lambda_se", "chi")
        for value in (math.nan, math.inf)])
    def test_nonpositive_rate_rejected(self, field, value):
        kwargs = dict(lambda_sr=1, lambda_rd=1, lambda_re=1, lambda_je=1, lambda_se=1)
        with pytest.raises(ValueError):
            ChannelStats(**{**kwargs, field: value})


class TestScenarioFiles:
    GEOMETRY = ["chi = 2.5", "positions.S = 0, 0", "positions.R = 5, 0", "positions.D = 1, 0",
                "positions.E = 0.5, 1.5", "positions.J = 0.5, 1"]

    def test_lambda_only_file(self, tmp_path):
        f = tmp_path / "flat.scenario"
        f.write_text("lambda.sr = 0.2\nlambda.rd = 0.2\nlambda.re = 2.0\n"
                     "lambda.je = 0.3\nlambda.se = 3.0\n")
        stats = load_scenario(f)
        assert stats.lambda_re == 2.0
        assert stats.positions is None

    def test_parse_error_carries_line_number(self):
        text = "chi = 2.5\npositions.S = 0 0\nnot a pair\n"
        with pytest.raises(ScenarioError, match="line 3"):
            parse_scenario(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario("wavelength = 3\n")

    @pytest.mark.parametrize("line,message", [
        ("lambda.sr = nan", "lambda_sr must be finite"),
        ("lambda.se = inf", "lambda_se must be finite"),
        ("chi = nan", "pathloss exponent must be finite"),
        ("positions.R = nan, 0", "distance must be finite"),
        ("chi = 1e6", "beyond float range")])
    def test_non_finite_value_file_rejected(self, line, message):
        # the bad value replaces the geometry's line of its key, or adds an
        # override; at chi 1e6 a rate overflows
        key = line.partition("=")[0]
        lines = [g for g in self.GEOMETRY if not g.startswith(key)] + [line]
        with pytest.raises(ScenarioError, match=message):
            parse_scenario("\n".join(lines))

    @pytest.mark.parametrize("key,first,again", [
        ("chi", "chi = 2.5", "chi = 3"), ("positions.J", "positions.J = 0.5, 1", "positions.J = 2, 2"),
        ("lambda.se", "lambda.se = 3", "lambda.se = 3")])
    def test_repeated_key_rejected(self, key, first, again):
        # the last value would otherwise win silently
        lines = [g for g in self.GEOMETRY if not g.startswith(key)] + [first, "# note", again]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("\n".join(lines))
        n = len(lines)
        assert str(exc.value) == (f"scenario, line {n}: duplicate key {key!r}, "
                                  f"first given on line {n - 2}")

    def test_incomplete_geometry_rejected(self):
        with pytest.raises(ScenarioError, match="incomplete"):
            parse_scenario("chi = 2.5\npositions.S = 0, 0\n")

    def test_env_search_dir(self, tmp_path, monkeypatch):
        f = tmp_path / "mine.scenario"
        f.write_text("lambda.sr = 1\nlambda.rd = 1\nlambda.re = 1\n"
                     "lambda.je = 1\nlambda.se = 1\n")
        monkeypatch.setenv("SWIPT_PLSEC_SCENARIO_DIR", str(tmp_path))
        stats = resolve_scenario("mine")
        assert stats.lambda_sr == 1.0

    def test_packaged_names_resolve(self):
        for name in ("s1", "s2"):
            stats = resolve_scenario(name)
            assert stats.chi == 2.5

    def test_unresolvable_name(self):
        with pytest.raises(ScenarioError, match="cannot resolve"):
            resolve_scenario("nonexistent-scenario")


class TestDrawChannels:
    def test_deterministic_streams(self, s1):
        p = make_params(num_sources=3, num_jammers=2)
        a = draw_channels(s1, p, link_streams(99, 0, LINK_KEYS), size=1000)
        b = draw_channels(s1, p, link_streams(99, 0, LINK_KEYS), size=1000)
        assert np.array_equal(a["sr"], b["sr"])
        assert np.array_equal(a["je"], b["je"])

    def test_distinct_workers_distinct_draws(self, s1):
        p = make_params()
        a = draw_channels(s1, p, link_streams(99, 0, LINK_KEYS), size=100)
        b = draw_channels(s1, p, link_streams(99, 1, LINK_KEYS), size=100)
        assert not np.array_equal(a["rd"], b["rd"])

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_below_one_rejected(self, s1, size):
        with pytest.raises(ValueError, match=f"size must be >= 1, got {size}"):
            draw_channels(s1, make_params(), link_streams(1, 0, LINK_KEYS), size)

    def test_marginal_means(self, s1):
        # single source, single jammer: plain exponential means 1/lambda
        p = make_params(num_sources=1, num_jammers=1)
        n = 200_000
        d = draw_channels(s1, p, link_streams(2024, 0, LINK_KEYS), size=n)
        for link in LINK_KEYS:
            arr, lam = d[link], getattr(s1, f"lambda_{link}")
            se = 1.0 / lam / math.sqrt(n)
            assert (arr >= 0).all()
            assert abs(arr.mean() - 1.0 / lam) < 3 * se

    def test_best_of_m_stochastically_larger(self, s1):
        p1 = make_params(num_sources=1)
        p3 = make_params(num_sources=3)
        a = draw_channels(s1, p1, link_streams(7, 0, LINK_KEYS), size=50_000)
        b = draw_channels(s1, p3, link_streams(7, 0, LINK_KEYS), size=50_000)
        assert b["sr"].mean() > a["sr"].mean() * 1.3


class _Uniforms:
    """A stand-in stream whose ``random`` writes the given uniforms into ``out``."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def random(self, *, out):
        assert len(out) == len(self.u)
        out[:] = self.u
        return out


# KS statistic bound: the 0.1% critical value 1.95/sqrt(n) of the one-sample test
KS_N = 200_000
KS_BOUND = 1.95 / math.sqrt(KS_N)


class TestDrawLaws:
    """Each link gain is one value per trial from its own law."""

    @pytest.mark.parametrize("m", [1, 2, 8, 64])
    def test_best_of_m_follows_the_best_source_cdf(self, s1, m):
        d = draw_channels(s1, make_params(num_sources=m), link_streams(611, m, ("sr",)),
                          size=KS_N)
        stat = scipy_stats.kstest(
            d["sr"], lambda x: best_source_cdf(x, s1.lambda_sr, m)).statistic
        assert stat < KS_BOUND

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_jammer_sum_follows_the_erlang_cdf(self, s1, k):
        d = draw_channels(s1, make_params(num_jammers=k), link_streams(612, k, ("je",)),
                          size=KS_N)
        erlang = scipy_stats.gamma(a=k, scale=1.0 / s1.lambda_je)
        assert scipy_stats.kstest(d["je"], erlang.cdf).statistic < KS_BOUND

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 2, 64])
    def test_best_of_m_at_the_ends_of_the_unit_interval(self, s1, m):
        # u = 0 is the smallest uniform and 1 - 2^-53 the largest
        d = draw_channels(s1, make_params(num_sources=m), {"sr": _Uniforms([0.0, 1 - 2.0 ** -53])},
                          size=2)
        low, high = d["sr"]
        assert low == 0.0
        assert math.isfinite(high) and high > 0
        # the survival 1 - (1 - exp(-lam g))^M at the largest gain gives back 2^-53
        survival = -math.expm1(m * math.log1p(-math.exp(-s1.lambda_sr * high)))
        assert survival == pytest.approx(2.0 ** -53, rel=1e-9)

    @pytest.mark.parametrize("m,k", [(1, 1), (3, 4), (8, 9)])
    def test_one_call_equals_row_blocks(self, s1, m, k):
        # several full blocks and a partial one, on every link
        p = make_params(num_sources=m, num_jammers=k)
        n = 3 * ROW_BLOCK + 123
        whole = draw_channels(s1, p, link_streams(5, 0, LINK_KEYS), size=n)
        streams = link_streams(5, 0, LINK_KEYS)
        blocks = [draw_channels(s1, p, streams, size=min(ROW_BLOCK, n - lo))
                  for lo in range(0, n, ROW_BLOCK)]
        for link in LINK_KEYS:
            joined = np.concatenate([b[link] for b in blocks])
            assert np.array_equal(whole[link].view(np.uint64), joined.view(np.uint64))


class TestDrawSubset:
    def test_streams_are_keyed_by_seed_worker_and_link(self):
        streams = link_streams(5, 2, LINK_KEYS)
        for index, link in enumerate(LINK_KEYS):
            ref = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([5, 2, index])))
            assert np.array_equal(streams[link].random(4), ref.random(4))

    @pytest.mark.parametrize("links", [
        {"sr", "rd"}, {"sr", "se", "re", "je"}, {"sr", "se", "rd", "re", "je"},
        {"se"}, {"je"}, {"rd", "je"}, set(),
    ])
    def test_subset_fields_match_the_full_draw(self, s1, links):
        # a link's values do not depend on the other links drawn
        p = make_params(num_sources=3, num_jammers=4)
        n = ROW_BLOCK + 7
        streams = link_streams(8, 1, links)
        assert set(streams) == links  # only the links asked for are built
        got = draw_channels(s1, p, streams, size=n)
        ref = draw_channels(s1, p, link_streams(8, 1, LINK_KEYS), size=n)
        assert set(got) == links
        for link in links:
            assert np.array_equal(got[link].view(np.uint64), ref[link].view(np.uint64))

    @pytest.mark.parametrize("link,others", [
        pytest.param(link, set(others), id=f"{link}-beside-{'+'.join(others) or 'none'}")
        for link in LINK_KEYS
        for r in range(len(LINK_KEYS))
        for others in itertools.combinations([k for k in LINK_KEYS if k != link], r)])
    def test_link_values_and_stream_position_ignore_the_other_links(self, s1, link, others):
        # every link drawn alone, and beside each subset of the other four,
        # gives the same values and leaves its stream at the same position
        p = make_params(num_sources=5, num_jammers=3)
        alone = link_streams(21, 3, {link})
        shared = link_streams(21, 3, others | {link})
        for size in (1000, 17):
            ref = draw_channels(s1, p, alone, size=size)[link]
            got = draw_channels(s1, p, shared, size=size)[link]
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(shared[link].random(4), alone[link].random(4))

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="unknown links"):
            link_streams(1, 0, ("sr", "sd"))
