import math

import numpy as np
import pytest

from swipt_plsec import (
    ChannelStats,
    best_source_cdf,
    draw_channels,
    erlang_pdf_xi,
    pathloss_rate,
)
from swipt_plsec import channel
from swipt_plsec.channel import ROW_BLOCK, _fold_columns, _row_reduced_draw, _skip_uniforms, worker_stream
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

    @pytest.mark.parametrize("line", ["lambda.sr = nan", "lambda.se = inf", "chi = nan",
                                      "positions.R = nan, 0", "chi = 1e6"])
    def test_non_finite_value_file_rejected(self, line):
        # a later line overrides the geometry's; at chi 1e6 a rate overflows
        geometry = ["chi = 2.5", "positions.S = 0, 0", "positions.R = 5, 0", "positions.D = 1, 0",
                    "positions.E = 0.5, 1.5", "positions.J = 0.5, 1"]
        with pytest.raises(ScenarioError):
            parse_scenario("\n".join(geometry + [line]))

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
        a = draw_channels(s1, p, worker_stream(99, 0), size=1000)
        b = draw_channels(s1, p, worker_stream(99, 0), size=1000)
        assert np.array_equal(a.gamma_sr_best, b.gamma_sr_best)
        assert np.array_equal(a.xi, b.xi)

    def test_distinct_workers_distinct_draws(self, s1):
        p = make_params()
        a = draw_channels(s1, p, worker_stream(99, 0), size=100)
        b = draw_channels(s1, p, worker_stream(99, 1), size=100)
        assert not np.array_equal(a.gamma_rd, b.gamma_rd)

    def test_scalar_draw(self, s1):
        p = make_params()
        d = draw_channels(s1, p, worker_stream(1, 0))
        assert isinstance(d.gamma_se, float) and d.gamma_se >= 0

    def test_marginal_means(self, s1):
        # single source, single jammer: plain exponential means 1/lambda
        p = make_params(num_sources=1, num_jammers=1)
        n = 200_000
        d = draw_channels(s1, p, worker_stream(2024, 0), size=n)
        for arr, lam in ((d.gamma_sr_best, s1.lambda_sr), (d.gamma_se, s1.lambda_se),
                         (d.gamma_rd, s1.lambda_rd), (d.gamma_re, s1.lambda_re),
                         (d.xi, s1.lambda_je)):
            se = 1.0 / lam / math.sqrt(n)
            assert abs(arr.mean() - 1.0 / lam) < 3 * se

    def test_best_of_m_stochastically_larger(self, s1):
        p1 = make_params(num_sources=1)
        p3 = make_params(num_sources=3)
        a = draw_channels(s1, p1, worker_stream(7, 0), size=50_000)
        b = draw_channels(s1, p3, worker_stream(7, 0), size=50_000)
        assert b.gamma_sr_best.mean() > a.gamma_sr_best.mean() * 1.3

    @pytest.mark.parametrize("m,k", [(1, 1), (3, 4), (8, 8), (9, 9)])
    def test_row_blocks_match_the_plain_draw_bitwise(self, s1, m, k):
        # several full row blocks and a partial one; the plain form is the oracle
        p = make_params(num_sources=m, num_jammers=k)
        n = 3 * ROW_BLOCK + 123
        got_rng, ref_rng = worker_stream(5, 0), worker_stream(5, 0)
        got = draw_channels(s1, p, got_rng, size=n)

        def exp(lam, shape):
            return -np.log1p(-ref_rng.random(shape)) / lam

        ref = (exp(s1.lambda_sr, (n, m)).max(axis=1), exp(s1.lambda_se, n),
               exp(s1.lambda_rd, n), exp(s1.lambda_re, n), exp(s1.lambda_je, (n, k)).sum(axis=1))
        for a, b in zip((got.gamma_sr_best, got.gamma_se, got.gamma_rd, got.gamma_re, got.xi), ref):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert got_rng.random() == ref_rng.random()  # same stream position afterwards

    @pytest.mark.parametrize("n", [1, 256, ROW_BLOCK + 3])
    def test_best_of_m_max_equals_the_column_fold(self, n):
        # short wide blocks take max(axis=1), tall ones the column fold; every
        # width must give the fold's bits and leave the stream where it was
        lam = 0.37
        for width in range(1, 65):
            got_rng, ref_rng = worker_stream(41, width), worker_stream(41, width)
            got = _row_reduced_draw(got_rng, lam, n, width, best=True)
            ref = np.empty(n)
            for lo in range(0, n, ROW_BLOCK):
                block = ref_rng.random((min(ROW_BLOCK, n - lo), width))
                _fold_columns(np.maximum, block, ref[lo:lo + len(block)])
            ref = channel._exp_inplace(ref, lam)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), width
            assert got_rng.random() == ref_rng.random()

    def test_scalar_draw_is_the_first_row(self, s1):
        p = make_params(num_sources=3, num_jammers=9)
        one = draw_channels(s1, p, worker_stream(3, 0))
        batch = draw_channels(s1, p, worker_stream(3, 0), size=1)
        assert one.gamma_sr_best == batch.gamma_sr_best[0]
        assert one.xi == batch.xi[0]


def _same_position(a: np.random.Generator, b: np.random.Generator) -> None:
    sa, sb = a.bit_generator.state, b.bit_generator.state
    if "buffer_pos" in sa:  # Philox: counter and place in the 4-word buffer
        assert np.array_equal(sa["state"]["counter"], sb["state"]["counter"])
        assert sa["buffer_pos"] == sb["buffer_pos"]
    assert sa["has_uint32"] == sb["has_uint32"] and sa["uinteger"] == sb["uinteger"]
    assert np.array_equal(a.random(11).view(np.uint64), b.random(11).view(np.uint64))
    assert a.integers(0, 2 ** 32, size=3, dtype=np.uint32).tolist() \
        == b.integers(0, 2 ** 32, size=3, dtype=np.uint32).tolist()


# shorter than, equal to and longer than the buffer, and across many blocks,
# whole row blocks of the fallback and a partial one
SKIPS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 4 * 1021 + 3, 3 * ROW_BLOCK + 5, 1_000_003)


class TestSkipUniforms:
    # 0..4 uniforms drawn leave 0, 3, 2, 1, 0 words in the Philox buffer
    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 6])
    @pytest.mark.parametrize("k", SKIPS)
    def test_philox_skip_equals_the_draw(self, offset, k):
        got, ref = worker_stream(17, offset), worker_stream(17, offset)
        got.random(offset)
        ref.random(offset)
        _skip_uniforms(got, k)
        ref.random(k)
        _same_position(got, ref)

    @pytest.mark.parametrize("k", SKIPS)
    def test_fallback_skip_equals_the_draw(self, k):
        got, ref = np.random.default_rng(23), np.random.default_rng(23)
        got.random(3)
        ref.random(3)
        _skip_uniforms(got, k)
        ref.random(k)
        _same_position(got, ref)

    @pytest.mark.parametrize("k", [1, 9, 1_000_003])
    def test_pending_half_word_keeps_the_draw(self, k):
        # advance would drop a buffered 32-bit half word that random keeps
        got, ref = worker_stream(29, 0), worker_stream(29, 0)
        for rng in (got, ref):
            rng.random(2)
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 123456789
            rng.bit_generator.state = state
        _skip_uniforms(got, k)
        ref.random(k)
        _same_position(got, ref)


FIELDS = {"sr": "gamma_sr_best", "se": "gamma_se", "rd": "gamma_rd", "re": "gamma_re",
          "je": "xi"}


class TestDrawSubset:
    @pytest.mark.parametrize("links", [
        {"sr", "rd"}, {"sr", "se", "re", "je"}, {"sr", "se", "rd", "re", "je"},
        {"se"}, {"je"}, {"rd", "je"}, set(),
    ])
    def test_subset_fields_and_stream_match_the_full_draw(self, s1, links):
        p = make_params(num_sources=3, num_jammers=4)
        n = ROW_BLOCK + 7
        got_rng, ref_rng = worker_stream(8, 1), worker_stream(8, 1)
        got_rng.random(1)  # start mid-buffer
        ref_rng.random(1)
        got = draw_channels(s1, p, got_rng, size=n, links=links)
        ref = draw_channels(s1, p, ref_rng, size=n)
        for link, field in FIELDS.items():
            if link in links:
                assert np.array_equal(getattr(got, field).view(np.uint64),
                                      getattr(ref, field).view(np.uint64))
            else:
                assert getattr(got, field) is None
        _same_position(got_rng, ref_rng)

    def test_scalar_subset_is_the_first_row(self, s1):
        p = make_params(num_sources=3, num_jammers=9)
        one = draw_channels(s1, p, worker_stream(3, 0), links=("sr", "rd"))
        full = draw_channels(s1, p, worker_stream(3, 0))
        assert (one.gamma_sr_best, one.gamma_rd) == (full.gamma_sr_best, full.gamma_rd)
        assert one.gamma_se is None and one.xi is None

    def test_unknown_link_rejected(self, s1):
        with pytest.raises(ValueError, match="unknown links"):
            draw_channels(s1, make_params(), worker_stream(1, 0), size=4, links=("sr", "sd"))
