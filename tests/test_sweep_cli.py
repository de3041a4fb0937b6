
import csv
import math
import threading
import time

import numpy as np
import pytest

from swipt_plsec import (
    QuadratureError,
    SchemePoint,
    SweepSpec,
    compare_report,
    read_csv,
    run_sweep,
    write_csv,
)
from swipt_plsec import analytic, montecarlo, reference, specfun, sweep
from swipt_plsec.cli import main
from swipt_plsec.montecarlo import ROW_BLOCK, SimConfig
from swipt_plsec.sweep import SweepResult, SweepRow, sweep_values

from conftest import make_params


def tiny_sim(**kw):
    defaults = dict(trials=2000, seed=42, workers=1, jamming=True, e1_mode="approx")
    defaults.update(kw)
    return SimConfig(**defaults)


class TestSweepValues:
    def test_inclusive_grid(self):
        assert sweep_values(-5.0, 15.0, 1.0) == [float(v) for v in range(-5, 16)]

    def test_single_point(self):
        assert sweep_values(3.0, 3.0, 1.0) == [3.0]

    def test_fractional_step(self):
        vals = sweep_values(0.1, 0.9, 0.2)
        assert vals == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])

    @pytest.mark.parametrize("grid", [
        (0.0, math.inf, 1.0), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf),
        (math.nan, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 1.0, math.nan),
        (0.0, 1.0, 0.0), (0.0, 1.0, -1.0)])
    def test_refuses_a_grid_that_never_ends(self, monkeypatch, grid):
        # each grid would append forever; the loop rounds before its first
        # append, so a round that raises shows the loop is never entered
        def entered(*args):
            raise AssertionError("entered the grid loop")

        monkeypatch.setattr(sweep, "round", entered, raising=False)
        with pytest.raises(AssertionError, match="entered"):
            sweep_values(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite grid with step > 0"):
            sweep_values(*grid)


class TestSweepSpec:
    def test_rho_sweep_must_stay_open(self, s1):
        with pytest.raises(ValueError, match="open interval"):
            SweepSpec(variable="rho", start=0.0, stop=0.9, step=0.1,
                      params=make_params(), stats=s1, sim=tiny_sim(),
                      schemes=(SchemePoint("spsr"),))

    def test_non_rho_sweep_needs_explicit_rho(self, s1):
        with pytest.raises(ValueError, match="explicit rho"):
            SweepSpec(variable="psi_db", start=0, stop=2, step=1,
                      params=make_params(), stats=s1, sim=tiny_sim(),
                      schemes=(SchemePoint("spsr"),))

    def test_integer_variable_grid_enforced(self, s1):
        with pytest.raises(ValueError, match="integer"):
            SweepSpec(variable="M", start=1, stop=3, step=0.5,
                      params=make_params(), stats=s1, sim=tiny_sim(),
                      schemes=(SchemePoint("spsr", 0.5),))

    @pytest.mark.parametrize("variable", ["psi_db", "M"])
    @pytest.mark.parametrize("field", ["start", "stop", "step"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_refused(self, s1, variable, field, bad):
        grid = {"start": 1.0, "stop": 3.0, "step": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SweepSpec(variable=variable, params=make_params(), stats=s1, sim=tiny_sim(),
                      schemes=(SchemePoint("spsr", 0.5),), **grid)

    def test_unknown_variable(self, s1):
        with pytest.raises(ValueError, match="variable"):
            SweepSpec(variable="eta", start=0, stop=1, step=0.1,
                      params=make_params(), stats=s1, sim=tiny_sim())


class TestRunSweep:
    def test_row_count_for_three_curves(self, s1):
        # 21 grid points x 3 curves
        spec = SweepSpec(variable="psi_db", start=-5, stop=15, step=1,
                         params=make_params(), stats=s1, sim=tiny_sim(),
                         schemes=(SchemePoint("spsr", 0.225), SchemePoint("spsr", 0.875),
                                  SchemePoint("dpsr")),
                         outputs="op")
        result = run_sweep(spec)
        assert len(result.rows) == 63
        assert all(r.error == "" for r in result.rows)
        assert all(r.ip_analytic is None and r.ip_mc is None for r in result.rows)

    def test_single_point_sweep(self, s1):
        spec = SweepSpec(variable="psi_db", start=2, stop=2, step=1,
                         params=make_params(), stats=s1, sim=tiny_sim(),
                         schemes=(SchemePoint("spsr", 0.5),), outputs="op")
        result = run_sweep(spec)
        assert len(result.rows) == 1

    def test_rho_sweep_dpsr_rows_flat(self, s1):
        spec = SweepSpec(variable="rho", start=0.2, stop=0.8, step=0.3,
                         params=make_params(), stats=s1, sim=tiny_sim(),
                         schemes=(SchemePoint("spsr"), SchemePoint("dpsr")),
                         outputs="op")
        result = run_sweep(spec)
        dpsr = [r.op_analytic for r in result.rows if r.scheme == "dpsr"]
        assert dpsr == pytest.approx([dpsr[0]] * len(dpsr), rel=1e-12)
        static = [r.op_analytic for r in result.rows if r.scheme == "spsr"]
        assert len(set(static)) == len(static)

    def test_security_reliability_trade_off_pairs(self, s1):
        # along a rising-power sweep with both outputs, reliability improves
        # exactly as secrecy degrades: analytic OP strictly falls while
        # analytic IP strictly rises row by row
        spec = SweepSpec(variable="psi_db", start=-4, stop=12, step=4,
                         params=make_params(rho=0.55), stats=s1,
                         sim=tiny_sim(trials=100_000),
                         schemes=(SchemePoint("spsr", 0.55),), outputs="both")
        rows = run_sweep(spec).rows
        ops = [r.op_analytic for r in rows]
        ips = [r.ip_analytic for r in rows]
        assert all(a > b for a, b in zip(ops, ops[1:]))
        assert all(a < b for a, b in zip(ips, ips[1:]))
        # and the Monte-Carlo columns trace the same trade-off within noise
        for r in rows:
            assert abs(r.op_mc - r.op_analytic) < 3 * r.op_ci + 1e-3
            assert abs(r.ip_mc - r.ip_analytic) < 3 * r.ip_ci + 1e-3

    def test_same_point_schemes_share_draws(self, s1):
        spec = SweepSpec(variable="psi_db", start=2, stop=2, step=1,
                         params=make_params(), stats=s1, sim=tiny_sim(trials=20_000),
                         schemes=(SchemePoint("spsr", 0.55), SchemePoint("dpsr")),
                         outputs="op")
        rows = run_sweep(spec).rows
        # common random numbers: dynamic can only lower the outage count
        assert rows[1].op_mc <= rows[0].op_mc

    def test_one_draw_per_block_per_worker_per_point(self, s1, monkeypatch):
        # two workers of two blocks each at each of two points
        lock = threading.Lock()
        calls = 0
        draw = montecarlo.draw_channels

        def counted(*args, **kwargs):
            nonlocal calls
            with lock:
                calls += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "draw_channels", counted)
        three = (SchemePoint("spsr", 0.225), SchemePoint("spsr", 0.875), SchemePoint("dpsr"))
        for schemes in (three[:1], three):
            calls = 0
            spec = SweepSpec(variable="psi_db", start=0, stop=10, step=10,
                             params=make_params(), stats=s1,
                             sim=tiny_sim(trials=4 * ROW_BLOCK - 2, workers=2),
                             schemes=schemes, outputs="op")
            assert len(run_sweep(spec).rows) == 2 * len(schemes)
            assert calls == 2 * 2 * 2

    def test_mc_failure_marks_every_row_of_its_point(self, s1, monkeypatch):
        gamma_e = montecarlo.gamma_e
        failing_psi = 10.0 ** (5.0 / 10.0)

        def planted(p, *args, **kwargs):
            if p.psi == failing_psi:
                raise ValueError("planted mc failure")
            return gamma_e(p, *args, **kwargs)

        def refuse(p, s):
            raise QuadratureError("planted op failure", 0.5, 1.0)

        monkeypatch.setattr(montecarlo, "gamma_e", planted)
        monkeypatch.setattr(sweep, "op_spsr", refuse)
        spec = SweepSpec(variable="psi_db", start=0, stop=10, step=5,
                         params=make_params(), stats=s1, sim=tiny_sim(),
                         schemes=(SchemePoint("spsr", 0.225), SchemePoint("dpsr")),
                         outputs="both")
        rows = run_sweep(spec).rows
        assert [(r.value, r.scheme) for r in rows] == [
            (v, label) for v in (0.0, 5.0, 10.0) for label in ("spsr@0.225", "dpsr")]
        for r in rows:
            assert r.ip_analytic is not None
            assert (r.op_analytic is None) == (r.scheme == "spsr@0.225")
            failed = r.value == 5.0
            assert (r.op_mc is None and r.ip_mc is None and r.ip_ci is None) == failed
            expected = ["analytic op: planted op failure"] if r.scheme == "spsr@0.225" else []
            expected += ["mc: planted mc failure"] if failed else []
            assert r.error == "; ".join(expected)

    def test_runtime_is_analytic_time_plus_a_share_of_the_point_mc(self, s1, monkeypatch):
        simulate = sweep.simulate_point

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(sweep, "simulate_point", slow)
        spec = SweepSpec(variable="psi_db", start=0, stop=0, step=1,
                         params=make_params(), stats=s1, sim=tiny_sim(),
                         schemes=(SchemePoint("spsr", 0.225), SchemePoint("spsr", 0.875),
                                  SchemePoint("dpsr")),
                         outputs="op")
        rows = run_sweep(spec).rows
        # each row carries a third of the 300 ms, not all of it
        assert all(r.runtime_ms >= 100.0 for r in rows)
        assert sum(r.runtime_ms for r in rows) < 600.0

    def test_failing_op_keeps_the_ip_cell(self, s1, monkeypatch):
        def refuse(p, s):
            raise QuadratureError("planted failure", 0.5, 1.0)

        monkeypatch.setattr(sweep, "op_spsr", refuse)
        spec = SweepSpec(variable="psi_db", start=2, stop=2, step=1,
                         params=make_params(), stats=s1, sim=tiny_sim(),
                         schemes=(SchemePoint("spsr", 0.55), SchemePoint("dpsr")),
                         outputs="both")
        static, dynamic = run_sweep(spec).rows
        assert static.op_analytic is None and static.op_mc is not None
        assert static.ip_analytic is not None
        assert static.error == "analytic op: planted failure"
        assert dynamic.error == "" and dynamic.op_analytic is not None

    def test_no_cell_comes_from_a_reference_kernel(self, s1, monkeypatch):
        # the adaptive quadrature, series and Bessel-K/Meijer-G kernels serve
        # only the paper-form references; every sweep cell must be filled
        # without them
        reached = []

        def forbid(name):
            def kernel(*args, **kwargs):
                reached.append(name)
                raise AssertionError(f"sweep reached the reference kernel {name}")
            return kernel

        for module in (specfun, analytic, reference):
            for name in ("integrate", "sum_series", "bessel_k", "meijer_g3013", "gamma_fn"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbid(name))
        for jamming in (True, False):
            for psi_db in (-10.0, 10.0, 40.0):
                spec = SweepSpec(variable="M", start=1, stop=12, step=1,
                                 params=make_params(psi_db=psi_db), stats=s1,
                                 sim=tiny_sim(trials=256, jamming=jamming, e1_mode="exact"),
                                 schemes=(SchemePoint("spsr", 0.225), SchemePoint("spsr", 0.875),
                                          SchemePoint("dpsr")),
                                 outputs="both")
                rows = run_sweep(spec).rows
                assert len(rows) == 36
                for r in rows:
                    assert r.error == ""
                    assert r.op_analytic is not None and r.ip_analytic is not None
        assert reached == []


class TestCsvRoundTrip:
    def test_identical_values(self, s1, tmp_path):
        spec = SweepSpec(variable="psi_db", start=0, stop=4, step=2,
                         params=make_params(), stats=s1, sim=tiny_sim(),
                         schemes=(SchemePoint("spsr", 0.5),), outputs="both")
        result = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        back = read_csv(path)
        assert back.variable == result.variable
        # one serialization round trip is idempotent at 12 significant digits
        path2 = tmp_path / "sweep2.csv"
        write_csv(back, path2)
        assert path.read_text() == path2.read_text()
        for a, b in zip(result.rows, back.rows):
            assert b.op_mc == pytest.approx(a.op_mc, rel=1e-11)
            assert b.ip_analytic == pytest.approx(a.ip_analytic, rel=1e-11)

    def test_lf_line_endings_and_nulls(self, s1, tmp_path):
        result = SweepResult("psi_db", [SweepRow(value=1.0, scheme="dpsr")])
        path = tmp_path / "row.csv"
        write_csv(result, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[1] == "1,dpsr,,,,,,,,"
        row = read_csv(path).rows[0]
        assert row.op_analytic is None and row.ip_ci is None


class TestCompareReport:
    def _result(self):
        rows = [SweepRow(value=float(v), scheme="spsr@0.5",
                         op_analytic=0.2, op_mc=0.2005, op_ci=0.002,
                         ip_analytic=0.1, ip_mc=0.0996, ip_ci=0.002)
                for v in range(5)]
        return SweepResult("psi_db", rows)

    def test_agreeing_rows_unflagged(self):
        report = compare_report(self._result())
        assert report.flagged == []
        assert report.n_compared == 10
        assert report.per_scheme["spsr@0.5"]["max_gap"] == pytest.approx(0.0005, rel=1e-9)

    def test_corrupted_analytic_flags_everything(self):
        result = self._result()
        for row in result.rows:
            row.op_analytic = 0.9
            row.ip_analytic = 0.9
        report = compare_report(result)
        assert len(report.flagged) == report.n_compared
        assert report.flagged_fraction == 1.0

    @pytest.mark.parametrize("allowance", [math.nan, math.inf, -math.inf])
    def test_non_finite_gap_allowance_refused(self, allowance):
        # a NaN bound flags nothing, so the gate would always pass
        with pytest.raises(ValueError, match="gap_allowance must be finite"):
            compare_report(self._result(), gap_allowance=allowance)

    def test_missing_metrics_skipped(self):
        result = self._result()
        for row in result.rows:
            row.ip_analytic = None
        report = compare_report(result)
        assert report.n_compared == 5

    def test_reference_sweep_agreement_tracks_first_slot_model(self, s1):
        # the analytic intercept realizes the jamming-dominated first-slot
        # model: an approx-mode simulation agrees everywhere, while an
        # exact-mode one exposes a genuine modeling gap (up to ~0.04 here)
        # that the flagging rule must catch
        def sweep(mode):
            spec = SweepSpec(
                variable="psi_db", start=-5, stop=15, step=2,
                params=make_params(rho=0.55), stats=s1,
                sim=SimConfig(trials=1_000_000, seed=99, jamming=True, e1_mode=mode),
                schemes=(SchemePoint("spsr", 0.55),), outputs="ip")
            return compare_report(run_sweep(spec))
        approx = sweep("approx")
        assert approx.n_compared == 11
        assert approx.flagged_fraction <= 0.10
        exact = sweep("exact")
        assert exact.flagged_fraction > 0.5


class TestCli:
    def test_scenario_check_ok(self, capsys):
        assert main(["scenario-check", "--scenario", "s1"]) == 0
        out = capsys.readouterr().out
        assert "lambda_se = 3.14339" in out

    def test_scenario_check_flags_mismatch(self, tmp_path, capsys):
        f = tmp_path / "bad.scenario"
        f.write_text("chi = 2.5\npositions.S = 0,0\npositions.R = 0.5,0\n"
                     "positions.D = 1,0\npositions.E = 0.5,1.5\npositions.J = 0.5,1\n"
                     "lambda.se = 9.9\n")
        assert main(["scenario-check", "--scenario", str(f)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_scenario_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "broken.scenario"
        f.write_text("chi 2.5\n")
        assert main(["scenario-check", "--scenario", str(f)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_point_runs(self, capsys):
        rc = main(["point", "--scenario", "s2", "--scheme", "spsr", "--rho", "0.5",
                   "--trials", "5000", "--e1-mode", "approx"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OP analytic" in out and "IP mc" in out

    def test_point_is_row_zero_of_a_one_point_sweep(self, tmp_path):
        args = ["--scenario", "s1", "--scheme", "dpsr", "--psi-db", "2", "--trials", "3000",
                "--e1-mode", "approx", "--seed", "7"]
        assert main(["point", *args, "--output", str(tmp_path / "p.csv")]) == 0
        assert main(["sweep", *args, "--sweep", "psi_db:2:2:1",
                     "--output", str(tmp_path / "s.csv")]) == 0
        point, = read_csv(tmp_path / "p.csv").rows
        row, = read_csv(tmp_path / "s.csv").rows
        point.runtime_ms = row.runtime_ms = None
        assert point == row

    @pytest.mark.parametrize("jamming", ["on", "off"])
    def test_shared_point_run_equals_one_scheme_sweeps(self, tmp_path, jamming):
        args = ["--scenario", "s1", "--sweep", "psi_db:0:10:10", "--trials", "6000",
                "--workers", "2", "--outputs", "both", "--jamming", jamming,
                "--e1-mode", "exact", "--seed", "11"]

        def mc_columns(name, *scheme_args):
            path = tmp_path / f"{name}.csv"
            main(["sweep", *args, *scheme_args, "--output", str(path)])
            return {(r.value, r.scheme): (r.op_mc, r.op_ci, r.ip_mc, r.ip_ci)
                    for r in read_csv(path).rows}

        shared = mc_columns("shared", "--scheme", "spsr,dpsr", "--rho", "0.225,0.875")
        alone = {}
        for i, scheme_args in enumerate((("--scheme", "spsr", "--rho", "0.225"),
                                         ("--scheme", "spsr", "--rho", "0.875"),
                                         ("--scheme", "dpsr"))):
            alone.update(mc_columns(f"alone{i}", *scheme_args))
        assert len(shared) == 6
        assert all(None not in cells for cells in shared.values())
        assert shared == alone

    def test_sweep_and_compare(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        rc = main(["sweep", "--scenario", "s1", "--sweep", "psi_db:0:2:1",
                   "--scheme", "spsr", "--rho", "0.3,0.7", "--trials", "5000",
                   "--e1-mode", "approx", "--output", str(out_csv)])
        assert rc == 0
        assert len(read_csv(out_csv).rows) == 6
        assert main(["compare", "--input", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "compared 12 analytic/mc pairs" in out

    def test_compare_max_flagged_gate(self, tmp_path):
        rows = [SweepRow(value=1.0, scheme="dpsr", op_analytic=0.9, op_mc=0.1, op_ci=0.001)]
        path = tmp_path / "bad.csv"
        write_csv(SweepResult("psi_db", rows), path)
        assert main(["compare", "--input", str(path)]) == 0  # report-only default
        assert main(["compare", "--input", str(path), "--max-flagged", "0.5"]) == 1

    def test_sweep_fail_on_flags_gate(self, tmp_path):
        out_csv = tmp_path / "gap.csv"
        base = ["sweep", "--scenario", "s1", "--sweep", "psi_db:2:4:2",
                "--scheme", "spsr", "--rho", "0.55", "--trials", "300000",
                "--outputs", "ip", "--output", str(out_csv)]
        # exact-mode simulation exposes the first-slot modeling gap (~0.035)
        assert main(base + ["--e1-mode", "exact", "--fail-on-flags", "0.1"]) == 1
        assert main(base + ["--e1-mode", "approx", "--fail-on-flags", "0.1"]) == 0

    def test_one_metric_sweeps_write_the_joint_mc_columns(self, tmp_path):
        # two workers of just over one block each
        trials = str(2 * ROW_BLOCK + 3)
        cols = {}
        for outputs in ("op", "ip", "both"):
            path = tmp_path / f"{outputs}.csv"
            assert main(["sweep", "--scenario", "s1", "--sweep", "M:1:3:1", "--scheme", "spsr,dpsr",
                         "--rho", "0.5", "--trials", trials, "--workers", "2", "--seed", "4",
                         "--outputs", outputs, "--output", str(path)]) == 0
            rows = read_csv(path).rows
            assert len(rows) == 6
            cols[outputs] = {f"{m}_{c}": [getattr(r, f"{m}_{c}") for r in rows]
                             for m in ("op", "ip") for c in ("mc", "ci")}
        for metric, other in (("op", "ip"), ("ip", "op")):
            for c in ("mc", "ci"):
                assert cols[metric][f"{metric}_{c}"] == cols["both"][f"{metric}_{c}"]
                assert None not in cols[metric][f"{metric}_{c}"]
                assert cols[metric][f"{other}_{c}"] == [None] * 6

    def test_paper_fidelity_raises_trials(self, capsys):
        rc = main(["point", "--scenario", "s1", "--scheme", "spsr", "--rho", "0.5",
                   "--c-th", "0", "--trials", "10", "--paper-fidelity"])
        assert rc == 0
        assert "trials=5000000" in capsys.readouterr().out

    def test_rho_list_keyword(self, tmp_path):
        out_csv = tmp_path / "t.csv"
        rc = main(["sweep", "--scenario", "s1", "--sweep", "psi_db:2:2:1",
                   "--scheme", "spsr", "--rho", "table1", "--trials", "2000",
                   "--e1-mode", "approx", "--outputs", "op", "--output", str(out_csv)])
        assert rc == 0
        assert len(read_csv(out_csv).rows) == 5

    @pytest.mark.parametrize("grid,field", [
        ("psi_db:0:inf:1", "stop"), ("M:1:inf:1", "stop"), ("psi_db:nan:1:1", "start"),
        ("K:1:2:-inf", "step")])
    def test_sweep_reports_a_non_finite_grid(self, tmp_path, capsys, grid, field):
        out_csv = tmp_path / "g.csv"
        assert main(["sweep", "--scenario", "s1", "--sweep", grid, "--scheme", "spsr",
                     "--rho", "0.5", "--output", str(out_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be finite" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("args,message", [
        (["point", "--psi-db", "4000"], "4000 dB is beyond float range"),
        (["point", "--phi-db", "4000"], "4000 dB is beyond float range"),
        # a NaN psi would count no trial as an outage: MC estimates of 0 with CIs
        (["sweep", "--sweep", "M:1:2:1", "--psi-db", "nan"], "psi must be finite"),
        (["sweep", "--sweep", "M:1:2:1", "--phi-db", "nan"], "phi must be finite"),
        (["sweep", "--sweep", "M:1:2:1", "--c-th", "nan"], "target rate must be finite"),
        # refused before any cell is computed, not by every row's MC run
        (["point", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["sweep", "--sweep", "M:1:2:1", "--seed", "-1"], "seed must be non-negative, got -1"),
    ], ids=["point-psi-db", "point-phi-db", "psi-nan", "phi-nan", "c-th-nan",
            "point-seed-negative", "sweep-seed-negative"])
    def test_unusable_model_value_reported(self, tmp_path, capsys, args, message):
        out_csv = tmp_path / "o.csv"
        extra = ["--output", str(out_csv)] if args[0] == "sweep" else []
        assert main([*args, "--scenario", "s1", "--trials", "1000", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("grid,good,message", [
        ("psi_db:3000:3100:100", 3000.0, "3100 dB is beyond float range"),
        ("phi_db:3000:3100:100", 3000.0, "3100 dB is beyond float range"),
        # -3300 dB underflows psi to 0
        ("psi_db:-3300:-300:3000", -300.0, "psi must be finite and positive"),
    ])
    def test_unusable_sweep_point_marks_its_rows(self, tmp_path, capsys, grid, good, message):
        out_csv = tmp_path / "o.csv"
        assert main(["sweep", "--scenario", "s1", "--sweep", grid, "--outputs", "op",
                     "--trials", "100", "--output", str(out_csv)]) == 1
        rows = read_csv(out_csv).rows
        assert len(rows) == 4  # two points of spsr@0.5 and dpsr
        for row in rows:
            if row.value == good:
                assert row.error == "" and row.op_analytic is not None and row.op_mc is not None
            else:
                assert message in row.error and row.op_analytic is None and row.op_mc is None
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("args", [
        ["compare", "--max-flagged", "0", "--gap-allowance", "nan"],
        ["compare", "--max-flagged", "nan"],
        ["compare", "--gap-allowance", "inf"],
        ["sweep", "--fail-on-flags", "nan"]],
        ids=["gap-allowance-nan", "max-flagged-nan", "gap-allowance-inf", "fail-on-flags-nan"])
    def test_non_finite_gate_refused(self, tmp_path, capsys, args):
        # a NaN gate never fails: every comparison with it is false
        path = tmp_path / "flagged.csv"
        rows = [SweepRow(value=1.0, scheme="dpsr", op_analytic=0.9, op_mc=0.1, op_ci=0.001)]
        write_csv(SweepResult("psi_db", rows), path)
        where = (["--input", str(path)] if args[0] == "compare" else
                 ["--scenario", "s1", "--sweep", "psi_db:2:2:1", "--scheme", "dpsr",
                  "--trials", "1000", "--outputs", "op", "--output", str(tmp_path / "s.csv")])
        with pytest.raises(SystemExit) as exc:
            main([*args, *where])
        assert exc.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    def test_unknown_scenario_exit(self, capsys):
        assert main(["point", "--scenario", "missing-file"]) == 1
        assert "cannot resolve" in capsys.readouterr().err

    def _short_row_csv(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(SweepResult("psi_db", [SweepRow(value=1.0, scheme="dpsr")]), path)
        header, row = path.read_text().splitlines()
        path.write_text(f"{header}\n{row}\n1,dpsr,0.5\n")
        return path

    def test_read_csv_names_the_file_and_line_of_a_short_row(self, tmp_path):
        path = self._short_row_csv(tmp_path)
        with pytest.raises(ValueError, match=r"short\.csv, line 3: 3 fields, the header has 10"):
            read_csv(path)

    def test_compare_reports_a_short_row(self, tmp_path, capsys):
        path = self._short_row_csv(tmp_path)
        assert main(["compare", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3" in err

    def test_compare_reports_a_record_the_csv_module_rejects(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        row = SweepRow(value=1.0, scheme="x" * (csv.field_size_limit() + 1))
        write_csv(SweepResult("psi_db", [row]), path)
        with pytest.raises(ValueError, match=r"big\.csv, line 2: field larger than"):
            read_csv(path)
        assert main(["compare", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_compare_reports_an_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"empty\.csv: empty file"):
            read_csv(path)
        assert main(["compare", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_compare_reports_a_missing_input(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        assert main(["compare", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.csv" in err
