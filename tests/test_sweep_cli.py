
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
from swipt_plsec.montecarlo import SimConfig
from swipt_plsec.sweep import SweepResult, SweepRow, sweep_values

from conftest import make_params


def tiny_sim(**kw):
    defaults = dict(trials=2000, seed=42, workers=1, scheme="spsr",
                    jamming=True, e1_mode="approx")
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
        # two workers of just over one chunk each: skips within and between chunks
        trials = str(2 * montecarlo._CHUNK + 3)
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

    def test_unknown_scenario_exit(self, capsys):
        assert main(["point", "--scenario", "missing-file"]) == 1
        assert "cannot resolve" in capsys.readouterr().err
