"""Tests of the benchmark itself: tracer arithmetic, output checks, workloads.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import math
import signal
import sys
import time
import types
from pathlib import Path

import pytest

import checks
import run
import speed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_self_time_of_nested_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    # clock reads: outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7
    spans = tracer.table()
    assert spans.calls("outer") == 1 and spans.calls("inner") == 2 and spans.calls("leaf") == 2
    assert spans.total("outer") == 9
    assert spans.total("inner") == 6
    assert spans.self_total("outer") == 3
    assert spans.self_total("inner") == 4
    assert spans.self_total("leaf") == spans.total("leaf") == 2


def test_span_closes_and_error_counts_once_through_nested_spans():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    hook = {"on_error": lambda exc: tracer.count_error_once("errors", exc)}
    inner = tracer.wrap("inner", fail, **hook)
    outer = tracer.wrap("outer", lambda: inner(), **hook)
    with pytest.raises(ValueError):
        outer()
    assert tracer.counts == {"errors": 1}
    assert tracer._stack == [-1]
    spans = tracer.table()
    assert spans.calls("outer", "inner") == 2
    assert (spans.duration >= 0).all()


def test_patch_rebinds_and_restores_module_names():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()
    tracer.patch(module, "f", "mod.f")
    assert module.f(1) == 2 and tracer.table().calls("mod.f") == 1
    tracer.unpatch()
    assert module.f is original


def test_speed_sampler_probes_during_a_call_and_leaves_its_time_out(tmp_path):
    def busy(argv):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return 0

    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with speed.Sampler(period=0.01) as sampler:
        (call,) = run.run_pass(busy, [["sweep"]], tmp_path, sampler)
    elapsed = time.perf_counter() - t0
    assert len(sampler.samples) >= 5 and sampler.rate > 0
    assert sampler.probe_s == pytest.approx(sum(sampler.samples))
    assert call.seconds == pytest.approx(elapsed - sampler.probe_s, abs=0.01)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_speed_sampler_samples_once_after_a_pass_shorter_than_its_period():
    with speed.Sampler(period=10.0) as sampler:
        pass
    assert len(sampler.samples) == 1 and sampler.probe_s > 0 and sampler.rate > 0


ARGV = ["sweep", "--eta", "0.8", "--c-th", "0.5", "--phi-db", "1", "--psi-db", "2",
        "--num-sources", "2", "--num-jammers", "1", "--scenario", "s1",
        "--sweep", "psi_db:0:10:5", "--scheme", "spsr", "--rho", "0.5", "--outputs", "both"]
HEADER = "psi_db,scheme,op_analytic,op_mc,op_ci,ip_analytic,ip_mc,ip_ci,runtime_ms,error\n"


def test_checker_counts_planted_bad_values():
    call = checks.SweepCall.from_argv(ARGV)
    text = HEADER + (
        "0,spsr@0.5,0.3,0.3,0.01,0.2,0.2,0.01,1,\n"
        "5,spsr@0.5,1.5,0.3,0.01,0.2,0.2,0.01,1,\n"
        "10,spsr@0.5,0.3,0.3,0.01,nan,0.2,0.01,1,\n"
    )
    rep = checks.check_sweep(call, text, lambda c, v, s: 0.3)
    assert (rep.rows, rep.bad_cells, rep.failed_rows, rep.row_errors) == (3, 2, 2, 0)
    assert rep.analytic_cells == 6 and not rep.problems
    # the finite pairs that agree are not flagged; 1.5 against 0.3 is
    assert (rep.mc_compared, rep.mc_flagged) == (5, 1)


def test_checker_compares_op_with_the_reference_and_counts_unverified():
    call = checks.SweepCall.from_argv(ARGV)
    text = HEADER + (
        "0,spsr@0.5,0.3001,0.3,0.01,0.2,0.2,0.01,1,\n"
        "5,spsr@0.5,0.3,0.3,0.01,0.2,0.2,0.01,1,\n"
        "10,spsr@0.5,,0.3,0.01,,0.2,0.01,1,analytic: failed\n"
    )
    refs = {0.0: 0.3, 5.0: None}
    rep = checks.check_sweep(call, text, lambda c, v, s: refs[v])
    assert (rep.bad_cells, rep.unverified_cells, rep.row_errors, rep.failed_rows) == (1, 1, 1, 2)
    assert not rep.problems


def test_checker_reports_rows_that_miss_the_grid():
    call = checks.SweepCall.from_argv(ARGV)
    rep = checks.check_sweep(call, HEADER + "0,spsr@0.5,0.3,0.3,0.01,0.2,0.2,0.01,1,\n",
                             lambda c, v, s: 0.3)
    assert rep.problems


def test_crashed_or_unreproduced_sweeps_make_the_run_incorrect():
    good = run.Call(ARGV, 0, 1.0, HEADER + "".join(
        f"{v},spsr@0.5,0.3,0.3,0.01,0.2,0.2,0.01,1,\n" for v in (0, 5, 10)), "")
    crashed = run.Call(ARGV, None, 1.0, "", "Traceback ...")
    ref = lambda c, v, s: 0.3  # noqa: E731
    assert not run.check_pass([good], [good], ref).problems
    assert run.check_pass([crashed], [good], ref).problems
    assert run.check_pass([good], [crashed], ref).problems
    changed = run.Call(ARGV, 0, 1.0, good.csv.replace("0.2,0.2,0.01,1,\n", "0.2,0.21,0.01,1,\n", 1), "")
    assert run.check_pass([changed], [good], ref).problems


def test_row_parameters_follow_the_swept_variable():
    call = checks.SweepCall.from_argv(ARGV)
    assert call.grid == [0.0, 5.0, 10.0] and call.schemes == ["spsr@0.5"]
    p = call.params(5.0, "spsr@0.5")
    assert p["psi_db"] == 5.0 and p["rho"] == 0.5 and p["M"] == 2


def test_reference_matches_the_fast_route_and_is_cached(tmp_path):
    import swipt_plsec
    ref = checks.Reference(swipt_plsec, tmp_path)
    call = checks.SweepCall.from_argv(ARGV)
    p = swipt_plsec.SystemParams(eta=0.8, rho=0.5, psi=10 ** 0.5, phi=10 ** 0.1,
                                 num_sources=2, num_jammers=1, c_th=0.5)
    fast = swipt_plsec.op_spsr(p, swipt_plsec.resolve_scenario("s1"))
    value = ref(call, 5.0, "spsr@0.5")
    assert math.isclose(value, fast, rel_tol=1e-8)
    ref.save()
    again = checks.Reference(swipt_plsec, tmp_path)
    again._compute = None  # a cached value must not be recomputed
    assert again(call, 5.0, "spsr@0.5") == value


def tiny(argv: list[str]) -> list[str]:
    """One grid point and few trials."""
    out = list(argv)
    var, start, _, step = out[out.index("--sweep") + 1].split(":")
    out[out.index("--sweep") + 1] = f"{var}:{start}:{start}:{step}"
    out[out.index("--trials") + 1] = "512"
    return out


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for name, make in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name,
                            lambda seed, make=make: [tiny(a) for a in make(seed)])


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_each_workload_completes_at_a_tiny_size(workload, tiny_workloads, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json(capsys)
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) >= set(run.layers.UNITS)
    assert result["metrics"]["sweep.rows"]["value"] >= 1


def test_end_to_end_metrics_and_result_line(tiny_workloads, capsys):
    assert run.main(["--workload", "mc_op", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_per_layer_metrics_match_the_benchmark_file(tiny_workloads, capsys):
    assert run.main(["--workload", "op_envelope", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = last_json(capsys)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_gives_identical_mc_columns(tmp_path):
    argv = tiny(run.WORKLOADS["mc_op"](7)[0])
    main = run.load_program(ROOT / "src")[1]["cli"].main
    digests = [checks.column_digest(run.run_pass(main, [argv], tmp_path)[0].csv, checks.MC_COLUMNS)
               for _ in range(2)]
    other = tiny(run.WORKLOADS["mc_op"](8)[0])
    assert digests[0] == digests[1]
    assert checks.column_digest(run.run_pass(main, [other], tmp_path)[0].csv,
                                checks.MC_COLUMNS) != digests[0]


def test_refuses_to_run_without_a_source_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "mc_op", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
