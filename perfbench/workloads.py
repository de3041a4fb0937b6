"""Benchmark workloads: fixed lists of ``swipt-plsec sweep`` argument vectors.

Every model parameter the output checks need is spelled out, so a change of
a CLI default cannot silently change a workload.  The workload seed is
passed to each sweep as ``--seed`` and is the only input it varies.
"""

from __future__ import annotations

# one-line reasons, also recorded in BENCHMARK.json
WHY = {
    "figure_ip": "paper figure run: nested IP quadrature in analytic/specfun dominates, MC does little",
    "mc_op": "closed-form OP is cheap, so MC draws dominate; draw width M+3+K varies over the grid",
    "op_envelope": "thousands of cheap OP series/closed-form calls over the declared envelope, "
                   "with known route failures",
}

# model parameters shared by every workload (the CLI defaults at the seed)
MODEL = ("--eta", "0.8", "--c-th", "0.5", "--phi-db", "1", "--jamming", "on",
         "--e1-mode", "exact")


def _sweep(seed: int, *args: str) -> list[str]:
    return ["sweep", *MODEL, "--seed", str(seed), *args]


def figure_ip(seed: int) -> list[list[str]]:
    # Two psi points of the paper's figure grid keep a pass near 8 s on two
    # cores; 2^17 trials put every analytic-vs-MC gap many CIs away from the
    # flag threshold, so a new MC stream cannot flip a flag by chance.
    return [_sweep(seed, "--scenario", "s1", "--psi-db", "2", "--num-sources", "2",
                   "--num-jammers", "1", "--sweep", "psi_db:0:10:10",
                   "--scheme", "spsr,dpsr", "--rho", "0.225,0.875",
                   "--outputs", "both", "--trials", "131072", "--workers", "1")]


def mc_op(seed: int) -> list[list[str]]:
    # --workers 2 equals nproc on the reference machine
    return [_sweep(seed, "--scenario", "s1", "--psi-db", "2", "--num-sources", "2",
                   "--num-jammers", "4", "--sweep", "M:1:8:1",
                   "--scheme", "spsr,dpsr", "--rho", "0.5",
                   "--outputs", "op", "--trials", "1000000", "--workers", "2")]


def op_envelope(seed: int) -> list[list[str]]:
    return [_sweep(seed, "--scenario", scenario, "--psi-db", str(psi), "--num-sources", "2",
                   "--num-jammers", "1", "--sweep", "M:1:64:1",
                   "--scheme", "spsr,dpsr", "--rho", "0.225,0.875",
                   "--outputs", "op", "--trials", "256", "--workers", "1")
            for scenario in ("s1", "s2") for psi in (-10, 10, 25, 40)]


WORKLOADS = {"figure_ip": figure_ip, "mc_op": mc_op, "op_envelope": op_envelope}
