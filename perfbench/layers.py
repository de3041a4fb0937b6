"""Layer boundaries of ``swipt_plsec`` and the per-layer metrics read off them.

Each boundary is a module-level name that a caller looks up at call time, so
rebinding it (see :class:`tracer.Tracer`) puts a span around every call from
that caller into the next layer down.  Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

from tracer import SpanTable, Tracer

# (calling module, name it calls, span name)
BOUNDARIES = (
    ("cli", "resolve_scenario", "scenario.resolve_scenario"),
    ("cli", "run_sweep", "sweep.run_sweep"),
    ("cli", "write_csv", "sweep.write_csv"),
    ("sweep", "analytic_op", "sweep.analytic_op"),
    ("sweep", "analytic_ip", "sweep.analytic_ip"),
    ("sweep", "op_spsr", "analytic.op_spsr"),
    ("sweep", "op_dpsr", "analytic.op_dpsr"),
    ("sweep", "ip_spsr_quadrature", "analytic.ip_spsr_quadrature"),
    ("sweep", "ip_dpsr_quadrature", "analytic.ip_dpsr_quadrature"),
    ("sweep", "ip_spsr_no_jamming", "analytic.ip_spsr_no_jamming"),
    ("sweep", "ip_dpsr_no_jamming", "analytic.ip_dpsr_no_jamming"),
    ("sweep", "simulate_point", "montecarlo.simulate_point"),
    ("montecarlo", "draw_channels", "channel.draw_channels"),
    ("montecarlo", "gamma_d_spsr", "core.gamma_d_spsr"),
    ("montecarlo", "gamma_d_dpsr", "core.gamma_d_dpsr"),
    ("montecarlo", "gamma_e", "core.gamma_e"),
    ("analytic", "integrate", "specfun.integrate"),
    ("analytic", "bessel_k", "specfun.bessel_k"),
    ("analytic", "sum_series", "specfun.sum_series"),
    ("analytic", "best_source_cdf", "channel.best_source_cdf"),
    ("analytic", "erlang_pdf_xi", "channel.erlang_pdf_xi"),
)

# metric name -> unit, for the metrics that :func:`layer_metrics` returns
UNITS = {
    "specfun.bessel_k_calls": "count",
    "specfun.bessel_k_s": "s",
    "specfun.integrate_calls": "count",
    "specfun.integrate_self_s": "s",
    "specfun.integrand_evals": "count",
    "specfun.series_terms": "count",
    "specfun.series_not_converged": "count",
    "specfun.quadrature_errors": "count",
    "analytic.op_spsr_s": "s",
    "analytic.op_dpsr_s": "s",
    "analytic.op_calls": "count",
    "analytic.ip_spsr_s": "s",
    "analytic.ip_dpsr_s": "s",
    "analytic.errors": "count",
    "channel.draw_s": "s",
    "channel.draw_calls": "count",
    "core.gamma_d_s": "s",
    "core.gamma_e_s": "s",
    "montecarlo.simulate_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.trials": "count",
    "montecarlo.trials_per_s": "1/s",
    "sweep.self_s": "s",
    "sweep.rows": "count",
    "cli.self_s": "s",
}


def install(tracer: Tracer, modules: dict[str, object]) -> None:
    """Rebind every boundary in ``modules`` (short name -> module) to a span."""
    quadrature = modules["specfun"].QuadratureError
    series = modules["specfun"].SeriesNotConverged

    def route_error(exc):
        tracer.count_error_once("analytic.errors", exc)

    def quad_error(exc):
        if isinstance(exc, quadrature):
            tracer.count_error_once("specfun.quadrature_errors", exc)

    def series_result(res, _args):
        tracer.count("specfun.series_terms", res.terms)
        if not res.converged:
            tracer.count("specfun.series_not_converged")

    def series_error(exc):
        if isinstance(exc, series):
            tracer.count("specfun.series_terms", exc.terms)
            tracer.count_error_once("specfun.series_not_converged", exc)

    def trials(_result, args):
        tracer.count("montecarlo.trials", args[2].trials)

    def rows(result, _args):
        tracer.count("sweep.rows", len(result.rows))

    hooks = {
        "sweep.analytic_op": {"on_error": route_error},
        "sweep.analytic_ip": {"on_error": route_error},
        "specfun.integrate": {"on_error": quad_error},
        "specfun.sum_series": {"on_result": series_result, "on_error": series_error},
        "montecarlo.simulate_point": {"on_result": trials},
        "sweep.run_sweep": {"on_result": rows},
    }
    for module, attr, name in BOUNDARIES:
        tracer.patch(modules[module], attr, name, **hooks.get(name, {}))

    # count integrand evaluations by wrapping the integrand handed to integrate
    traced_integrate = modules["analytic"].integrate

    def integrate(f, *args, **kwargs):
        def counted(x):
            tracer.count("specfun.integrand_evals")
            return f(x)
        return traced_integrate(counted, *args, **kwargs)

    modules["analytic"].integrate = integrate


def layer_metrics(spans: SpanTable, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    sim_s = spans.total("montecarlo.simulate_point")
    trials = counts.get("montecarlo.trials", 0)
    return {
        "specfun.bessel_k_calls": spans.calls("specfun.bessel_k"),
        "specfun.bessel_k_s": spans.total("specfun.bessel_k"),
        "specfun.integrate_calls": spans.calls("specfun.integrate"),
        "specfun.integrate_self_s": spans.self_total("specfun.integrate"),
        "specfun.integrand_evals": counts.get("specfun.integrand_evals", 0),
        "specfun.series_terms": counts.get("specfun.series_terms", 0),
        "specfun.series_not_converged": counts.get("specfun.series_not_converged", 0),
        "specfun.quadrature_errors": counts.get("specfun.quadrature_errors", 0),
        "analytic.op_spsr_s": spans.total("analytic.op_spsr"),
        "analytic.op_dpsr_s": spans.total("analytic.op_dpsr"),
        "analytic.op_calls": spans.calls("analytic.op_spsr", "analytic.op_dpsr"),
        "analytic.ip_spsr_s": spans.total("analytic.ip_spsr_quadrature",
                                          "analytic.ip_spsr_no_jamming"),
        "analytic.ip_dpsr_s": spans.total("analytic.ip_dpsr_quadrature",
                                          "analytic.ip_dpsr_no_jamming"),
        "analytic.errors": counts.get("analytic.errors", 0),
        "channel.draw_s": spans.total("channel.draw_channels"),
        "channel.draw_calls": spans.calls("channel.draw_channels"),
        "core.gamma_d_s": spans.total("core.gamma_d_spsr", "core.gamma_d_dpsr"),
        "core.gamma_e_s": spans.total("core.gamma_e"),
        "montecarlo.simulate_s": sim_s,
        "montecarlo.self_s": spans.self_total("montecarlo.simulate_point"),
        "montecarlo.trials": trials,
        "montecarlo.trials_per_s": trials / sim_s if sim_s > 0 else 0.0,
        "sweep.self_s": spans.self_total("sweep.run_sweep", "sweep.analytic_op",
                                         "sweep.analytic_ip", "sweep.write_csv"),
        "sweep.rows": counts.get("sweep.rows", 0),
        "cli.self_s": spans.self_total("cli.main"),
    }
