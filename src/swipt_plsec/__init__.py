"""Outage/intercept performance engine for an energy-harvesting AF relay network.

A two-hop amplify-and-forward link powered by RF energy harvesting at the
relay, with best-of-M source selection, an eavesdropper overhearing both
transmission slots, and K friendly jammers degrading only the eavesdropper.
The package pairs semi-analytic evaluators for the outage and intercept
probabilities (static and dynamic power splitting) with a reproducible
Monte-Carlo engine and a sweep harness that emits plot-ready CSV.
"""

from .analytic import (
    ip_dpsr_no_jamming,
    ip_dpsr_quadrature,
    ip_spsr_no_jamming,
    ip_spsr_quadrature,
    op_dpsr,
    op_spsr,
)
from .channel import (
    ChannelStats,
    best_source_cdf,
    draw_channels,
    erlang_pdf_xi,
    pathloss_rate,
)
from .core import (
    SnrPair,
    SystemParams,
    achievable_rate,
    gamma_d_dpsr,
    gamma_d_spsr,
    gamma_e,
    rho_star,
    snr_threshold,
)
from .montecarlo import EstimateWithCI, SimConfig, simulate_point
from .reference import (
    AnalyticConfig,
    ip_dpsr,
    ip_spsr,
    op_dpsr_quadrature,
    op_dpsr_series,
    op_spsr_closed_form,
    op_spsr_quadrature,
)
from .scenario import load_scenario, parse_scenario, resolve_scenario
from .specfun import (
    CancellationError,
    NumericalError,
    QuadratureError,
    QuadratureSpec,
    SeriesNotConverged,
    bessel_k,
    gamma_fn,
    integrate,
    meijer_g3013,
)
from .sweep import SchemePoint, SweepSpec, compare_report, read_csv, run_sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "AnalyticConfig",
    "CancellationError",
    "ChannelStats",
    "EstimateWithCI",
    "NumericalError",
    "QuadratureError",
    "QuadratureSpec",
    "SchemePoint",
    "SeriesNotConverged",
    "SimConfig",
    "SnrPair",
    "SweepSpec",
    "SystemParams",
    "achievable_rate",
    "best_source_cdf",
    "bessel_k",
    "compare_report",
    "draw_channels",
    "erlang_pdf_xi",
    "gamma_d_dpsr",
    "gamma_d_spsr",
    "gamma_e",
    "gamma_fn",
    "integrate",
    "ip_dpsr",
    "ip_dpsr_no_jamming",
    "ip_dpsr_quadrature",
    "ip_spsr",
    "ip_spsr_no_jamming",
    "ip_spsr_quadrature",
    "load_scenario",
    "meijer_g3013",
    "op_dpsr",
    "op_dpsr_quadrature",
    "op_dpsr_series",
    "op_spsr",
    "op_spsr_closed_form",
    "op_spsr_quadrature",
    "parse_scenario",
    "pathloss_rate",
    "read_csv",
    "resolve_scenario",
    "rho_star",
    "run_sweep",
    "simulate_point",
    "snr_threshold",
    "write_csv",
]
