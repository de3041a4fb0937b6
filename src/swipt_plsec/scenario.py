"""Scenario definition files: flat key-value text mapped to :class:`ChannelStats`.

Format, one ``key = value`` pair per line (``#`` starts a comment):

    chi = 2.5
    distance_decimals = 4
    positions.S = 0.0, 0.0
    positions.R = 0.5, 0.0
    ...
    lambda.se = 3.1434      # optional; direct rates win over geometry

Either the full set of positions (S, R, D, E, J) or all five ``lambda.*``
keys must be present, and no key may appear twice.  Files are resolved by
path first, then by name inside ``$SWIPT_PLSEC_SCENARIO_DIR``, then among
the packaged scenarios (s1, s2).
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from .channel import LINK_KEYS, ChannelStats

__all__ = ["ScenarioError", "parse_scenario", "load_scenario", "resolve_scenario", "packaged_scenarios"]

_NODES = ("S", "R", "D", "E", "J")


class ScenarioError(ValueError):
    """A scenario file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        where = f"{source or 'scenario'}" + (f", line {line}" if line is not None else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.source = source


def _parse_pair(text: str, line: int, source: str) -> tuple[float, float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ScenarioError(f"expected two coordinates, got {text!r}", line, source)
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ScenarioError(f"bad coordinate in {text!r}", line, source) from None


def parse_scenario(text: str, source: str = "scenario") -> ChannelStats:
    """Parse scenario text into channel statistics."""
    chi: float | None = None
    decimals: int | None = None
    positions: dict[str, tuple[float, float]] = {}
    lambdas: dict[str, float] = {}
    first_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {raw.strip()!r}", lineno, source)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in first_line:
            raise ScenarioError(f"duplicate key {key!r}, first given on line {first_line[key]}",
                                lineno, source)
        first_line[key] = lineno
        try:
            if key == "chi":
                chi = float(value)
            elif key == "distance_decimals":
                decimals = int(value)
            elif key.startswith("positions."):
                node = key.split(".", 1)[1]
                if node not in _NODES:
                    raise ScenarioError(f"unknown node {node!r}", lineno, source)
                positions[node] = _parse_pair(value, lineno, source)
            elif key.startswith("lambda."):
                link = key.split(".", 1)[1]
                if link not in LINK_KEYS:
                    raise ScenarioError(f"unknown link {link!r}", lineno, source)
                lambdas[link] = float(value)
            else:
                raise ScenarioError(f"unknown key {key!r}", lineno, source)
        except ScenarioError:
            raise
        except ValueError:
            raise ScenarioError(f"bad value {value!r} for {key!r}", lineno, source) from None

    if positions:
        missing = set(_NODES) - set(positions)
        if missing:
            raise ScenarioError(f"positions incomplete, missing {sorted(missing)}", None, source)
        if chi is None:
            raise ScenarioError("geometry given but no pathloss exponent 'chi'", None, source)
        try:
            return ChannelStats.from_positions(positions, chi, decimals, overrides=lambdas)
        except ValueError as exc:
            raise ScenarioError(str(exc), None, source) from None

    missing = set(LINK_KEYS) - set(lambdas)
    if missing:
        raise ScenarioError(
            f"no geometry and lambda overrides incomplete, missing {sorted(missing)}", None, source)
    try:
        return ChannelStats(chi=chi, **{f"lambda_{k}": v for k, v in lambdas.items()})
    except ValueError as exc:
        raise ScenarioError(str(exc), None, source) from None


def load_scenario(path: str | Path) -> ChannelStats:
    path = Path(path)
    return parse_scenario(path.read_text(), source=str(path))


def packaged_scenarios() -> list[str]:
    """Names of the scenarios shipped with the package."""
    root = resources.files("swipt_plsec") / "scenarios"
    return sorted(p.name.removesuffix(".scenario") for p in root.iterdir() if p.name.endswith(".scenario"))


def resolve_scenario(name_or_path: str) -> ChannelStats:
    """Load a scenario by filesystem path, search-dir name, or packaged name."""
    p = Path(name_or_path)
    if p.is_file():
        return load_scenario(p)
    search_dir = os.environ.get("SWIPT_PLSEC_SCENARIO_DIR")
    candidates = [name_or_path, f"{name_or_path}.scenario"]
    if search_dir:
        for cand in candidates:
            q = Path(search_dir) / cand
            if q.is_file():
                return load_scenario(q)
    root = resources.files("swipt_plsec") / "scenarios"
    for cand in candidates:
        q = root / cand
        if q.is_file():
            return parse_scenario(q.read_text(), source=f"packaged:{cand}")
    raise ScenarioError(
        f"cannot resolve scenario {name_or_path!r} (packaged: {', '.join(packaged_scenarios())})")
