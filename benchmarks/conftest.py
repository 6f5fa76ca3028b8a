"""Shared infrastructure for the figure-regenerating benchmarks.

Every ``bench_fig*.py`` regenerates one table or figure of the paper's
evaluation: it sweeps a catalog entry (:func:`sweep_entry`) and prints a
reduction from :mod:`repro.experiments.figures`.  The simulated durations
default to values short enough that the whole suite finishes in minutes;
set ``REPRO_BENCH_DURATION`` (seconds of virtual time) for longer, smoother
runs closer to the paper's 2+ minute measurements.

Results are printed through :func:`report`, which bypasses pytest's output
capture so the tables appear in ``bench_output.txt``, and are also appended
to ``benchmarks/results.txt``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import SweepResult, get_scenario, sweep

#: Default virtual duration (seconds) of the heavier WAN simulations.
DEFAULT_DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "15"))
#: Where the printed tables are also archived.
RESULTS_PATH = Path(__file__).parent / "results.txt"

MB = 1_000_000.0


def bench_duration(scale: float = 1.0) -> float:
    """Virtual seconds to simulate for one run (scaled per experiment)."""
    return DEFAULT_DURATION * scale


def sweep_entry(name: str, grid: dict | None = None, **overrides) -> SweepResult:
    """Sweep the catalog entry ``name`` — the one definition of its experiment.

    A figure's departures from its entry are stated here, at the call site:
    ``overrides`` replace fields of the entry's base spec (``duration``,
    ``seed``, …) and ``grid``, when given, replaces the entry's axes.
    """
    entry = get_scenario(name)
    return sweep(replace(entry.base, **overrides), entry.grid if grid is None else grid)


def report(*lines: str) -> None:
    """Print result lines past pytest's capture and archive them."""
    text = "\n".join(lines)
    print(text, file=sys.__stdout__, flush=True)
    with RESULTS_PATH.open("a", encoding="utf-8") as handle:
        handle.write(text + "\n")


def fmt_mbps(value: float) -> str:
    """Format a bytes/second value as MB/s with two decimals."""
    return f"{value / MB:6.2f} MB/s"


def fmt_ms(value: float | None) -> str:
    """Format a seconds value as milliseconds."""
    return "   n/a" if value is None else f"{value * 1e3:6.0f} ms"


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start each benchmark session with a clean results archive."""
    if RESULTS_PATH.exists():
        RESULTS_PATH.unlink()
    yield
