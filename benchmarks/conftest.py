"""Shared infrastructure for the figure-regenerating benchmarks.

Every ``bench_*.py`` regenerates one table or figure of the paper's
evaluation: it sweeps a catalog entry exactly as the catalog defines it
(:func:`entry_sweep`), reduces the sweep with a function of
:mod:`repro.experiments.figures`, prints the table and asserts the figure's
shape.  A bench states no window, load or grid of its own; a figure that
needs another point changes its entry, so the bench, the CLI's ``run`` of
the same name and ``docs/scenarios.md`` describe one experiment.  Each entry
is swept once per session: Figs. 8 and 9 and the headline share
``fig08-geo``, Figs. 10 and 14 and the headline share ``fig10-latency``, and
Figs. 12 and 13 share ``fig12-scalability``.

Results are printed through :func:`report`, which bypasses pytest's output
capture so the tables appear in ``bench_output.txt``, and are also appended
to ``benchmarks/results.txt``.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

from repro.experiments import SweepResult, get_scenario, sweep

#: Where the printed tables are also archived.
RESULTS_PATH = Path(__file__).parent / "results.txt"

MB = 1_000_000.0


@functools.cache
def entry_sweep(name: str) -> SweepResult:
    """Sweep the catalog entry ``name`` over its grid (once per session; the
    benches that share the result only read it)."""
    entry = get_scenario(name)
    return sweep(entry.base, entry.grid)


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
