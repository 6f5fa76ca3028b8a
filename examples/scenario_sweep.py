#!/usr/bin/env python3
"""The scenario engine in four short acts.

The engine (``docs/scenarios.md``) turns an experiment into data: a
:class:`~repro.experiments.scenario.ScenarioSpec` describes the run, a grid
describes what varies, and :func:`~repro.experiments.engine.sweep` runs every
point — in parallel across processes when the machine allows.  This example

1. builds a spec from a plain dict (the JSON-file form),
2. runs a single point,
3. sweeps a protocol x fault-count grid,
4. shows the same thing the CLI prints (``python -m repro.experiments run
   adversary-crash-mix``).

Run with::

    python examples/scenario_sweep.py
"""

from __future__ import annotations

from repro.experiments.engine import run_scenario, sweep
from repro.experiments.scenario import ScenarioSpec

#: A complete scenario as data — this dict could live in a JSON file.
SPEC_AS_DATA = {
    "name": "crash-tolerance",
    "protocol": "dl",
    "topology": {"kind": "uniform", "num_nodes": 7, "delay": 0.05},
    "bandwidth": {"kind": "constant", "rate": 4_000_000},
    "workload": {"kind": "saturating", "target_pending_bytes": 2_000_000},
    "node": {"max_block_size": 400_000},
    "duration": 15.0,
    "warmup": 3.0,
}


def main() -> None:
    spec = ScenarioSpec.from_dict(SPEC_AS_DATA)
    print(f"spec round-trips through JSON: {ScenarioSpec.from_json(spec.to_json()) == spec}\n")

    # Act 2: one deterministic point.
    point = run_scenario(spec)
    print(f"single run: mean throughput "
          f"{point.summary()['mean_throughput'] / 1e6:.2f} MB/s, "
          f"{point.result.events_processed} events "
          f"in {point.wall_clock_seconds:.2f}s wall clock\n")

    # Act 3: a grid — every (protocol, fault count) combination, run via the
    # sweep engine (worker processes when more than one CPU is available).
    grid = {
        "protocol": ("dl", "hb"),
        "faults": (
            {"adversary.kind": "none", "adversary.count": 0},
            {"adversary.kind": "crash", "adversary.count": 2},
        ),
    }
    outcome = sweep(spec, grid)
    print(outcome.table(columns=(
        "label", "protocol", "mean_throughput", "min_throughput", "delivered_epochs"
    )))
    mode = f"{outcome.workers} worker processes" if outcome.parallel else "serial"
    print(f"\n{len(outcome.points)} points in {outcome.wall_clock_seconds:.2f}s ({mode})")

    # f = 2 for n = 7: with 2 crashed nodes both protocols must keep
    # delivering at the honest nodes — that is the whole point of BFT.
    for point in outcome.points:
        if point.spec.adversary.count == 2:
            honest = point.result.delivered_epochs[:5]
            assert min(honest) >= 1, "a run with f crashed nodes stalled!"
    print("liveness held at every honest node with f nodes crashed ✔")


if __name__ == "__main__":
    main()
