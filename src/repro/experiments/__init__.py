"""Experiment harness: the scenario engine, the catalog and the paper's figures.

The heart of this package is the **scenario engine**: declarative
:class:`ScenarioSpec` descriptions of a run (protocol, topology, bandwidth
model, adversary placement, workload, duration), a catalog of named
scenarios, and one execution path.  :func:`run_scenario` runs one point and
:func:`sweep` a parameter grid; both go through
:func:`repro.experiments.engine.run_points`, which runs every point as one
task — build or restore a simulation, then
:func:`repro.experiments.runner.execute` it through its stops (periodic
checkpoints, the horizon) — in this process or on one process pool.  *How*
to execute (workers, checkpoint path, resume, the sweep journal) is one
:class:`ExecutionOptions` passed as ``options=``;
every strategy produces bit-identical summaries.  One CLI entry point::

    python -m repro.experiments list
    python -m repro.experiments run fig08-geo

Each experiment of the paper's evaluation is defined once, as a catalog
entry (``fig02-vid-cost``, ``fig08-geo``, ``fig10-latency``,
``fig11a-spatial``, ``fig11b-temporal``, ``fig12-scalability``,
``fig15-vultr``); a figure is that entry swept and then reduced by a pure
function of :mod:`repro.experiments.figures`, whose docstring holds the
figure -> entry -> reduction table.

Beyond the paper, the catalog grows scenario coverage with bandwidth churn
(``bandwidth-flapping``), heavy-tailed stragglers (``straggler-hetero``),
crash-fault mixes (``adversary-crash-mix``), mid-run churn
(``mid-run-crash``), non-stationary workloads (``bursty-load``), Byzantine
node-class adversaries on the timed simulator (``censor-victim``,
``equivocate-split``, ``latency-fault-matrix``) and measured-bandwidth
replay (``trace-replay-wan``, ``trace-scale-sweep``, built on
:mod:`repro.trace` with bundled traces under ``traces/``); see
``docs/scenarios.md``.  ``run``/``show`` also take a path to a spec file
(curated ones under ``scenarios/``), every catalog scenario is pinned
bit-for-bit by the golden-summary suite (:mod:`repro.experiments.golden`,
snapshots in ``tests/golden/``; expensive scenarios live in a ``slow``
CI-only tier), and ``python -m repro.experiments trace
{inspect,convert,export,summarise,diff,spans,flame}`` works with
trace files, per-run telemetry and causal spans.

The ``benchmarks/bench_*.py`` scripts sweep those entries as defined and
print the figure tables.
"""

from repro.experiments.catalog import (
    SCENARIOS,
    NamedScenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.experiments.engine import (
    ScenarioResult,
    SweepResult,
    run_scenario,
    sweep,
)
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import (
    PROTOCOLS,
    WORKLOADS,
    ExperimentResult,
    WorkloadSpec,
    register_protocol,
    register_workload,
)
from repro.experiments.scenario import (
    BANDWIDTH_MODELS,
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    apply_override,
    apply_overrides,
    build_network_config,
    canonical_json,
    expand_grid,
    register_bandwidth_model,
)

__all__ = [
    "BANDWIDTH_MODELS",
    "BandwidthSpec",
    "ExecutionOptions",
    "ExperimentResult",
    "NamedScenario",
    "PROTOCOLS",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepResult",
    "TopologySpec",
    "WORKLOADS",
    "WorkloadSpec",
    "apply_override",
    "apply_overrides",
    "build_network_config",
    "canonical_json",
    "expand_grid",
    "get_scenario",
    "list_scenarios",
    "register_bandwidth_model",
    "register_protocol",
    "register_scenario",
    "register_workload",
    "run_scenario",
    "sweep",
]
