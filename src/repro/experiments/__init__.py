"""Experiment harness: the scenario engine plus one runner per paper figure.

The heart of this package is the **scenario engine**: declarative
:class:`ScenarioSpec` descriptions of a run (protocol, topology, bandwidth
model, adversary placement, workload, duration), a catalog of named
scenarios, and one execution path.  :func:`run_scenario` runs one point and
:func:`sweep` a parameter grid; both go through
:func:`repro.experiments.engine.run_points`, which plans every point into
tasks — build or restore a simulation, then
:func:`repro.experiments.runner.execute` it through its stops (window
boundaries, checkpoints, the horizon) — and runs them in this process or on
one process pool.  *How* to execute (workers, windows, checkpoints, resume,
the sweep journal) is one :class:`ExecutionOptions` passed as ``options=``;
every strategy produces bit-identical summaries.  One CLI entry point::

    python -m repro.experiments list
    python -m repro.experiments run fig08-geo

==================  =======================================================
Paper reference      Runner
==================  =======================================================
Fig. 2 (S3.2)        ``run fig02-vid-cost`` /
                     :func:`repro.experiments.fig02.vid_cost_curve`
Fig. 8 (S6.2)        ``run fig08-geo`` /
                     :func:`repro.experiments.geo.run_geo_throughput`
Fig. 9 (S6.2)        :func:`repro.experiments.geo.progress_timelines`
Fig. 10 (S6.2)       ``run fig10-latency`` /
                     :func:`repro.experiments.latency.run_latency_sweep`
Fig. 11a (S6.3)      ``run fig11a-spatial`` /
                     :func:`repro.experiments.controlled.run_spatial_variation`
Fig. 11b (S6.3)      ``run fig11b-temporal`` /
                     :func:`repro.experiments.controlled.run_temporal_variation`
Fig. 12 (S6.4)       ``run fig12-scalability`` /
                     :func:`repro.experiments.scalability.model_sweep`
Fig. 13 (S6.4)       same sweep (``dispersal_fraction`` field)
Fig. 14 (App. A.1)   :func:`repro.experiments.latency.run_latency_metric_comparison`
Fig. 15 (App. A.2)   ``run fig15-vultr`` /
                     :func:`repro.experiments.geo.run_vultr_throughput`
Fig. 16 (App. A.3)   :class:`repro.workload.traces.GaussMarkovProcess`
Headline (S1)        :func:`repro.experiments.summary.run_headline_summary`
==================  =======================================================

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
{inspect,convert,export}`` works with trace files and per-run telemetry.

The benchmark scripts under ``benchmarks/`` call these runners with reduced
default durations so that ``pytest benchmarks/ --benchmark-only`` completes
in minutes; every runner takes a ``duration`` argument for longer runs.
"""

from repro.experiments.catalog import (
    SCENARIOS,
    NamedScenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.experiments.controlled import run_spatial_variation, run_temporal_variation
from repro.experiments.engine import (
    ScenarioResult,
    SweepResult,
    run_scenario,
    sweep,
)
from repro.experiments.cli import load_spec_file
from repro.experiments.fig02 import measure_avid_m_dispersal_cost, vid_cost_curve
from repro.experiments.golden import canonical_json, golden_names, golden_payload
from repro.experiments.options import ExecutionOptions
from repro.experiments.geo import progress_timelines, run_geo_throughput, run_vultr_throughput
from repro.experiments.latency import run_latency_metric_comparison, run_latency_sweep
from repro.experiments.runner import (
    PROTOCOLS,
    WORKLOADS,
    ExperimentResult,
    WorkloadSpec,
    register_protocol,
    register_workload,
    run_experiment,
    run_protocol_comparison,
)
from repro.experiments.scenario import (
    BANDWIDTH_MODELS,
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    apply_override,
    apply_overrides,
    build_network_config,
    expand_grid,
    register_bandwidth_model,
)
from repro.experiments.scalability import model_sweep, simulate_point, validate_cost_model
from repro.experiments.summary import headline_from_results, run_headline_summary
from repro.experiments.windowed import window_boundaries

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
    "golden_names",
    "golden_payload",
    "headline_from_results",
    "list_scenarios",
    "load_spec_file",
    "measure_avid_m_dispersal_cost",
    "model_sweep",
    "progress_timelines",
    "register_bandwidth_model",
    "register_protocol",
    "register_scenario",
    "register_workload",
    "run_experiment",
    "run_geo_throughput",
    "run_headline_summary",
    "run_latency_metric_comparison",
    "run_latency_sweep",
    "run_protocol_comparison",
    "run_scenario",
    "run_spatial_variation",
    "run_temporal_variation",
    "run_vultr_throughput",
    "simulate_point",
    "sweep",
    "validate_cost_model",
    "vid_cost_curve",
    "window_boundaries",
]
