"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.ba.coin import CommonCoin
from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.experiments.engine import ScenarioResult, build_scenario
from repro.experiments.runner import summarise_experiment
from repro.experiments.scenario import ScenarioSpec
from repro.sim.context import NodeContext
from repro.sim.instant import InstantNetwork
from repro.trace.observers import OBSERVERS
from repro.trace.recorder import write_jsonl


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/*.json snapshots from the current code "
        "instead of asserting against them",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should regenerate golden snapshots."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def params4() -> ProtocolParams:
    """The smallest Byzantine-tolerant cluster: N = 4, f = 1."""
    return ProtocolParams.for_n(4)


@pytest.fixture
def params7() -> ProtocolParams:
    """A cluster with f = 2 (N = 7)."""
    return ProtocolParams.for_n(7)


def build_cluster(
    node_class,
    params: ProtocolParams,
    seed: int | None = None,
    config: NodeConfig | None = None,
    max_epochs: int | None = 3,
    node_classes: dict[int, type] | None = None,
    **node_kwargs,
):
    """Build an instant-router cluster of ``node_class`` nodes.

    ``node_classes`` overrides the class of specific node ids (used to insert
    Byzantine nodes).  Returns ``(network, nodes)``.
    """
    network = InstantNetwork(params.n, seed=seed)
    coin = CommonCoin()
    config = config or NodeConfig(data_plane="real")
    nodes = []
    for node_id in range(params.n):
        cls = (node_classes or {}).get(node_id, node_class)
        ctx = NodeContext(node_id, network, network)
        node = cls(
            node_id,
            params,
            ctx,
            config=config,
            coin=coin,
            max_epochs=max_epochs,
            **node_kwargs,
        )
        network.attach(node_id, node)
        nodes.append(node)
    return network, nodes


def submit_texts(node, texts):
    """Submit a list of string payloads as transactions to ``node``."""
    return [node.submit_payload(text.encode()) for text in texts]


def build_scenario_state(spec: ScenarioSpec, overrides: dict | None = None):
    """The ready-to-run simulation of ``spec``, built the way the engine does.

    For tests that drive ``state.sim`` themselves (mid-run snapshots, event
    stepping, inspecting automata after the run).
    """
    return build_scenario(spec, overrides)


def reference_run(
    spec: ScenarioSpec, overrides: dict | None, out_dir: Path
) -> tuple[dict, bytes, bytes]:
    """The oracle: one straight-line run, sharing no plan, stop or task code.

    Returns ``(summary, telemetry bytes, span bytes)`` (empty bytes for an
    observer the spec leaves off) for every engine strategy to be compared
    against; ``overrides`` only label the summary.
    """
    state = build_scenario(spec, overrides)
    state.sim.run(until=spec.duration)
    files = []
    for row in OBSERVERS:
        observer = state.observers.get(row.name)
        if observer is None:
            files.append(b"")
            continue
        observer.finish()
        target = write_jsonl(out_dir / f"reference{row.suffix}", observer.rows)
        files.append(target.read_bytes())
    result = ScenarioResult(spec, dict(overrides or {}), summarise_experiment(state))
    return (result.summary(), *files)
