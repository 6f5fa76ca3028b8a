"""The six pinned workloads of the performance ledger.

Each workload is a catalog scenario plus overrides, so it runs the code paths
real sweeps run.  They were chosen to separate layers: for every layer one
workload spends most of its host time there and at least one other bypasses
it (see ``README.md`` for the bypass predictions).  ``--seed`` becomes
``spec.seed`` of every point; the program under test sees only the resolved
:class:`~repro.experiments.ScenarioSpec`.

``BENCHMARK.json`` declares four of them to the automated driver;
``latency7-poisson`` (a second use of the object plane) and
``wan8-checkpointed`` (the engine and observers) run in the suite only, because
on a shared 2-core host a steady median needs ~30 s per run and the driver's
time cap pays for that on four workloads, not six.

Sizes are pinned so one untraced repetition costs ~2.5-4 s of host time on the
2-core reference box.  Work is bounded by virtual ``duration`` (or by
``max_epochs`` where the seed would otherwise change how much work a run
does), never by host time, so simulated results repeat exactly per seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import SnapshotError
from repro.experiments import (
    ExecutionOptions,
    ScenarioResult,
    ScenarioSpec,
    apply_overrides,
    canonical_json,
    get_scenario,
)
from repro.sim.snapshot import load_checkpoint
from repro.trace.recorder import read_jsonl


@dataclass(frozen=True)
class Point:
    """One ``run_scenario`` call of a workload."""

    overrides: dict[str, Any]
    spec: ScenarioSpec
    options: ExecutionOptions | None = None


@dataclass(frozen=True)
class Workload:
    """A named, pinned input of the benchmark.

    ``base`` overrides the catalog entry; each dict in ``points`` is one
    ``run_scenario`` call on top of it; ``smoke`` shrinks the run for
    ``--smoke``.  ``observers`` turns on telemetry and spans and sends them
    and the spec's periodic checkpoint to the run's work directory.  ``check``
    is the workload-specific output check (returns a list of failure strings).
    """

    name: str
    why: str
    scenario: str
    base: dict[str, Any]
    smoke: dict[str, Any]
    points: tuple[dict[str, Any], ...] = ({},)
    observers: bool = False
    check: Callable[[list[ScenarioResult], list[Point]], list[str]] | None = None


def _honest(result: ScenarioResult) -> list[int]:
    run = result.result
    adversarial = set(result.spec.adversary.placement(run.num_nodes))
    return [node for node in range(run.num_nodes) if node not in adversarial]


def _check_straggler(results: list[ScenarioResult], points: list[Point]) -> list[str]:
    dl, hb = (r.result.mean_throughput for r in results)
    if not dl > hb:
        return [f"DL throughput {dl:.0f} B/s is not above HoneyBadger's {hb:.0f} B/s"]
    return []


def _check_crash_commits_everywhere(
    results: list[ScenarioResult], points: list[Point]
) -> list[str]:
    crash = results[1]
    stalled = [n for n in _honest(crash) if crash.result.delivered_epochs[n] < 1]
    return [f"crash point: honest nodes {stalled} delivered nothing"] if stalled else []


def _check_every_node_decodes(
    results: list[ScenarioResult], points: list[Point]
) -> list[str]:
    confirmed = results[0].result.tx_confirmed_per_node
    silent = [n for n, count in enumerate(confirmed) if count <= 0]
    return [f"real data plane: nodes {silent} confirmed no transaction"] if silent else []


def _check_observer_files(results: list[ScenarioResult], points: list[Point]) -> list[str]:
    failures = []
    result = results[0]
    for label, path in (("telemetry", result.telemetry_path), ("span", result.span_path)):
        rows = observer_rows(path)
        if rows <= 0:
            failures.append(f"{label} file {path} is missing or empty")
    try:
        state = load_checkpoint(points[0].options.checkpoint_path)
    except (SnapshotError, OSError) as exc:
        failures.append(f"final checkpoint does not load: {exc}")
    else:
        if state.sim.now <= 0:
            failures.append("final checkpoint holds an unstarted simulation")
    return failures


def observer_rows(path: str | None) -> int:
    """Rows of a JSONL observer file, parsing every one (0 if absent)."""
    if path is None or not Path(path).is_file():
        return 0
    return len(read_jsonl(path))


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="straggler10-object",
        why="N=10 with 3 nodes 10x slower, saturating object tx plane, dl and hb: "
        "the paper's core regime; host time sits in txgen/block/mempool/collector.",
        scenario="straggler-hetero",
        base={"duration": 16.0},
        smoke={"duration": 4.0},
        points=({"protocol": "dl"}, {"protocol": "hb"}),
        check=_check_straggler,
    ),
    Workload(
        name="latency7-poisson",
        why="N=7 open-loop Poisson at 250 kB/s per node, fault-free and with 2 crashes: "
        "one event per transaction and Nagle-timer proposals, the per-tx use of the object plane.",
        scenario="latency-fault-matrix",
        base={"workload.rate_bytes_per_second": 250_000.0, "duration": 16.0},
        smoke={"duration": 3.0},
        points=({}, {"adversary.kind": "crash", "adversary.count": 2}),
        check=_check_crash_commits_everywhere,
    ),
    Workload(
        name="temporal16-columnar",
        why="N=16 Gauss-Markov time-varying bandwidth (Fig. 11b), columnar plane, 9 epochs: "
        "isolates the simulator (event heap, pipes, bandwidth integration, network).",
        scenario="fig11b-temporal",
        # max_epochs pins the committed work: with an open horizon the seed's
        # bandwidth walk changes the event count by +-20 %.
        base={
            "protocol": "dl",
            "bandwidth.kind": "gauss-markov",
            # A quarter of the mean rate, not the catalog's half: at 5 MB/s a
            # slow spell keeps some blocks out of the nine epochs and the
            # committed count swings 121k-144k with the seed; at 2.5 MB/s all
            # 144 blocks commit on every seed tried, so tx/s compares across seeds.
            "bandwidth.sigma": 2_500_000.0,
            "workload.kind": "saturating-columnar",
            "node.mempool": "columnar",
            # 1000-byte transactions keep the columnar plane and the collector
            # under 3 % of self time, so this workload reads as simulator only.
            "workload.tx_size": 1000,
            "max_epochs": 9,
            "duration": 60.0,
        },
        smoke={"max_epochs": 1, "duration": 20.0},
    ),
    Workload(
        name="express64-columnar",
        why="N=64 on unlimited express links, columnar plane, one epoch: isolates the "
        "protocol automata (node/BA/VID) at N^2 message scale; pipes are bypassed.",
        scenario="columnar-scale",
        base={},
        smoke={"topology.num_nodes": 22},
    ),
    Workload(
        name="real16-coding",
        why="N=16 with real bytes: every block is Reed-Solomon coded, Merkle-committed, "
        "decoded and re-encoded; the only workload where erasure and crypto cost host time.",
        scenario="equivocate-split",
        base={
            "adversary.kind": "none",
            "adversary.count": 0,
            "topology.num_nodes": 16,
            "bandwidth.rate": 1e7,
            "workload.kind": "saturating",
            "workload.tx_size": 20_000,
            "workload.target_pending_bytes": 2_000_000,
            "node.max_block_size": 500_000,
            "node.nagle_size": 500_000,
            # Two dispersed epochs, then every node retrieves every block:
            # with an open horizon dispersal outruns retrieval and most
            # blocks are never decoded inside the run.
            "max_epochs": 2,
            "duration": 8.0,
        },
        smoke={
            "topology.num_nodes": 7,
            "node.max_block_size": 200_000,
            "node.nagle_size": 200_000,
            "max_epochs": 1,
            "duration": 4.0,
        },
        check=_check_every_node_decodes,
    ),
    Workload(
        name="wan8-checkpointed",
        why="N=8 measured-bandwidth replay with telemetry, spans and a checkpoint every "
        "4 virtual s: the engine and observers (snapshot pickling, recorders, JSONL writers).",
        scenario="trace-replay-wan",
        base={"protocol": "dl", "duration": 20.0, "checkpoint_every": 4.0},
        smoke={"duration": 4.0, "checkpoint_every": 2.0},
        observers=True,
        check=_check_observer_files,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def resolve(
    workload: Workload,
    seed: int,
    smoke: bool,
    workdir: Path,
    observers: bool = True,
) -> list[Point]:
    """The workload's points as fully resolved specs for ``seed``.

    ``observers=False`` resolves an observing workload without telemetry,
    spans and checkpoints (the plain twin its summaries must equal).
    """
    overrides = dict(workload.base)
    if smoke:
        overrides.update(workload.smoke)
    overrides["seed"] = seed
    options = None
    if workload.observers and observers:
        overrides.update(
            {
                "telemetry.enabled": True,
                "telemetry.out_dir": str(workdir),
                "spans.enabled": True,
                "spans.out_dir": str(workdir),
            }
        )
        options = ExecutionOptions(checkpoint_path=workdir / "periodic.ckpt")
    elif workload.observers:
        del overrides["checkpoint_every"]
    base = apply_overrides(get_scenario(workload.scenario).base, overrides)
    return [
        Point(dict(point), apply_overrides(base, point), options)
        for point in workload.points
    ]


def check_outputs(
    workload: Workload, results: list[ScenarioResult], points: list[Point]
) -> list[str]:
    """Every output check of the workload; an empty list means correct."""
    failures = []
    for result in results:
        run = result.result
        label = f"point {result.label}"
        if run.tx_committed <= 0:
            failures.append(f"{label}: no transaction committed")
        honest = _honest(result)
        delivering = sum(1 for node in honest if run.delivered_epochs[node] >= 1)
        # A quorum must make progress; the f slowest nodes may lag arbitrarily
        # (that is the protocol's point), so they are not required to.
        quorum = run.num_nodes - result.spec.params().f
        if delivering < min(quorum, len(honest)):
            failures.append(
                f"{label}: only {delivering} of {len(honest)} honest nodes delivered an epoch"
            )
    if workload.check is not None:
        failures.extend(workload.check(results, points))
    return failures


def summary_digest(results: list[ScenarioResult]) -> str:
    """sha256 over the canonical JSON of the points' summaries."""
    blob = canonical_json([result.summary() for result in results])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
