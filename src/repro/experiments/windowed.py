"""Planning windowed execution: window boundaries and the shared-prefix tree.

The engine (:mod:`repro.experiments.engine`) runs every point as a chain of
windows over its virtual-time horizon ``[0, T)`` — one window unless
``ExecutionOptions.windows`` says otherwise.  A window can end in a
``repro-ckpt-v1`` hand-off checkpoint that another process restores and
continues; because restoring a checkpoint and continuing is bit-identical to
never having stopped (the snapshot contract), the chained windows produce
exactly the bytes of a one-window run — same summaries, same telemetry rows
— while unlocking two sources of real parallelism on a sweep:

* **Pipelining** — window chains of *different* points are independent
  tasks, so point A runs its later windows while point B is still in its
  first.  Even a two-point sweep keeps two workers busy for most of the
  wall clock.
* **A shared-prefix checkpoint tree** — sweep points that provably agree on
  a prefix of the horizon (same seed, topology, trace and workload;
  differing only in knobs that act *after* some window boundary or only at
  summary time) run that prefix once.  The followers fork the leader's
  checkpoint at the **deepest boundary they still agree on**, re-aim the
  late-acting knobs (:func:`refit_forked_state`), and continue as
  themselves.  A sweep over summary-time-only knobs (warmup) shares every
  window but the last: four such points cost ``1 + 3/W`` full runs instead
  of ``4`` — a real speedup even on a single core.

Eligibility is decided per boundary by :func:`prefix_key`, a digest of the
spec with exactly the proven-inert fields neutralised: ``warmup`` /
``warmup_fraction`` (summary-time only), ``checkpoint_every`` (subsumed by
the hand-off checkpoints, so a multi-window run ignores it by design), and
``workload.stop_after`` when it acts strictly *after* the boundary (every
generator checks ``_stop_at`` at event-fire time, and events at exactly a
boundary run inside the earlier window, so the guard must be strict).
Everything else — notably ``adversary.crash_time``, whose timer event sits
in the heap with its absolute firing time from construction — keeps points
in separate trees.

This module only plans (:func:`plan_windowed_points`); the engine turns the
plans into tasks, cutting a point's chain only where a follower forks, and
stitches the per-window observer segments back into one file per point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigurationError
from repro.experiments.runner import _experiment_fingerprint
from repro.experiments.scenario import ScenarioSpec, build_network_config
from repro.sim.snapshot import SimulationState

__all__ = [
    "experiment_args",
    "plan_windowed_points",
    "prefix_key",
    "refit_forked_state",
    "spec_fingerprint",
    "window_boundaries",
]


def window_boundaries(duration: float, windows: int) -> tuple[float, ...]:
    """The end time of each window: ``W`` strictly increasing values, last ``== duration``.

    The last boundary is ``duration`` itself (not a rounded quotient), so the
    final window runs to exactly the horizon a one-window run uses.
    """
    if windows < 1:
        raise ConfigurationError("windows must be >= 1")
    bounds = [duration * step / windows for step in range(1, windows)]
    bounds.append(duration)
    if bounds[0] <= 0 or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            f"duration {duration} cannot be split into {windows} distinct windows"
        )
    return tuple(bounds)


def prefix_key(spec: ScenarioSpec, boundary: float) -> str:
    """A digest of everything that shapes the spec's event stream up to ``boundary``.

    Two points with equal keys run byte-identical simulations up to (and
    including) ``boundary``, so they can share one execution of that prefix.
    Only fields proven inert during the run are neutralised; any new spec
    field is prefix-relevant by default, which can only cost sharing, never
    correctness.
    """
    material = spec.to_dict()
    # Summary-time only: the warmup enters the throughput denominator after
    # the run, never the event stream.
    material["warmup"] = None
    material["warmup_fraction"] = None
    # A multi-window run ignores periodic checkpointing: the hand-off
    # checkpoints subsume it, and it is behaviour-neutral either way.
    material["checkpoint_every"] = None
    workload = dict(material["workload"])
    stop_after = workload.get("stop_after")
    if stop_after is None or stop_after > boundary:
        # The client cut-off acts at event-fire time, and events at exactly
        # the boundary run inside the earlier window — hence the strict
        # comparison: a cut at the boundary itself already changes the
        # prefix.
        workload["stop_after"] = "after-boundary"
    material["workload"] = workload
    blob = json.dumps(material, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def experiment_args(spec: ScenarioSpec) -> dict[str, Any]:
    """The one expansion of a spec into the runner's scenario arguments.

    What :func:`~repro.experiments.runner.build_experiment` builds from and
    what a checkpoint's fingerprint digests are the same ten values, so both
    read them from here.
    """
    return {
        "protocol": spec.protocol,
        "network_config": build_network_config(spec),
        "duration": spec.duration,
        "workload": spec.workload,
        "node_config": spec.node,
        "params": spec.params(),
        "seed": spec.seed,
        "warmup": spec.effective_warmup(),
        "adversary": spec.adversary,
        "max_epochs": spec.max_epochs,
    }


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """The fingerprint a checkpoint of ``spec`` carries in its header."""
    return _experiment_fingerprint(**experiment_args(spec))


def refit_forked_state(
    state: SimulationState, spec: ScenarioSpec, overrides: dict[str, Any]
) -> None:
    """Re-aim a shared prefix checkpoint at a sibling sweep point.

    Only fields :func:`prefix_key` neutralises may differ between the leader
    and this point, and each has exactly one home in the live state: the
    warmup (summarise input), the generators' ``_stop_at`` cursor (declared
    in every generator's ``_SNAPSHOT_FIELDS``), and the scenario metadata +
    fingerprint the checkpoint envelope carries forward.
    """
    state.warmup = spec.effective_warmup()
    for generator in state.generators:
        generator._stop_at = spec.workload.stop_after
    state.fingerprint = spec_fingerprint(spec)
    state.meta = {"spec": spec.to_dict(), "overrides": dict(overrides)}


@dataclass(frozen=True)
class PointPlan:
    """How one point's horizon is windowed and which prefix of it is shared."""

    index: int
    spec: ScenarioSpec
    overrides: dict[str, Any]
    #: End time of each window (empty for an analytic point: nothing to run).
    boundaries: tuple[float, ...]
    #: Point whose checkpoint this point forks (``None`` = this point is a
    #: leader and executes its whole chain from window 0 itself).
    leader: int | None = None
    #: First window this point executes itself: 0 for a leader, otherwise
    #: the deepest window at whose *start* boundary the point still agrees
    #: with its leader — windows ``[0, fork_window)`` are reused.
    fork_window: int = 0


def plan_windowed_points(
    points: list[tuple[dict[str, Any], ScenarioSpec]], windows: int
) -> list[PointPlan]:
    """Group expanded grid points into shared-prefix trees.

    Points are keyed by :func:`prefix_key` at every non-final boundary; the
    first point of each window-0 group (in grid order) becomes the leader,
    and later members fork its chain at the deepest boundary where their
    keys still agree.  With a single window there is nothing to share —
    every point leads its own chain — and an analytic point is admissible
    (it has no horizon to split).
    """
    plans: list[PointPlan] = []
    leaders: dict[str, tuple[int, tuple[str, ...]]] = {}
    for index, (overrides, spec) in enumerate(points):
        if spec.kind != "sim":
            if windows > 1:
                raise ConfigurationError(
                    "windowed execution requires sim scenarios; point "
                    f"{index} has analytic kind {spec.kind!r}"
                )
            plans.append(PointPlan(index, spec, dict(overrides), boundaries=()))
            continue
        boundaries = window_boundaries(spec.duration, windows)
        leader: int | None = None
        fork_window = 0
        if windows > 1:
            # One key per shareable boundary (the final boundary is the end
            # of the run: there is no later window left to fork into).
            keys = tuple(prefix_key(spec, b) for b in boundaries[:-1])
            known = leaders.get(keys[0])
            if known is None:
                leaders[keys[0]] = (index, keys)
            else:
                leader, leader_keys = known
                while fork_window < len(keys) and keys[fork_window] == leader_keys[fork_window]:
                    fork_window += 1
        plans.append(
            PointPlan(index, spec, dict(overrides), boundaries, leader, fork_window)
        )
    return plans
