"""Declarative adversary placement for the scenario engine.

The scenario engine describes Byzantine behaviour with an
:class:`AdversarySpec` — *which* misbehaviour (``kind``), *how many* nodes
(``count``) or *which* nodes (``nodes``), and behaviour parameters — and
builds the faulty processes through the :data:`ADVERSARIES` registry, so new
behaviours plug in with :func:`register_adversary` without touching the
engine.

A registered factory receives the already-built honest node and either
replaces it on the wire (``CrashedNode``), wraps it (``CrashAfterNode``), or
rebuilds it as a different node class with the same constructor parameters
(:func:`rebuild_node`).  The returned object only needs to satisfy the
:class:`repro.sim.process.Process` protocol; when it is itself a full
:class:`~repro.core.node_base.BFTNodeBase`, the experiment driver swaps it
into the cluster so workloads and frontier metrics follow the replacement.

Node-*class* adversaries that change protocol logic from the inside are
first-class here: ``kind: "censor"`` rebuilds the node as a
:class:`~repro.adversary.censor.CensoringNode` (behaviour parameter
``victim``) and ``kind: "equivocate"`` as an
:class:`~repro.adversary.equivocator.EquivocatingDisperserNode` (behaviour
parameter ``split``), so both run on the bandwidth-accurate simulator as
well as on the instant router used by the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.adversary.censor import CensoringNode
from repro.adversary.crash import CrashAfterNode, CrashedNode
from repro.adversary.equivocator import EquivocatingDisperserNode
from repro.common.errors import ConfigurationError
from repro.sim.process import Process


@dataclass(frozen=True)
class AdversarySpec:
    """Which nodes misbehave, and how.

    Attributes:
        kind: a key of :data:`ADVERSARIES` (``"none"`` disables placement).
        count: number of adversarial nodes; the default placement puts them
            at the *highest* node ids, leaving node 0 (the proposer and city
            most figures highlight) honest.
        nodes: explicit adversarial node ids; overrides ``count``.
        crash_time: virtual time at which ``crash-after`` nodes fall silent.
        victim: the node whose blocks a ``censor`` adversary votes against
            (must be an honest node id).
        split: chunk index at which an ``equivocate`` adversary switches from
            the real payload's encoding to the decoy's (``None`` = the codec
            default, ``N - 2f``); must satisfy ``1 <= split < N`` so the
            dispersal is actually inconsistent.
        params: free-form behaviour parameters for registered extensions.
    """

    kind: str = "none"
    count: int = 0
    nodes: tuple[int, ...] | None = None
    crash_time: float = 0.0
    victim: int = 0
    split: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind != "none" and self.kind not in ADVERSARIES:
            raise ConfigurationError(
                f"unknown adversary kind {self.kind!r}; registered: {sorted(ADVERSARIES)}"
            )
        if self.count < 0:
            raise ConfigurationError("count must be non-negative")
        if self.crash_time < 0:
            raise ConfigurationError("crash_time must be non-negative")
        if self.victim < 0:
            raise ConfigurationError("victim must be a node id")
        if self.split is not None and self.split < 1:
            raise ConfigurationError("split must be at least 1 (or None for the default)")
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(self.nodes))
            if len(set(self.nodes)) != len(self.nodes):
                raise ConfigurationError(f"adversary nodes {self.nodes} overlap")

    def placement(self, num_nodes: int) -> tuple[int, ...]:
        """The adversarial node ids for a cluster of ``num_nodes``."""
        if self.kind == "none":
            return ()
        if self.nodes is not None:
            out_of_range = [i for i in self.nodes if not 0 <= i < num_nodes]
            if out_of_range:
                raise ConfigurationError(
                    f"adversary nodes {out_of_range} out of range for n={num_nodes}"
                )
            return self.nodes
        if self.count > num_nodes:
            raise ConfigurationError(
                f"cannot place {self.count} adversaries in a cluster of {num_nodes}"
            )
        return tuple(range(num_nodes - self.count, num_nodes))

    @property
    def silent_from_start(self) -> bool:
        """True if the adversarial nodes never participate (skip their workload)."""
        return self.kind == "crash"


#: ``factory(honest_node, clock, spec) -> Process`` — builds the faulty
#: process that replaces ``honest_node`` on the simulated network.
AdversaryFactory = Callable[[object, object, AdversarySpec], Process]

ADVERSARIES: dict[str, AdversaryFactory] = {}


def register_adversary(kind: str, factory: AdversaryFactory) -> None:
    """Register a new adversary behaviour under ``kind``."""
    if kind == "none":
        raise ConfigurationError('"none" is reserved for the absence of adversaries')
    ADVERSARIES[kind] = factory


def get_adversary(kind: str) -> AdversaryFactory:
    """Look up a registered adversary factory."""
    try:
        return ADVERSARIES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary kind {kind!r}; registered: {sorted(ADVERSARIES)}"
        ) from None


def rebuild_node(node_class: type, node, **extra):
    """Rebuild an already-built honest node as ``node_class``.

    The replacement shares the honest node's identity, parameters, network
    context, configuration, coin, codec and callbacks, so dropping a node-class
    adversary into a cluster changes *behaviour* without changing any other
    experimental condition.  ``extra`` carries behaviour parameters
    (``victim=...``, ``split=...``).
    """
    return node_class(
        node.node_id,
        node.params,
        node.ctx,
        config=node.config,
        coin=node.coin,
        codec=node.codec,
        max_epochs=node.max_epochs,
        on_deliver=node.on_deliver,
        on_propose=node.on_propose,
        **extra,
    )


def _crashed(node, clock, spec: AdversarySpec) -> Process:
    return CrashedNode(node.node_id)


def _crash_after(node, clock, spec: AdversarySpec) -> Process:
    return CrashAfterNode(node, clock, spec.crash_time)


def _censor(node, clock, spec: AdversarySpec) -> Process:
    n = node.params.n
    if not 0 <= spec.victim < n:
        raise ConfigurationError(f"censor victim {spec.victim} out of range for n={n}")
    if spec.victim in spec.placement(n):
        raise ConfigurationError(
            f"censor victim {spec.victim} is itself adversarial; pick an honest node"
        )
    return rebuild_node(CensoringNode, node, victim=spec.victim)


def _equivocate(node, clock, spec: AdversarySpec) -> Process:
    n = node.params.n
    if spec.split is not None and not 1 <= spec.split < n:
        raise ConfigurationError(
            f"equivocation split {spec.split} must be in [1, {n - 1}] for n={n}"
        )
    return rebuild_node(EquivocatingDisperserNode, node, split=spec.split)


register_adversary("crash", _crashed)
register_adversary("crash-after", _crash_after)
register_adversary("censor", _censor)
register_adversary("equivocate", _equivocate)
