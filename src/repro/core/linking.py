"""Inter-node linking (S4.3 of the paper).

An epoch's binary agreement commits at least ``N - f`` blocks, which means
up to ``f`` correct blocks can be left out even though their dispersal
completed.  Inter-node linking recovers them: every proposed block carries
the proposer's observation array ``V`` (``V[j]`` = largest epoch ``t`` such
that all of node ``j``'s VID instances up to ``t`` have completed), and the
retrieval phase combines the ``V`` arrays of the BA-committed blocks into a
per-node epoch bound ``E[j]`` — the ``(f+1)``-th largest reported value —
below which every block is guaranteed available and gets delivered.

Taking the ``(f+1)``-th largest value (rather than the maximum) is what
stops Byzantine proposers from fooling correct nodes into retrieving blocks
that were never dispersed: at least one *correct* node must have reported
completion up to ``E[j]``.
"""

from __future__ import annotations

from typing import Container, Iterable, Mapping, Sequence

from repro.common.params import ProtocolParams

#: Observation used for blocks that failed retrieval ("BAD_UPLOADER") or are
#: ill-formatted (S4.3, footnote 5).  Using +infinity for every entry makes a
#: malicious proposer's own array irrelevant: it can only ever raise the
#: (f+1)-th largest value up to what some correct node already reported.
INFINITE_OBSERVATION = float("inf")


def completed_prefix(completed_epochs: Iterable[int]) -> int:
    """Largest epoch ``t`` such that epochs ``1..t`` are all in ``completed_epochs``.

    This is how a node computes its own observation ``V[j]`` from the set of
    node ``j``'s VID instances it has seen complete.
    """
    completed = set(completed_epochs)
    epoch = 0
    while epoch + 1 in completed:
        epoch += 1
    return epoch


def kth_largest(values: Sequence[float], k: int) -> float:
    """The ``k``-th largest element of ``values`` (1-based)."""
    if k < 1 or k > len(values):
        raise ValueError(f"k={k} out of range for {len(values)} values")
    return sorted(values, reverse=True)[k - 1]


def compute_linking_targets(
    params: ProtocolParams,
    observations: Mapping[int, Sequence[float]],
) -> list[int]:
    """Combine the committed blocks' ``V`` arrays into the bound ``E``.

    Args:
        params: the ``(N, f)`` protocol parameters.
        observations: mapping from committed proposer index ``k`` (``k`` in
            the epoch's committed set ``S``) to the ``V`` array carried by
            that proposer's block.  Arrays must have length ``N``; use
            ``[INFINITE_OBSERVATION] * N`` for bad or ill-formatted blocks.

    Returns:
        ``E`` as a list of ``N`` integers: node ``j``'s blocks for every
        epoch ``<= E[j]`` must be retrieved and delivered (if not already).

    Raises:
        ValueError: if an observation array has the wrong length or fewer
            observations than ``f + 1`` are supplied (the BA phase always
            commits at least ``N - f >= f + 1`` blocks, so this indicates a
            protocol bug rather than adversarial behaviour).
    """
    if len(observations) < params.small_quorum:
        raise ValueError(
            f"need at least f + 1 = {params.small_quorum} observations, "
            f"got {len(observations)}"
        )
    for proposer, v_array in observations.items():
        if len(v_array) != params.n:
            raise ValueError(
                f"observation from proposer {proposer} has length {len(v_array)}, "
                f"expected {params.n}"
            )
    targets: list[int] = []
    for j in range(params.n):
        column = [v_array[j] for v_array in observations.values()]
        bound = kth_largest(column, params.small_quorum)
        if bound == INFINITE_OBSERVATION:
            # Can only happen if more than f observations are infinite, i.e.
            # more than f committed blocks failed retrieval — impossible when
            # at most f nodes are Byzantine.  Guard anyway so a misconfigured
            # experiment fails loudly instead of looping forever.
            raise ValueError(
                f"linking bound for node {j} is unbounded; more than f "
                "observations were marked bad"
            )
        targets.append(int(bound))
    return targets


def linked_slots(
    targets: Sequence[int],
    delivered: Container[tuple[int, int]],
    committed_this_epoch: Iterable[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Slots ``(epoch, proposer)`` that inter-node linking must now deliver.

    Returns the slots with ``epoch <= targets[proposer]`` that are neither
    in ``delivered`` (a node passes its :class:`~repro.core.ledger.Ledger`,
    whose slot set answers in O(1)) nor among this epoch's BA-committed
    slots, sorted by increasing epoch number then node index (the total
    order of S4.3).
    """
    committed = set(committed_this_epoch)
    slots = [
        (epoch, proposer)
        for proposer, target in enumerate(targets)
        for epoch in range(1, target + 1)
        if (epoch, proposer) not in delivered and (epoch, proposer) not in committed
    ]
    slots.sort()
    return slots
