"""Configuration of a DispersedLedger / HoneyBadger node.

The defaults follow the paper's implementation section (S5): Nagle-style
block proposal rate control with a 100 ms delay threshold and a 150 KB size
threshold, dispersal traffic strictly prioritised over retrieval traffic,
and retrieval traffic ordered by epoch number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError

#: Data-plane selector: move real erasure-coded bytes.
REAL_PLANE = "real"
#: Data-plane selector: account for bytes without moving them (experiments).
VIRTUAL_PLANE = "virtual"


@dataclass(frozen=True)
class NodeConfig:
    """Tunable behaviour of one BFT node.

    Attributes:
        data_plane: ``"real"`` to erasure-code actual block bytes (used by the
            unit tests and the examples), ``"virtual"`` to account for message
            sizes without moving payload bytes (used by throughput
            experiments, where simulating multi-megabyte blocks must be cheap).
        nagle_delay: seconds that must elapse since the last proposal before a
            new block may be proposed on the time trigger (S5: 100 ms).
        nagle_size: pending transaction bytes that trigger an immediate
            proposal (S5: 150 KB).
        max_block_size: cap on the transaction bytes packed into one block.
        linking: enable the inter-node linking rule of S4.3 so that every
            correct dispersed block is eventually delivered.
        coupled: the DL-Coupled variant of S4.5 — propose an *empty* block
            (no transactions) whenever retrieval lags more than
            ``coupled_lag`` epochs behind the dispersal frontier.
        coupled_lag: the ``P`` parameter of S4.5 (``P = 1`` matches
            HoneyBadger's behaviour).
        max_parallel_retrievals: how many epochs a node retrieves concurrently
            (S4.5 allows retrieving from multiple epochs in parallel while
            always delivering in serial order).
        propose_empty_when_idle: if the mempool is empty when the node is
            ready for a new epoch, propose an empty block instead of waiting.
            Keeps the epoch pipeline advancing under light load.
        retrieval_uses_priority: mark retrieval traffic with the low-priority
            class (True for DispersedLedger; HoneyBadger has no separate
            retrieval phase competing with dispersal so the flag is moot).
        mempool: accepted and ignored.  There is one mempool
            (:class:`repro.core.mempool.Mempool`); ``"object"`` and
            ``"columnar"`` are spellings kept because the pinned
            ``benchmarks/ledger`` workloads set them.
        retrieve_blocks: the "low-bandwidth mode" sketched in S1 of the paper:
            when False, the node participates fully in dispersal and agreement
            (storing its chunks and voting, thereby contributing to the
            network's security) but never downloads full blocks, proposes only
            empty blocks, and consequently delivers nothing locally.  Only
            meaningful for DispersedLedger nodes — HoneyBadger's lockstep
            epochs cannot advance without retrieving.
    """

    data_plane: str = VIRTUAL_PLANE
    nagle_delay: float = 0.1
    nagle_size: int = 150_000
    max_block_size: int = 2_000_000
    linking: bool = True
    coupled: bool = False
    coupled_lag: int = 1
    max_parallel_retrievals: int = 4
    propose_empty_when_idle: bool = True
    retrieval_uses_priority: bool = True
    retrieve_blocks: bool = True
    mempool: str = "object"

    def __post_init__(self) -> None:
        if self.data_plane not in (REAL_PLANE, VIRTUAL_PLANE):
            raise ConfigurationError(
                f"data_plane must be '{REAL_PLANE}' or '{VIRTUAL_PLANE}', "
                f"got {self.data_plane!r}"
            )
        if self.mempool not in ("object", "columnar"):
            raise ConfigurationError(
                f"mempool must be 'object' or 'columnar', got {self.mempool!r}"
            )
        if self.nagle_delay < 0:
            raise ConfigurationError("nagle_delay must be non-negative")
        if self.nagle_size < 0:
            raise ConfigurationError("nagle_size must be non-negative")
        if self.max_block_size <= 0:
            raise ConfigurationError("max_block_size must be positive")
        if self.coupled_lag < 1:
            raise ConfigurationError("coupled_lag must be at least 1")
        if self.max_parallel_retrievals < 1:
            raise ConfigurationError("max_parallel_retrievals must be at least 1")
