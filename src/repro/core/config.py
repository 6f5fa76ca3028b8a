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
