"""Byte-accurate per-epoch cost model used for the large-N scalability sweep.

Message-level simulation of a 128-node cluster is out of reach for a pure
Python event loop (every epoch is tens of millions of message events), so —
as documented in docs/architecture.md, Substitutions — Fig. 12 and Fig. 13
are regenerated with an analytical model that uses exactly the same
per-message byte formulas as the implementation (header sizes, hash sizes,
Merkle proof depths, erasure-code expansion).  The model is validated against message-level runs at small N in
:func:`repro.experiments.figures.validate_cost_model` and in the test suite.

The model computes, per epoch and per node:

* dispersal-phase download (chunks of all N proposals, the GotChunk/Ready
  vote rounds, the binary-agreement votes);
* retrieval-phase download (reconstructing every committed block from
  ``N - 2f`` chunks);

and converts them into steady-state throughput by charging both against the
node's download bandwidth and respecting the protocol's latency floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.params import ProtocolParams
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.merkle import placeholder_proofs
from repro.sim.messages import HEADER_SIZE

#: Bytes of a BA vote body (round number + value), matching repro.ba.messages.
BA_VOTE_BODY = 8
#: Expected number of (BVAL + AUX) vote rounds before the common coin decides.
BA_EXPECTED_ROUNDS = 2.0
#: One DECIDED message per node terminates each BA instance.
BA_DECIDED_ROUNDS = 1.0
#: Communication steps on an epoch's critical path (chunk, GotChunk, Ready,
#: BVAL, AUX, DECIDED), each costing one one-way propagation delay.
CRITICAL_PATH_STEPS = 6
#: Effective per-message processing overhead in byte-equivalents (transport
#: framing, ACKs, kernel and CPU time).  The paper attributes the slight
#: throughput decline at large N (Fig. 12) to the O(N^2) per-epoch message
#: count of the agreement phase; this term is what lets a byte-level model
#: show that effect.  It is *not* wire traffic, so it is excluded from the
#: dispersal-fraction accounting of Fig. 13.
PER_MESSAGE_OVERHEAD = 300.0


@dataclass(frozen=True)
class EpochCost:
    """Per-node, per-epoch byte accounting for one protocol configuration."""

    params: ProtocolParams
    block_size: int
    #: Bytes downloaded during the dispersal phase (chunks + votes + BA).
    dispersal_bytes: float
    #: Bytes downloaded during the retrieval phase (committed block chunks).
    retrieval_bytes: float
    #: Client payload bytes committed per epoch (what throughput counts).
    committed_payload: float

    @property
    def total_bytes(self) -> float:
        return self.dispersal_bytes + self.retrieval_bytes

    @property
    def dispersal_fraction(self) -> float:
        """Fraction of download traffic that belongs to dispersal (Fig. 13)."""
        return self.dispersal_bytes / self.total_bytes


def chunk_wire_bytes(params: ProtocolParams, block_size: int) -> float:
    """Wire size of one chunk message (header, root, chunk slice, Merkle proof)."""
    slice_bytes = block_size / params.data_shards
    return HEADER_SIZE + DIGEST_SIZE + slice_bytes + placeholder_proofs(params.n)[0].wire_size


def dispersal_download_bytes(params: ProtocolParams, block_size: int) -> float:
    """Bytes a node downloads per epoch to participate in dispersal + agreement."""
    n = params.n
    chunks = n * chunk_wire_bytes(params, block_size)
    vote_msg = HEADER_SIZE + DIGEST_SIZE
    votes = 2 * n * n * vote_msg  # GotChunk + Ready, from every node for every instance
    ba_msg = HEADER_SIZE + BA_VOTE_BODY
    ba_msgs_per_instance = (2 * BA_EXPECTED_ROUNDS + BA_DECIDED_ROUNDS) * n
    ba = n * ba_msgs_per_instance * ba_msg
    return chunks + votes + ba


def retrieval_download_bytes(
    params: ProtocolParams, block_size: int, blocks_retrieved: float
) -> float:
    """Bytes a node downloads to reconstruct ``blocks_retrieved`` blocks."""
    per_block = params.data_shards * chunk_wire_bytes(params, block_size) + params.data_shards * HEADER_SIZE
    return blocks_retrieved * per_block


def dispersal_messages_per_epoch(params: ProtocolParams) -> float:
    """Messages a node receives per epoch during dispersal + agreement.

    One chunk per VID instance, GotChunk and Ready from every node for every
    instance, and the binary-agreement votes: this is the O(N^2) message count
    the paper points to when explaining the Fig. 12 trend.
    """
    n = params.n
    return n + 2 * n * n + (2 * BA_EXPECTED_ROUNDS + BA_DECIDED_ROUNDS) * n * n


def epoch_cost(
    params: ProtocolParams,
    block_size: int,
    committed_blocks: float | None = None,
    payload_fraction: float = 1.0,
) -> EpochCost:
    """Per-node, per-epoch cost for a protocol committing ``committed_blocks`` blocks.

    ``committed_blocks`` defaults to N (DispersedLedger with inter-node
    linking: every correct block is eventually committed); plain HoneyBadger
    commits ``N - f``.  ``payload_fraction`` is the fraction of each block
    that is client payload (the rest being per-block protocol overhead).
    """
    if committed_blocks is None:
        committed_blocks = float(params.n)
    dispersal = dispersal_download_bytes(params, block_size)
    retrieval = retrieval_download_bytes(params, block_size, committed_blocks)
    return EpochCost(
        params=params,
        block_size=block_size,
        dispersal_bytes=dispersal,
        retrieval_bytes=retrieval,
        committed_payload=committed_blocks * block_size * payload_fraction,
    )


@dataclass(frozen=True)
class ThroughputEstimate:
    """Steady-state throughput prediction for one (protocol, N, block size) point."""

    n: int
    block_size: int
    protocol: str
    throughput: float
    epoch_duration: float
    dispersal_fraction: float


def estimate_throughput(
    params: ProtocolParams,
    block_size: int,
    bandwidth: float,
    one_way_delay: float = 0.1,
    protocol: str = "dl",
) -> ThroughputEstimate:
    """Steady-state per-node confirmed payload bytes per second.

    DispersedLedger pipelines retrieval behind dispersal, so its epoch cadence
    is set by the dispersal bytes (plus the latency floor) while its steady
    throughput is capped by the *total* bytes a node must eventually download.
    HoneyBadger is lockstep: an epoch cannot end before dispersal and
    retrieval have both completed, and without linking only ``N - f`` of the
    ``N`` broadcast blocks carry useful payload.
    """
    if protocol in ("dl", "dl-coupled", "hb-link"):
        committed = float(params.n)
    elif protocol == "hb":
        committed = float(params.quorum)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    cost = epoch_cost(params, block_size, committed_blocks=committed)
    latency_floor = CRITICAL_PATH_STEPS * one_way_delay
    # Non-wire per-message processing cost: it consumes effective capacity
    # (Fig. 12's O(N^2) messaging overhead) but is not dispersal traffic, so
    # Fig. 13's fraction is computed from wire bytes only.
    processing = PER_MESSAGE_OVERHEAD * dispersal_messages_per_epoch(params)

    if protocol in ("dl", "dl-coupled"):
        # Epoch cadence: dispersal only.  Bandwidth ceiling: total bytes.
        epoch_duration = max((cost.dispersal_bytes + processing) / bandwidth, latency_floor)
        bandwidth_limited = bandwidth * cost.committed_payload / (cost.total_bytes + processing)
        cadence_limited = cost.committed_payload / epoch_duration
        throughput = min(bandwidth_limited, cadence_limited)
    else:
        # Lockstep: the epoch ends only after retrieval finishes everywhere.
        # HoneyBadger still broadcasts (and downloads) all N blocks even when
        # only N - f of them end up committed.
        full_cost = epoch_cost(params, block_size, committed_blocks=float(params.n))
        epoch_duration = max((full_cost.total_bytes + processing) / bandwidth, latency_floor)
        throughput = cost.committed_payload / epoch_duration

    return ThroughputEstimate(
        n=params.n,
        block_size=block_size,
        protocol=protocol,
        throughput=throughput,
        epoch_duration=epoch_duration,
        dispersal_fraction=cost.dispersal_fraction,
    )
