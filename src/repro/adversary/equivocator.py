"""A malicious disperser that sends inconsistent chunks.

The attack AVID-M is designed to neutralise (S3.2): a Byzantine client
encodes *different* data into the chunks it hands to different servers while
committing to them under one Merkle root, hoping that retrievals using
different chunk subsets decode to different blocks.  AVID-M's retrieval-time
re-encode check detects this and makes every correct client return the same
``BAD_UPLOADER`` outcome (Lemma B.8 / Theorem B.9).

Both data planes are covered: on the real plane the node mixes two actual
Reed-Solomon encodings under one Merkle tree; on the virtual plane (the
throughput experiments) it disperses a :class:`VirtualPayload` marked
``inconsistent``, whose chunks account for the same bytes on the wire but
make :class:`~repro.vid.codec.VirtualCodec` report ``BAD_UPLOADER`` exactly
where the real re-encode check would.
"""

from __future__ import annotations

from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.core.block import Block
from repro.core.config import REAL_PLANE
from repro.core.node import DispersedLedgerNode
from repro.crypto.merkle import MerkleTree
from repro.erasure.rs_code import ReedSolomonCode
from repro.sim.context import NodeContext
from repro.vid.codec import Chunk, VirtualPayload
from repro.vid.messages import ChunkMsg


def send_inconsistent_dispersal(
    params: ProtocolParams,
    ctx: NodeContext,
    instance: VIDInstanceId,
    payload_a: bytes,
    payload_b: bytes,
    split: int | None = None,
) -> bytes:
    """Disperse chunks that mix the encodings of two different payloads.

    The chunks are committed to by one Merkle tree (so every per-chunk proof
    verifies), but they are *not* the encoding of any single block: the first
    ``split`` leaf positions hold ``payload_a``'s chunks and the rest hold
    ``payload_b``'s (``split`` defaults to ``N - 2f``, putting the decoy in
    the non-systematic positions).  Returns the Merkle root the servers will
    agree on.
    """
    if split is None:
        split = params.data_shards
    if not 1 <= split < params.n:
        raise ValueError(f"split must be in [1, {params.n - 1}], got {split}")
    rs = ReedSolomonCode(params.data_shards, params.total_shards)
    shards_a = rs.encode(payload_a)
    shards_b = rs.encode(payload_b)
    if len(shards_a[0]) != len(shards_b[0]):
        raise ValueError("payloads must produce equally sized shards for this attack")
    mixed = [shards_a[i] if i < split else shards_b[i] for i in range(params.n)]
    tree = MerkleTree(mixed)
    for server in range(params.n):
        chunk = Chunk(
            index=server, size=len(mixed[server]), data=mixed[server], proof=tree.proof(server)
        )
        ctx.send(server, ChunkMsg(instance=instance, root=tree.root, chunk=chunk))
    return tree.root


def send_virtual_inconsistent_dispersal(
    codec,
    ctx: NodeContext,
    instance: VIDInstanceId,
    payload_size: int,
) -> bytes:
    """The virtual-plane analogue of :func:`send_inconsistent_dispersal`.

    Disperses chunks of an ``inconsistent`` :class:`VirtualPayload` of
    ``payload_size`` bytes, named after ``instance``: chunk and proof sizes on
    the wire match an honest dispersal of the same block, but any retrieval
    decodes to ``BAD_UPLOADER``.
    """
    payload = VirtualPayload(instance, payload_size, label="equivocation", inconsistent=True)
    bundle = codec.encode(payload)
    for server, chunk in enumerate(bundle.chunks):
        ctx.send(server, ChunkMsg(instance=instance, root=bundle.root, chunk=chunk))
    return bundle.root


class EquivocatingDisperserNode(DispersedLedgerNode):
    """A DispersedLedger proposer that disperses inconsistent chunks every epoch.

    It otherwise follows the protocol (it votes, answers retrievals for other
    slots, and so on), which is the strongest form of the attack: the cluster
    commits the slot, and correctness requires every correct node to deliver
    the same ``BAD_UPLOADER`` placeholder for it.  ``split`` picks the chunk
    position at which the encoding switches from the real block to the decoy
    (real data plane; ``None`` = ``N - 2f``).
    """

    #: Alternative payload dispersed to the non-systematic chunk positions.
    DECOY = b"equivocation-decoy-payload"

    _SNAPSHOT_FIELDS = DispersedLedgerNode._SNAPSHOT_FIELDS + ("split",)

    def __init__(self, *args, split: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.split = split

    def _disperse_block(self, epoch: int, block: Block) -> None:
        instance = VIDInstanceId(epoch=epoch, proposer=self.node_id)
        if self.config.data_plane == REAL_PLANE:
            payload = block.serialize()
            decoy = self.DECOY.ljust(len(payload), b"\x00")[: len(payload)]
            send_inconsistent_dispersal(
                self.params, self.ctx, instance, payload, decoy, split=self.split
            )
        else:
            send_virtual_inconsistent_dispersal(self.codec, self.ctx, instance, block.size)
