"""Binary Merkle tree with inclusion proofs.

AVID-M commits to the array of ``N`` erasure-coded chunks by the root of a
Merkle tree built over them (Fig. 3 of the paper).  The ``i``-th server
receives its chunk together with a proof that it is the ``i``-th leaf under
that root, and verifies the proof before accepting the chunk.

The tree pads the leaf layer to the next power of two with a fixed empty
digest so that every proof has ``ceil(log2 N)`` siblings
(:func:`proof_depth`).

Every level is stored as one packed ``bytes`` buffer of 32-byte digests,
built bottom-up in a single :mod:`hashlib` pass per level — no per-node
list allocations.  Proofs slice siblings straight out of those buffers;
:meth:`MerkleTree.proofs_all` is the convenience form for AVID-M's
"one proof per server" dispersal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import (
    DIGEST_SIZE,
    digest_leaves_into,
    digest_level_into,
    hash_data,
    hash_pair,
)

_EMPTY_LEAF = hash_data(b"\x00merkle-padding")


def proof_depth(num_leaves: int) -> int:
    """Sibling digests in every inclusion proof of a tree over ``num_leaves``
    leaves: ``ceil(log2 N)``, the height of the padded tree."""
    return (num_leaves - 1).bit_length()


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf.

    Attributes:
        index: position of the leaf among the original (unpadded) leaves.
        siblings: digests of the sibling nodes from the leaf up to the root.
    """

    index: int
    siblings: tuple[bytes, ...]

    @property
    def wire_size(self) -> int:
        """Bytes this proof occupies on the wire (index encoded in 4 bytes)."""
        return 4 + DIGEST_SIZE * len(self.siblings)


class MerkleTree:
    """A Merkle tree over a fixed list of leaf payloads."""

    def __init__(self, leaves: list[bytes]):
        if not leaves:
            raise ValueError("Merkle tree needs at least one leaf")
        self._num_leaves = len(leaves)
        width = 1 << proof_depth(len(leaves))
        level = bytearray(width * DIGEST_SIZE)
        digest_leaves_into(level, leaves)
        for pos in range(len(leaves), width):
            level[pos * DIGEST_SIZE : (pos + 1) * DIGEST_SIZE] = _EMPTY_LEAF
        #: Packed digest buffers, leaf level first, root level (32 bytes) last.
        self._levels: list[bytes] = [bytes(level)]
        while width > 1:
            width //= 2
            parent = bytearray(width * DIGEST_SIZE)
            digest_level_into(parent, self._levels[-1])
            self._levels.append(bytes(parent))

    @property
    def root(self) -> bytes:
        """Root digest of the tree."""
        return self._levels[-1]

    @property
    def num_leaves(self) -> int:
        """Number of original (unpadded) leaves."""
        return self._num_leaves

    def _sibling(self, depth: int, pos: int) -> bytes:
        level = self._levels[depth]
        start = (pos ^ 1) * DIGEST_SIZE
        return level[start : start + DIGEST_SIZE]

    def proof(self, index: int) -> MerkleProof:
        """Build the inclusion proof for leaf ``index``."""
        if not 0 <= index < self._num_leaves:
            raise IndexError(f"leaf index {index} out of range [0, {self._num_leaves})")
        siblings: list[bytes] = []
        pos = index
        for depth in range(len(self._levels) - 1):
            siblings.append(self._sibling(depth, pos))
            pos //= 2
        return MerkleProof(index=index, siblings=tuple(siblings))

    def proofs_all(self) -> list[MerkleProof]:
        """Inclusion proofs for every original leaf.

        What AVID-M's dispersal needs (one proof per server); proofs slice
        their siblings straight out of the packed level buffers.
        """
        return [self.proof(index) for index in range(self._num_leaves)]


def placeholder_proofs(num_leaves: int) -> tuple[MerkleProof, ...]:
    """One proof per leaf of the shape a tree over ``num_leaves`` leaves
    gives, whose siblings are one shared tuple of zero digests.

    A data plane that moves no bytes hands chunk ``i`` proof ``i``, so the
    chunk is billed the proof a real one carries.
    """
    siblings = (bytes(DIGEST_SIZE),) * proof_depth(num_leaves)
    return tuple(MerkleProof(index, siblings) for index in range(num_leaves))


def merkle_root(leaves: list[bytes]) -> bytes:
    """Convenience helper: the root of a tree over ``leaves``."""
    return MerkleTree(leaves).root


def verify_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check that ``leaf`` is the ``proof.index``-th leaf under ``root``."""
    digest = hash_data(leaf)
    pos = proof.index
    for sibling in proof.siblings:
        if pos % 2 == 0:
            digest = hash_pair(digest, sibling)
        else:
            digest = hash_pair(sibling, digest)
        pos //= 2
    return digest == root
