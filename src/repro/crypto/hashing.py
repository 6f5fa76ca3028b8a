"""Hash helpers.

The paper uses a single security parameter ``lambda = 32`` bytes for hashes
(S3.2).  We use SHA-256 everywhere, with domain separation between leaf and
interior Merkle nodes to rule out second-preimage tricks between levels.
"""

from __future__ import annotations

import hashlib

#: Size of every digest produced by this module, in bytes (``lambda`` in the paper).
DIGEST_SIZE = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

_sha256 = hashlib.sha256


def hash_data(data: bytes) -> bytes:
    """Hash raw data (used for Merkle leaves and content digests)."""
    # Stream prefix and data through one hasher: concatenating them first
    # copies the whole leaf (tens of kB per proof check on the real plane).
    hasher = _sha256(_LEAF_PREFIX)
    hasher.update(data)
    return hasher.digest()


def hash_pair(left: bytes, right: bytes) -> bytes:
    """Hash the concatenation of two child digests (interior Merkle nodes)."""
    return _sha256(_NODE_PREFIX + left + right).digest()


def hash_leaves(leaves: list[bytes]) -> list[bytes]:
    """Hash a list of leaf payloads."""
    return [hash_data(leaf) for leaf in leaves]


def digest_leaves_into(out: bytearray, leaves: list[bytes]) -> None:
    """Write the leaf digests of ``leaves`` into ``out`` back to back.

    ``out`` must hold at least ``DIGEST_SIZE * len(leaves)`` bytes.  This is
    the batched form of :func:`hash_data` used by the Merkle tree builder:
    one pass, no per-leaf list or tuple allocations.
    """
    sha, prefix = _sha256, _LEAF_PREFIX
    pos = 0
    for leaf in leaves:
        # Stream prefix and leaf separately: hashing is incremental, so this
        # matches hash_data() without materialising a prefix+leaf copy.
        hasher = sha(prefix)
        hasher.update(leaf)
        out[pos : pos + DIGEST_SIZE] = hasher.digest()
        pos += DIGEST_SIZE


def digest_level_into(out: bytearray, level: bytes | bytearray) -> None:
    """Hash consecutive digest pairs of ``level`` into ``out``.

    ``level`` is a packed array of an even number of ``DIGEST_SIZE`` digests;
    ``out`` receives half as many interior-node digests.  Equivalent to
    :func:`hash_pair` on every pair, with a single slice per node instead of
    two concatenations.
    """
    sha, prefix = _sha256, _NODE_PREFIX
    pos = 0
    for src in range(0, len(level), 2 * DIGEST_SIZE):
        out[pos : pos + DIGEST_SIZE] = sha(
            prefix + level[src : src + 2 * DIGEST_SIZE]
        ).digest()
        pos += DIGEST_SIZE
