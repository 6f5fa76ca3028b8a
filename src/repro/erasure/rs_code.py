"""Systematic Reed-Solomon erasure code over GF(256).

The code is the ``(k, n)`` MDS code used by AVID-M with ``k = N - 2f`` and
``n = N``: a block is split into ``k`` data shards, ``n`` coded shards are
produced (the first ``k`` equal the data shards), and any ``k`` of the ``n``
shards reconstruct the block.

Construction: take an ``n x k`` Vandermonde matrix ``V`` over GF(256) and
multiply it by the inverse of its top ``k x k`` sub-matrix.  The result has
an identity top block (hence *systematic*) and keeps the MDS property
because every ``k``-row sub-matrix of ``V`` is invertible.

Performance structure (see docs/performance.md):

* code matrices are built once per ``(k, n)`` pair and shared between all
  instances (every node of a simulated cluster builds the same code);
* a block is encoded into one buffer of ``n`` shard-sized rows: the length
  header and the block fill the first ``k``, the GF(256) kernel writes the
  ``n - k`` parity rows in place, and every shard is a read-only view of a
  row, so a dispersed block costs ``n / k`` times its size and one
  allocation;
* decode matrices (inverted ``k x k`` sub-matrices) are memoised per sorted
  shard-index tuple in a small LRU cache — the experiments decode at the
  same index subsets over and over;
* when the ``k`` systematic shards are all present, decoding skips matrix
  work entirely and just reassembles the payload.
"""

from __future__ import annotations

import copyreg
import struct
from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigurationError, DecodingError
from repro.erasure.gf256 import GF256

_LENGTH_HEADER = struct.Struct(">I")


def _pickle_view(view: memoryview) -> tuple:
    """A view pickles as the bytes it shows.  Pickle memoises the view
    object, so a payload view held in several places is written once."""
    return bytes, (view.tobytes(),)


copyreg.pickle(memoryview, _pickle_view)

#: Maximum number of inverted decode matrices kept (shared by all code
#: instances — every node of a simulated cluster decodes the same subsets).
DECODE_CACHE_SIZE = 128


@lru_cache(maxsize=None)
def _systematic_matrix(data_shards: int, total_shards: int) -> np.ndarray:
    """The shared ``n x k`` systematic code matrix for a ``(k, n)`` code."""
    vandermonde = GF256.vandermonde(total_shards, data_shards)
    top_inverse = GF256.mat_inv(vandermonde[:data_shards, :])
    matrix = GF256.mat_mul(vandermonde, top_inverse)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def _decode_inverse(
    data_shards: int, total_shards: int, indices: tuple[int, ...]
) -> np.ndarray:
    """The inverted decode matrix for one shard-index subset, shared between
    all code instances (every node of a simulated cluster decodes the same
    subsets, so the Gauss-Jordan work is done once per subset per code)."""
    matrix = _systematic_matrix(data_shards, total_shards)
    inverse = GF256.mat_inv(matrix[list(indices), :])
    inverse.setflags(write=False)
    return inverse


class ReedSolomonCode:
    """A ``(k, n)`` systematic Reed-Solomon code over GF(256).

    Args:
        data_shards: ``k``, the number of shards sufficient for reconstruction.
        total_shards: ``n``, the total number of shards produced by encoding.
    """

    def __init__(self, data_shards: int, total_shards: int):
        if data_shards < 1:
            raise ConfigurationError(f"data_shards must be >= 1, got {data_shards}")
        if total_shards < data_shards:
            raise ConfigurationError(
                f"total_shards ({total_shards}) must be >= data_shards ({data_shards})"
            )
        if total_shards > 255:
            raise ConfigurationError(
                f"GF(256) Reed-Solomon supports at most 255 shards, got {total_shards}"
            )
        self.data_shards = data_shards
        self.total_shards = total_shards
        self._matrix = _systematic_matrix(data_shards, total_shards)
        self._parity_matrix = np.ascontiguousarray(self._matrix[data_shards:, :])
        self._cache_hits = 0
        self._cache_misses = 0

    # --- shard-level API -------------------------------------------------

    def shard_size(self, block_size: int) -> int:
        """Size of every shard for a block of ``block_size`` bytes.

        A 4-byte length header is prepended before padding so that decoding
        recovers the exact original block.
        """
        payload = block_size + _LENGTH_HEADER.size
        return max(1, -(-payload // self.data_shards))

    def encode(self, block: bytes) -> list[memoryview]:
        """Encode ``block`` into ``n`` equally sized shards.

        The shards are read-only views of consecutive rows of one buffer
        (see :meth:`encode_with_payload`); the first ``k`` are the padded block.
        """
        return self.encode_with_payload(block)[1]

    def encode_with_payload(self, block: bytes) -> tuple[memoryview, list[memoryview]]:
        """Encode ``block`` into one buffer of ``n`` rows; views of it.

        The buffer holds ``n x shard_size`` bytes: the 4-byte length header
        and ``block`` fill its first ``k`` rows, the rest of those rows stays
        zero, and the GF(256) kernel writes the ``n - k`` parity rows in
        place.  Returns ``block`` as it lies in the buffer and the ``n``
        shards, all read-only views of it, so a caller that mutates ``block``
        afterwards changes no shard.
        """
        length, h = len(block), _LENGTH_HEADER.size
        size, k = self.shard_size(length), self.data_shards
        buffer = bytearray(self.total_shards * size)
        _LENGTH_HEADER.pack_into(buffer, 0, length)
        buffer[h : h + length] = block
        view = memoryview(buffer).toreadonly()
        shards = [view[row * size : (row + 1) * size] for row in range(self.total_shards)]
        parity = np.frombuffer(buffer, dtype=np.uint8, offset=k * size)
        GF256.mat_vec_into(
            self._parity_matrix, shards[:k], parity.reshape(self.total_shards - k, size)
        )
        return view[h : h + length], shards

    # --- decoding --------------------------------------------------------

    def _select_indices(self, shards: dict[int, bytes]) -> list[int]:
        """Pick the ``k`` shard indices to decode from.

        Sorted-ascending selection *is* the systematic preference: every
        systematic index (``0..k-1``) is numerically smaller than every
        parity index, so the ``k`` smallest available indices always include
        all available systematic shards, and the no-inversion fast path
        triggers whenever all ``k`` of them are present.
        """
        return sorted(shards)[: self.data_shards]

    def _decode_matrix(self, indices: tuple[int, ...]) -> np.ndarray:
        """The inverted decode matrix for ``indices``, via the shared LRU.

        The inverses live in the module-level ``_decode_inverse`` LRU so
        sibling instances of the same code never redo each other's
        Gauss-Jordan; this instance's hit/miss counters record whether *its*
        calls actually triggered an inversion.
        """
        before = _decode_inverse.cache_info().misses
        inverse = _decode_inverse(self.data_shards, self.total_shards, indices)
        if _decode_inverse.cache_info().misses > before:
            self._cache_misses += 1
        else:
            self._cache_hits += 1
        return inverse

    def decode_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the decode-matrix cache (for tests/benchmarks).

        Hits/misses are the inversions this instance triggered (or avoided);
        ``size`` is the shared store's current entry count, bounded by
        ``DECODE_CACHE_SIZE``.
        """
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": _decode_inverse.cache_info().currsize,
        }

    def decode(self, shards: dict[int, bytes]) -> memoryview:
        """Reconstruct the original block from any ``k`` shards.

        The block is returned as a read-only view of the one buffer the
        shards were joined or decoded into.

        Args:
            shards: mapping from shard index to shard bytes; at least ``k``
                entries with identical lengths are required.

        Raises:
            DecodingError: if fewer than ``k`` shards are supplied, the shard
                lengths disagree, the indices are out of range, or the decoded
                length header is inconsistent with the shard capacity.
        """
        if len(shards) < self.data_shards:
            raise DecodingError(
                f"need at least {self.data_shards} shards, got {len(shards)}"
            )
        indices = self._select_indices(shards)
        if indices[0] < 0 or indices[-1] >= self.total_shards:
            raise DecodingError(f"shard index out of range: {indices}")
        shard_size = len(shards[indices[0]])
        if shard_size == 0:
            raise DecodingError("shards must be non-empty")
        if any(len(shards[i]) != shard_size for i in indices):
            raise DecodingError("all shards must have the same length")

        if indices == list(range(self.data_shards)):
            # Systematic fast path: the selected shards *are* the padded
            # block — reassemble without touching the kernel.
            padded = b"".join(shards[i] for i in indices)
        else:
            padded = bytearray(self.data_shards * shard_size)
            GF256.mat_vec_into(
                self._decode_matrix(tuple(indices)),
                [shards[i] for i in indices],
                np.frombuffer(padded, dtype=np.uint8).reshape(self.data_shards, shard_size),
            )
        (length,) = _LENGTH_HEADER.unpack_from(padded)
        capacity = self.data_shards * shard_size - _LENGTH_HEADER.size
        if length > capacity:
            raise DecodingError(
                f"decoded length header {length} exceeds shard capacity {capacity}"
            )
        return memoryview(padded).toreadonly()[_LENGTH_HEADER.size : _LENGTH_HEADER.size + length]
