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
* encoding only runs the GF(256) kernel over the ``n - k`` parity rows —
  the systematic shards are read-only views of the block where they can be;
* ``encode_many`` stacks several blocks side by side and runs one kernel
  call for all of them (the kernel is column-wise independent, so blocks of
  different sizes can share a single matrix multiply);
* decode matrices (inverted ``k x k`` sub-matrices) are memoised per sorted
  shard-index tuple in a small LRU cache — the experiments decode at the
  same index subsets over and over;
* when the ``k`` systematic shards are all present, decoding skips matrix
  work entirely and just reassembles the payload.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigurationError, DecodingError
from repro.erasure.gf256 import GF256

_LENGTH_HEADER = struct.Struct(">I")

#: Maximum number of inverted decode matrices kept (shared by all code
#: instances — every node of a simulated cluster decodes the same subsets).
DECODE_CACHE_SIZE = 128

#: Target shard width (bytes per row) of one batched parity-kernel call.
#: Batches are split so each call's working set (k source rows + the
#: accumulator) stays inside L2; beyond that the joined rows stream from L3
#: and the batch runs slower per byte than block-at-a-time encoding.
BATCH_KERNEL_WIDTH = 64 * 1024


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

    def _data_slices(self, block: bytes) -> list[bytes | memoryview]:
        """The ``k`` systematic shards of the length-prefixed, zero-padded block:
        a read-only view of ``block`` (made ``bytes`` first) for each shard wholly
        inside it, a copy for each one that overlaps the header or the padding."""
        block = bytes(block)
        size, h = self.shard_size(len(block)), _LENGTH_HEADER.size
        header, view = _LENGTH_HEADER.pack(len(block)), memoryview(block)
        shards: list[bytes | memoryview] = []
        for start in range(-h, self.data_shards * size - h, size):
            stop = start + size
            if 0 <= start and stop <= len(block):
                shards.append(view[start:stop])
            else:
                edge = header[start + h : stop + h] + block[max(start, 0) : max(stop, 0)]
                shards.append(edge.ljust(size, b"\x00"))
        return shards

    def encode(self, block: bytes) -> list[bytes | memoryview]:
        """Encode ``block`` into ``n`` equally sized shards.

        The first ``k`` shards are the (padded) block itself, views where they
        can be; only the ``n - k`` parity shards go through the GF(256) kernel.
        """
        shards = self._data_slices(block)
        if self.total_shards > self.data_shards:
            shards.extend(GF256.mat_vec_bytes(self._parity_matrix, shards))
        return shards

    def encode_many(self, blocks: list[bytes]) -> list[list[bytes | memoryview]]:
        """Encode several blocks with a single parity-kernel invocation.

        The GF(256) kernel operates column-wise, so blocks of different
        sizes can be laid side by side in one ``(k, sum of widths)`` matrix
        and encoded with one pass; the outputs are then split back per
        block.  Results are byte-identical to calling :meth:`encode` on each
        block individually.
        """
        if not blocks:
            return []
        shard_sizes = [self.shard_size(len(block)) for block in blocks]
        results = [self._data_slices(block) for block in blocks]
        if self.total_shards == self.data_shards:
            return results
        start = 0
        while start < len(results):
            stop = start + 1
            width = shard_sizes[start]
            while stop < len(results) and width + shard_sizes[stop] <= BATCH_KERNEL_WIDTH:
                width += shard_sizes[stop]
                stop += 1
            self._append_parity(results[start:stop], shard_sizes[start:stop])
            start = stop
        return results

    def _append_parity(self, results: list[list[bytes]], shard_sizes: list[int]) -> None:
        """Append the parity shards for one cache-sized group of blocks."""
        if len(results) == 1:
            results[0].extend(GF256.mat_vec_bytes(self._parity_matrix, results[0]))
            return
        stacked = [
            b"".join(result[row] for result in results)
            for row in range(self.data_shards)
        ]
        parity = GF256.mat_vec_bytes(self._parity_matrix, stacked)
        for row_bytes in parity:
            offset = 0
            for result, size in zip(results, shard_sizes):
                result.append(row_bytes[offset : offset + size])
                offset += size

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

    def decode(self, shards: dict[int, bytes]) -> bytes:
        """Reconstruct the original block from any ``k`` shards.

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
            payload = b"".join(shards[i] for i in indices)
        else:
            inverse = self._decode_matrix(tuple(indices))
            rows = GF256.mat_vec_bytes(inverse, [shards[i] for i in indices])
            payload = b"".join(rows)
        (length,) = _LENGTH_HEADER.unpack_from(payload)
        capacity = self.data_shards * shard_size - _LENGTH_HEADER.size
        if length > capacity:
            raise DecodingError(
                f"decoded length header {length} exceeds shard capacity {capacity}"
            )
        return payload[_LENGTH_HEADER.size : _LENGTH_HEADER.size + length]
