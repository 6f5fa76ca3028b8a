"""Codecs: how blocks become chunks and how chunks become blocks again.

AVID-M's message flow is independent of how the payload is actually encoded,
so the automaton takes a *codec* object:

* :class:`RealCodec` — the faithful implementation: Reed-Solomon encode the
  payload bytes, build a Merkle tree over the chunks, verify Merkle proofs
  on receipt, and re-encode after decoding to detect inconsistent dispersals
  (the "re-encode and compare roots" check that is the key idea of AVID-M).
  That check is a pure function of the decoded payload and the root, so a
  run — which hosts the disperser and every retriever in one process, with
  one codec — shares the verdict: the encoder files the payload it just
  encoded, and a retriever holding the encoder's own chunk objects takes
  that payload without decoding at all (see :class:`RealCodec`).
* :class:`VirtualCodec` — used by throughput experiments: payloads are
  opaque objects that only declare a byte size; chunk sizes and message
  sizes are computed exactly as the real codec would, but no bytes are
  moved, so simulating multi-megabyte blocks is cheap.  Correctness of the
  real data path is established separately by the unit/property tests.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.common.errors import DecodingError
from repro.common.params import ProtocolParams
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.merkle import MerkleProof, MerkleTree, verify_proof
from repro.erasure.rs_code import ReedSolomonCode

#: The fixed error string returned when an inconsistent dispersal is detected
#: (Fig. 4, step 4 of the paper).
BAD_UPLOADER = "BAD_UPLOADER"


@dataclass(frozen=True)
class Chunk:
    """One erasure-coded chunk as held by a server.

    ``data`` and ``proof`` are populated by the real codec; the virtual codec
    leaves them ``None`` and only carries ``size`` (payload bytes) plus the
    payload reference needed to reassemble the virtual block.  An encoder's
    ``data`` is a read-only ``memoryview`` of one row of the block's encoding
    buffer (:meth:`ReedSolomonCode.encode_with_payload`); it compares equal
    to its bytes and pickles as ``bytes`` (the reducer :mod:`rs_code
    <repro.erasure.rs_code>` registers), but does not hash: a view hashes
    only when the object under it does, and that buffer is a ``bytearray``.

    The class must stay weak-referenceable (no ``__slots__``): the codec's
    retrieval record notes verified chunk objects without keeping them alive.
    """

    index: int
    size: int
    data: bytes | memoryview | None = None
    proof: MerkleProof | None = None
    payload_ref: Any = None

    @property
    def wire_size(self) -> int:
        """Bytes the chunk body plus its Merkle proof occupy on the wire."""
        proof_size = self.proof.wire_size if self.proof is not None else self._proof_size_estimate()
        return self.size + proof_size

    def _proof_size_estimate(self) -> int:
        # Virtual chunks still account for the Merkle proof the real protocol
        # would carry: index (4 bytes) plus ceil(log2 N) sibling digests.
        return 4


@dataclass(frozen=True)
class DispersalBundle:
    """The output of encoding a payload for dispersal: a root and N chunks."""

    root: bytes
    chunks: tuple[Chunk, ...]
    payload_size: int


def _proof_wire_size(num_leaves: int) -> int:
    depth = 0
    width = 1
    while width < num_leaves:
        width *= 2
        depth += 1
    return 4 + DIGEST_SIZE * depth


_UNSET: Any = object()


def _same_bytes(a: memoryview, b: memoryview) -> bool:
    """``a == b`` for two payloads at ``memcmp`` speed: ``memoryview.__eq__``
    compares item by item, ~150x slower than ``bytes`` on a 500 kB block."""
    if a is b:
        return True
    return len(a) == len(b) and np.array_equal(
        np.frombuffer(a, dtype=np.uint8), np.frombuffer(b, dtype=np.uint8)
    )


class _RootRecord:
    """What one run has established about one Merkle root."""

    __slots__ = ("verified", "consistent", "payload", "parsed")

    def __init__(self) -> None:
        #: ``id(chunk) -> chunk`` for the exact objects that passed their proof.
        self.verified: weakref.WeakValueDictionary[int, Chunk] = (
            weakref.WeakValueDictionary()
        )
        #: ``id(chunk) -> chunk`` for the encoder's own chunks of :attr:`payload`.
        self.consistent: weakref.WeakValueDictionary[int, Chunk] = (
            weakref.WeakValueDictionary()
        )
        #: The payload the encoder filed, or whose re-encoding matched: a
        #: read-only view of its encoding or decoding buffer.
        self.payload: memoryview | None = None
        #: What :meth:`RealCodec.parse_shared` made of that payload.
        self.parsed: Any = _UNSET

    def has_verified(self, chunk: Chunk) -> bool:
        return self.verified.get(id(chunk)) is chunk

    def is_encoding(self, chunks: dict[int, Chunk], indices: list[int]) -> bool:
        """Whether each selected chunk is a consistent object filed under its index."""
        return all(
            chunks[i].index == i and self.consistent.get(id(chunks[i])) is chunks[i]
            for i in indices
        )


class RealCodec:
    """Erasure-code + Merkle-tree codec operating on real bytes.

    A run builds one codec and hands it to every node, as it hands them one
    common coin, and the codec keeps the run's *retrieval record*, keyed by
    Merkle root.  AVID-M's retrieval (Fig. 4) decodes from ``N - 2f``
    proof-checked chunks, re-encodes the result and compares Merkle roots.
    Which chunks a retriever holds is its own affair, so every retriever
    checks its own proofs.  The re-encode check, though, is a pure function of
    ``(root, decoded payload)``: once one retriever has established that a
    payload re-encodes to a root, any other whose decode produced the same
    bytes would compute the same verdict, and takes it from the record
    instead.  It is also handed the *recorded* payload object, so a simulated
    cluster holds one copy of each block, not one per node.

    The encoder is the one writer of *consistent* marks (:meth:`file_encoding`,
    called from :meth:`encode` only): the chunks it just built are ``P``'s
    shards and the root is their Merkle root, so the full check on ``P``
    would pass.  A decode whose ``k`` selected chunks are all marked, each
    filed under its own index, is given the filed payload without decoding:
    Reed-Solomon on ``k`` shards of a payload's encoding gives back that
    payload (the code is MDS).  A root the encoder did not file (after a
    checkpoint restore, or an adversary's hand-built tree) is decoded by
    every retriever; the first full check files its payload, and later
    retrievers whose decode equals it skip the re-encoding.

    Reading needs byte equality with a payload that passed the full check, or
    that the encoder filed, so no caller — not even one decoding tampered
    chunks — can read a wrong verdict or leave one behind.  Failed checks are
    not recorded: an inconsistent dispersal decodes to a different payload
    for different chunk subsets, so there is nothing to share.

    Separately, the record notes the exact ``Chunk`` objects
    :meth:`verify_chunk` accepted under a root, by *identity*: when one node
    forwards the object it verified to another, hashing the same bytes
    against the same root again proves nothing new.  An equal-looking copy
    is a different object and is hashed.

    The record lives as long as the run, whose ledgers hold every retrieved
    block anyway, so it needs no bound.  Results are identical with a cold or
    a warm record; only host time and memory differ.  A codec pickles as its
    ``params``, so a restored run starts with an empty record.
    """

    def __init__(self, params: ProtocolParams):
        self.params = params
        self._rs = ReedSolomonCode(params.data_shards, params.total_shards)
        self._roots: dict[bytes, _RootRecord] = {}
        #: ``id(payload) -> record`` for filed payloads (see :meth:`parse_shared`).
        self._by_payload: dict[int, _RootRecord] = {}
        self._served = 0
        self._computed = 0

    def __getstate__(self) -> dict:
        return {"params": self.params}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["params"])

    def counters(self) -> dict[str, int]:
        """The record's size and work: ``roots`` it holds, ``served`` decodes
        that took their verdict from it, ``computed`` re-encode checks run."""
        return {"roots": len(self._roots), "served": self._served, "computed": self._computed}

    def _root(self, root: bytes) -> _RootRecord:
        record = self._roots.get(root)
        if record is None:
            record = self._roots[root] = _RootRecord()
        return record

    def _file(self, root: bytes, payload: memoryview) -> _RootRecord | None:
        """File ``payload`` under ``root`` unless an unequal one (a hash
        collision) is there already; the record, if it holds ``payload``."""
        record = self._root(root)
        if record.payload is None:
            record.payload = payload
            self._by_payload[id(payload)] = record
        return record if _same_bytes(record.payload, payload) else None

    def file_encoding(self, root: bytes, payload: memoryview, chunks: tuple[Chunk, ...]) -> None:
        """File an encoder's ``payload`` and mark its own ``chunks`` consistent.

        A root that already holds an equal payload keeps that object and only
        gains the marks.
        """
        record = self._file(root, payload)
        if record is not None:
            for chunk in chunks:
                record.consistent[id(chunk)] = chunk

    def parse_shared(self, payload: memoryview, parse: Callable[[memoryview], Any]) -> Any:
        """``parse(payload)``, computed once per filed payload object.

        Every retriever of a root receives the *same* payload object from
        :meth:`decode`, so the parsed form (the node layer's frozen ``Block``)
        can be shared exactly as the virtual plane shares one block object
        across all nodes.  A record keeps one parsed form, so all callers must
        pass the same ``parse``; payloads the record does not hold are parsed
        afresh.
        """
        record = self._by_payload.get(id(payload))
        if record is None:
            return parse(payload)
        if record.parsed is _UNSET:
            record.parsed = parse(payload)
        return record.parsed

    def chunk_payload_size(self, payload_size: int) -> int:
        """Size in bytes of each chunk's data for a payload of ``payload_size``."""
        return self._rs.shard_size(payload_size)

    def chunk_wire_size(self, payload_size: int) -> int:
        """Bytes one chunk message body occupies (chunk data + Merkle proof)."""
        return self.chunk_payload_size(payload_size) + _proof_wire_size(self.params.n)

    def encode(self, payload: bytes) -> DispersalBundle:
        """Encode ``payload`` into N chunks committed to by a Merkle root.

        The chunks' data and the payload this files are read-only views of
        one buffer (:meth:`ReedSolomonCode.encode_with_payload`).
        """
        payload, shards = self._rs.encode_with_payload(payload)
        tree = MerkleTree(shards)
        proofs = tree.proofs_all()
        chunks = tuple(
            Chunk(index=i, size=len(shards[i]), data=shards[i], proof=proofs[i])
            for i in range(self.params.n)
        )
        # These chunks are ``payload``'s encoding and ``tree.root`` is their
        # root: the retrieval check on ``payload`` would pass, so file it.
        self.file_encoding(tree.root, payload, chunks)
        return DispersalBundle(root=tree.root, chunks=chunks, payload_size=len(payload))

    def verify_chunk(self, root: bytes, chunk: Chunk) -> bool:
        """Check that ``chunk`` really is the ``chunk.index``-th leaf under ``root``.

        Also refuses a chunk whose declared ``size`` (what the wire is billed)
        differs from the bytes it carries, and an index outside ``0..N-1``
        (padding leaves of the Merkle tree are not chunks).
        """
        if chunk.data is None or chunk.proof is None:
            return False
        if chunk.proof.index != chunk.index or not 0 <= chunk.index < self.params.n:
            return False
        if chunk.size != len(chunk.data):
            return False
        record = self._roots.get(root)
        if record is not None and record.has_verified(chunk):
            return True
        if not verify_proof(root, chunk.data, chunk.proof):
            return False
        self._root(root).verified[id(chunk)] = chunk
        return True

    def decode(self, root: bytes, chunks: dict[int, Chunk]) -> Any:
        """Decode from at least ``N - 2f`` chunks and run the re-encode check.

        Returns the decoded payload (a read-only view), or :data:`BAD_UPLOADER`
        if the chunks were not a consistent encoding of any payload (Fig. 4).  The
        decode is skipped when every chunk it would select is marked
        consistent with the filed payload, and the check when the record
        already holds the decoded bytes as the payload that re-encodes to
        ``root``; the filed object is returned then, so all retrievers of a
        root share one payload.
        """
        shards = {
            index: chunk.data for index, chunk in chunks.items() if chunk.data is not None
        }
        record = self._roots.get(root)
        if (
            record is not None
            and len(shards) >= self.params.data_shards
            and record.is_encoding(chunks, self._rs._select_indices(shards))
        ):
            self._served += 1
            return record.payload
        try:
            payload = self._rs.decode(shards)
        except DecodingError:
            return BAD_UPLOADER
        filed = None if record is None else record.payload
        if filed is not None and _same_bytes(filed, payload):
            self._served += 1
            return filed
        self._computed += 1
        if MerkleTree(self._rs.encode(payload)).root != root:
            return BAD_UPLOADER
        self._file(root, payload)
        return payload

    def payload_size(self, payload: memoryview) -> int:
        return len(payload)


@dataclass(frozen=True)
class VirtualPayload:
    """A stand-in for a block: an identity plus a declared byte size.

    ``payload_id`` names the payload (the equivocator names it after its VID
    instance); the virtual root is a digest of it and ``size``, so it is the
    same in every process and every run.

    ``inconsistent`` marks the virtual counterpart of an equivocating
    dispersal: the chunks carry the right sizes, but they are not the
    encoding of any single payload, so :meth:`VirtualCodec.decode` reports
    :data:`BAD_UPLOADER` exactly where the real codec's re-encode check
    would (Fig. 4, step 4).
    """

    payload_id: object
    size: int
    label: str = ""
    inconsistent: bool = False

    def digest(self) -> bytes:
        return hashlib.sha256(f"virtual-{self.payload_id}-{self.size}".encode()).digest()


class VirtualCodec:
    """Byte-accounting codec: moves no data, but sizes match the real codec."""

    def __init__(self, params: ProtocolParams):
        self.params = params
        self._rs_overhead = 4  # length header added by the real Reed-Solomon code

    def chunk_payload_size(self, payload_size: int) -> int:
        padded = payload_size + self._rs_overhead
        return max(1, -(-padded // self.params.data_shards))

    def chunk_wire_size(self, payload_size: int) -> int:
        return self.chunk_payload_size(payload_size) + _proof_wire_size(self.params.n)

    def encode(self, payload: Any) -> DispersalBundle:
        size = payload.size if hasattr(payload, "size") else len(payload)
        chunk_size = self.chunk_payload_size(size)
        root = (
            payload.digest()
            if hasattr(payload, "digest")
            else hashlib.sha256(bytes(payload)).digest()
        )
        chunks = tuple(
            Chunk(index=i, size=chunk_size, payload_ref=payload)
            for i in range(self.params.n)
        )
        return DispersalBundle(root=root, chunks=chunks, payload_size=size)

    def verify_chunk(self, root: bytes, chunk: Chunk) -> bool:
        return chunk.payload_ref is not None

    def decode(self, root: bytes, chunks: dict[int, Chunk]) -> Any:
        for chunk in chunks.values():
            if chunk.payload_ref is not None:
                if getattr(chunk.payload_ref, "inconsistent", False):
                    # The virtual analogue of the re-encode check: these
                    # chunks never were one payload's encoding.
                    return BAD_UPLOADER
                return chunk.payload_ref
        return BAD_UPLOADER

    def payload_size(self, payload: Any) -> int:
        return payload.size if hasattr(payload, "size") else len(payload)
