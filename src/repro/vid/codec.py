"""Codecs: how blocks become chunks and how chunks become blocks again.

AVID-M's message flow is independent of how the payload is actually encoded,
so the automaton takes a *codec* object:

* :class:`RealCodec` — the faithful implementation: Reed-Solomon encode the
  payload bytes, build a Merkle tree over the chunks, verify Merkle proofs
  on receipt, and re-encode after decoding to detect inconsistent dispersals
  (the "re-encode and compare roots" check that is the key idea of AVID-M).
  That check is a pure function of the decoded payload and the root, so the
  simulator — which hosts every retriever in one process — runs it once per
  root and shares the verdict (see :class:`_RetrievalRecord`).
* :class:`VirtualCodec` — used by throughput experiments: payloads are
  opaque objects that only declare a byte size; chunk sizes and message
  sizes are computed exactly as the real codec would, but no bytes are
  moved, so simulating multi-megabyte blocks is cheap.  Correctness of the
  real data path is established separately by the unit/property tests.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from dataclasses import dataclass
from typing import Any, Callable

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
    payload reference needed to reassemble the virtual block.

    The class must stay weak-referenceable (no ``__slots__``): the shared
    retrieval record notes verified chunk objects without keeping them alive.
    """

    index: int
    size: int
    data: bytes | None = None
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


#: Merkle roots the shared retrieval record remembers (oldest evicted first;
#: eviction only loses sharing).  After a run ends, a long-lived process
#: retains at most this many checked payloads plus their parsed forms —
#: about ``2 * RETRIEVAL_RECORD_ROOTS * block size`` (64 MB at 500 kB blocks);
#: the notes on verified chunks are weak and die with the run's nodes.
RETRIEVAL_RECORD_ROOTS = 64

_UNSET: Any = object()


class _RootRecord:
    """What this process has established about one Merkle root."""

    __slots__ = ("verified", "payload", "parsed")

    def __init__(self) -> None:
        #: ``id(chunk) -> chunk`` for the exact objects that passed their proof.
        self.verified: weakref.WeakValueDictionary[int, Chunk] = (
            weakref.WeakValueDictionary()
        )
        #: The payload whose re-encoding matched this root, once one did.
        self.payload: bytes | None = None
        #: What :func:`parse_shared` made of that payload.
        self.parsed: Any = _UNSET

    def has_verified(self, chunk: Chunk) -> bool:
        return self.verified.get(id(chunk)) is chunk


class _RetrievalRecord:
    """Process-wide record of retrieval facts, keyed by code and Merkle root.

    AVID-M's retrieval (Fig. 4) decodes from ``N - 2f`` proof-checked chunks,
    re-encodes the result and compares Merkle roots.  Which chunks a retriever
    holds is its own affair, so every retriever checks its own proofs and
    decodes its own chunks.  The re-encode check, though, is a pure function
    of ``(code, root, decoded payload)``: once one retriever has established
    that a payload re-encodes to a root, any other whose decode produced the
    same bytes would compute the same verdict, and takes it from here
    instead.  It is also handed the *recorded* payload object, so a simulated
    cluster holds one copy of each block, not one per node.

    Reading needs byte equality with a payload that passed the full check and
    writing happens only after the full check, so no caller — not even one
    decoding tampered chunks — can read a wrong verdict or leave one behind.
    Failed checks are not recorded: an inconsistent dispersal decodes to a
    different payload for different chunk subsets, so there is nothing to
    share.

    Separately, the record notes the exact ``Chunk`` objects
    :meth:`RealCodec.verify_chunk` accepted under a root, by *identity*: when
    one node forwards the object it verified to another, hashing the same
    bytes against the same root again proves nothing new.  An equal-looking
    copy is a different object and is hashed.
    """

    def __init__(self) -> None:
        #: Insertion-ordered, so the first key is the oldest root.
        self.roots: dict[tuple[int, int, bytes], _RootRecord] = {}
        #: ``id(payload) -> record`` for recorded payloads (see ``parse_shared``).
        self._by_payload: dict[int, _RootRecord] = {}
        self.served = 0
        self.computed = 0

    def _root(self, key: tuple[int, int, bytes]) -> _RootRecord:
        record = self.roots.get(key)
        if record is None:
            while len(self.roots) >= RETRIEVAL_RECORD_ROOTS:
                self._evict_oldest()
            record = self.roots[key] = _RootRecord()
        return record

    def note_verified(self, key: tuple[int, int, bytes], chunk: Chunk) -> None:
        self._root(key).verified[id(chunk)] = chunk

    def set_payload(self, key: tuple[int, int, bytes], payload: bytes) -> None:
        record = self._root(key)
        record.payload = payload
        self._by_payload[id(payload)] = record

    def owner_of(self, payload: Any) -> _RootRecord | None:
        record = self._by_payload.get(id(payload))
        return record if record is not None and record.payload is payload else None

    def _evict_oldest(self) -> None:
        record = self.roots.pop(next(iter(self.roots)))
        self._by_payload.pop(id(record.payload), None)

    def clear(self) -> None:
        self.roots.clear()
        self._by_payload.clear()
        self.served = self.computed = 0

    def info(self) -> dict[str, int]:
        return {"roots": len(self.roots), "served": self.served, "computed": self.computed}


_RECORD = _RetrievalRecord()


def clear_retrieval_record() -> None:
    """Forget everything the shared retrieval record holds (tests, benchmarks)."""
    _RECORD.clear()


def retrieval_record_info() -> dict[str, int]:
    """Counters of the shared retrieval record (for tests and docs).

    ``served`` decodes took their re-encode verdict from the record,
    ``computed`` re-encoded and compared roots themselves; ``roots`` is the
    current entry count, bounded by :data:`RETRIEVAL_RECORD_ROOTS`.
    """
    return _RECORD.info()


def parse_shared(payload: bytes, parse: Callable[[bytes], Any]) -> Any:
    """``parse(payload)``, computed once per recorded payload object.

    Every retriever of a root receives the *same* payload object from
    :meth:`RealCodec.decode`, so the parsed form (the node layer's frozen
    ``Block``) can be shared exactly as the virtual plane shares one block
    object across all nodes.  A record keeps one parsed form, so all callers
    must pass the same ``parse``; payloads the record does not hold (direct
    calls, evicted roots) are parsed afresh.
    """
    record = _RECORD.owner_of(payload)
    if record is None:
        return parse(payload)
    if record.parsed is _UNSET:
        record.parsed = parse(payload)
    return record.parsed


class RealCodec:
    """Erasure-code + Merkle-tree codec operating on real bytes.

    Encoding and decoding are per call.  Verification and the retrieval check
    consult the process-wide :class:`_RetrievalRecord`: a chunk object that
    already passed its proof under a root is not hashed again, and a decode
    that produced a payload already known to re-encode to the root skips the
    re-encoding and root comparison another node of the simulated cluster
    already did, returning that node's payload object.  Results are identical
    with a cold, warm or evicted record; only host time and memory differ.
    """

    def __init__(self, params: ProtocolParams):
        self.params = params
        self._rs = ReedSolomonCode(params.data_shards, params.total_shards)

    def _record_key(self, root: bytes) -> tuple[int, int, bytes]:
        return (self.params.data_shards, self.params.total_shards, root)

    def chunk_payload_size(self, payload_size: int) -> int:
        """Size in bytes of each chunk's data for a payload of ``payload_size``."""
        return self._rs.shard_size(payload_size)

    def chunk_wire_size(self, payload_size: int) -> int:
        """Bytes one chunk message body occupies (chunk data + Merkle proof)."""
        return self.chunk_payload_size(payload_size) + _proof_wire_size(self.params.n)

    def encode(self, payload: bytes) -> DispersalBundle:
        """Encode ``payload`` into N chunks committed to by a Merkle root."""
        return self._bundle(self._rs.encode(payload), len(payload))

    def encode_many(self, payloads: list[bytes]) -> list[DispersalBundle]:
        """Encode several payloads, batching the Reed-Solomon parity work.

        All payloads share one GF(256) kernel invocation (see
        :meth:`repro.erasure.rs_code.ReedSolomonCode.encode_many`); each
        still gets its own Merkle tree and root.  Bundles are byte-identical
        to encoding each payload with :meth:`encode`.
        """
        shard_lists = self._rs.encode_many(payloads)
        return [
            self._bundle(shards, len(payload))
            for shards, payload in zip(shard_lists, payloads)
        ]

    def _bundle(self, shards: list[bytes], payload_size: int) -> DispersalBundle:
        tree = MerkleTree(shards)
        proofs = tree.proofs_all()
        chunks = tuple(
            Chunk(index=i, size=len(shards[i]), data=shards[i], proof=proofs[i])
            for i in range(self.params.n)
        )
        return DispersalBundle(root=tree.root, chunks=chunks, payload_size=payload_size)

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
        key = self._record_key(root)
        record = _RECORD.roots.get(key)
        if record is not None and record.has_verified(chunk):
            return True
        if not verify_proof(root, chunk.data, chunk.proof):
            return False
        _RECORD.note_verified(key, chunk)
        return True

    def decode(self, root: bytes, chunks: dict[int, Chunk]) -> Any:
        """Decode from at least ``N - 2f`` chunks and run the re-encode check.

        Returns the decoded payload bytes, or :data:`BAD_UPLOADER` if the
        chunks were not a consistent encoding of any payload (Fig. 4).  The
        check is skipped when the shared record already holds these very
        bytes as the payload that re-encodes to ``root``; the recorded object
        is returned then, so all retrievers of a root share one payload.
        """
        shards = {
            index: chunk.data for index, chunk in chunks.items() if chunk.data is not None
        }
        try:
            payload = self._rs.decode(shards)
        except DecodingError:
            return BAD_UPLOADER
        key = self._record_key(root)
        record = _RECORD.roots.get(key)
        if record is not None and record.payload == payload:
            _RECORD.served += 1
            return record.payload
        _RECORD.computed += 1
        reencoded = self._rs.encode(payload)
        if MerkleTree(reencoded).root != root:
            return BAD_UPLOADER
        _RECORD.set_payload(key, payload)
        return payload

    def payload_size(self, payload: bytes) -> int:
        return len(payload)


_virtual_ids = itertools.count()


@dataclass(frozen=True)
class VirtualPayload:
    """A stand-in for a block: an identity plus a declared byte size.

    ``inconsistent`` marks the virtual counterpart of an equivocating
    dispersal: the chunks carry the right sizes, but they are not the
    encoding of any single payload, so :meth:`VirtualCodec.decode` reports
    :data:`BAD_UPLOADER` exactly where the real codec's re-encode check
    would (Fig. 4, step 4).
    """

    payload_id: int
    size: int
    label: str = ""
    inconsistent: bool = False

    @classmethod
    def create(cls, size: int, label: str = "", inconsistent: bool = False) -> "VirtualPayload":
        return cls(
            payload_id=next(_virtual_ids), size=size, label=label, inconsistent=inconsistent
        )

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

    def encode_many(self, payloads: list[Any]) -> list[DispersalBundle]:
        """Batch form of :meth:`encode` (no actual batching — nothing to batch)."""
        return [self.encode(payload) for payload in payloads]

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
