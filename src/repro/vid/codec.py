"""Codecs: how blocks become chunks and how chunks become blocks again.

AVID-M's message flow is independent of how the payload is actually encoded,
so the automaton takes a *codec* object:

* :class:`RealCodec` — the faithful implementation: Reed-Solomon encode the
  payload bytes, build a Merkle tree over the chunks, verify Merkle proofs
  on receipt, and re-encode after decoding to detect inconsistent dispersals
  (the "re-encode and compare roots" check that is the key idea of AVID-M).
  The proof check and the re-encode check are pure functions, so a run —
  which hosts the disperser and every retriever in one process, with one
  codec — memoises both by value: a chunk equal to one that passed its proof
  is not hashed again, and chunks equal to a filed encoding are given its
  payload without decoding (see :class:`RealCodec`).
* :class:`VirtualCodec` — used by throughput experiments: payloads are
  opaque objects that only declare a byte size.  A virtual chunk is a real
  chunk without bytes: its size is the real shard size
  (:func:`~repro.erasure.rs_code.shard_size`) and it carries a Merkle proof
  of the real shape (:func:`~repro.crypto.merkle.placeholder_proofs`), so
  every message is billed exactly what the real codec's is, but no bytes
  are moved and simulating multi-megabyte blocks is cheap.  The two planes
  give equal summaries, byte counts and ledgers
  (``tests/test_sim_integration.py``); correctness of the real data path is
  established separately by the unit/property tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.common.errors import DecodingError
from repro.common.params import ProtocolParams
from repro.crypto.merkle import MerkleProof, MerkleTree, placeholder_proofs, verify_proof
from repro.erasure.rs_code import ReedSolomonCode, shard_size

#: The fixed error string returned when an inconsistent dispersal is detected
#: (Fig. 4, step 4 of the paper).
BAD_UPLOADER = "BAD_UPLOADER"


@dataclass(frozen=True)
class Chunk:
    """One erasure-coded chunk as held by a server: ``Chunk(r, C_i, P_i)``
    carries its Merkle proof.

    The real codec fills ``data``.  The virtual codec leaves it ``None`` and
    carries ``size`` (payload bytes), a proof of the real shape whose
    digests are zeros, and the payload reference needed to reassemble the
    virtual block; so a virtual chunk is billed exactly what a real one is,
    and :meth:`RealCodec.verify_chunk` refuses it.  An encoder's
    ``data`` is a read-only ``memoryview`` of one row of the block's encoding
    buffer (:meth:`ReedSolomonCode.encode_with_payload`); it compares equal
    to its bytes and pickles as ``bytes`` (the reducer :mod:`rs_code
    <repro.erasure.rs_code>` registers), but does not hash: a view hashes
    only when the object under it does, and that buffer is a ``bytearray``.
    """

    index: int
    size: int
    proof: MerkleProof
    data: bytes | memoryview | None = None
    payload_ref: Any = None

    @property
    def wire_size(self) -> int:
        """Bytes the chunk body plus its Merkle proof occupy on the wire."""
        return self.size + self.proof.wire_size


@dataclass(frozen=True)
class DispersalBundle:
    """The output of encoding a payload for dispersal: a root and N chunks."""

    root: bytes
    chunks: tuple[Chunk, ...]
    payload_size: int


_UNSET: Any = object()


def _same_bytes(a: bytes | memoryview, b: bytes | memoryview) -> bool:
    """``a == b`` at ``memcmp`` speed: ``memoryview.__eq__`` compares item
    by item, ~150x slower than ``bytes`` on a 500 kB block."""
    if a is b:
        return True
    return len(a) == len(b) and np.array_equal(
        np.frombuffer(a, dtype=np.uint8), np.frombuffer(b, dtype=np.uint8)
    )


class _RootRecord:
    """What one run has established about one Merkle root."""

    __slots__ = ("leaves", "shards", "payload", "parsed")

    def __init__(self) -> None:
        #: ``index -> chunk`` whose proof passed under this root.
        self.leaves: dict[int, Chunk] = {}
        #: The filed encoding: ``N`` read-only shard views of one buffer whose
        #: Merkle root is this root, and the payload they encode, a view of
        #: the same buffer.
        self.shards: list[memoryview] | None = None
        self.payload: memoryview | None = None
        #: What :meth:`RealCodec.parse_shared` made of that payload.
        self.parsed: Any = _UNSET


class RealCodec:
    """Erasure-code + Merkle-tree codec operating on real bytes.

    A run builds one codec and hands it to every node, as it hands them one
    common coin, and the codec keeps the run's *retrieval record*, keyed by
    Merkle root.  AVID-M's retrieval (Fig. 4) is two pure functions: a proof
    check per chunk, and a decode from ``N - 2f`` chunks that re-encodes the
    result and compares Merkle roots.  The record memoises both by value.

    *Leaves.*  :meth:`verify_chunk` files under its index each chunk whose
    proof passed.  A chunk with an equal proof and equal bytes would pass
    the same check, so it is not hashed again; anything else is.

    *The filed encoding.*  :meth:`encode` files its buffer: the ``N`` shards
    are ``P``'s encoding and the root is their Merkle root, so the full check
    on ``P`` would pass.  A passing full check files its own re-encoding.  A
    decode whose every given chunk equals the filed shard at its key is
    *served* the filed payload: Reed-Solomon on ``k`` shards of a codeword
    gives back that codeword's payload (the code is MDS), whose re-encoding
    is the filed one.  Any other decode runs the full check, so no caller —
    not even one decoding tampered chunks — can read a wrong verdict or
    leave one behind.  Failed checks are not recorded: an inconsistent
    dispersal decodes to a different payload for different chunk subsets,
    so there is nothing to share.  Every retriever of a root is handed the
    filed payload object, so a simulated cluster holds one copy of each
    block, not one per node.

    The record lives as long as the run, whose ledgers hold every retrieved
    block anyway, so it needs no bound.  Results are identical with a cold or
    a warm record; only host time and memory differ.  A codec pickles as its
    ``params``, so a restored run starts with an empty record and checks
    each root once.
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

    def _file(self, root: bytes, payload: memoryview, shards: list[memoryview]) -> memoryview:
        """File ``payload`` and its encoding ``shards`` under ``root`` unless
        a payload is there already; the filed one if equal, else ``payload``
        (an unequal one needs a hash collision, and is left alone)."""
        record = self._root(root)
        if record.payload is None:
            record.payload, record.shards = payload, shards
            self._by_payload[id(payload)] = record
        return record.payload if _same_bytes(record.payload, payload) else payload

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
        self._file(tree.root, payload, shards)
        return DispersalBundle(root=tree.root, chunks=chunks, payload_size=len(payload))

    def verify_chunk(self, root: bytes, chunk: Chunk) -> bool:
        """Check that ``chunk`` really is the ``chunk.index``-th leaf under ``root``.

        Also refuses a chunk whose declared ``size`` (what the wire is billed)
        differs from the bytes it carries, and an index outside ``0..N-1``
        (padding leaves of the Merkle tree are not chunks).
        """
        if chunk.data is None:
            return False
        if chunk.proof.index != chunk.index or not 0 <= chunk.index < self.params.n:
            return False
        if chunk.size != len(chunk.data):
            return False
        record = self._roots.get(root)
        leaf = None if record is None else record.leaves.get(chunk.index)
        if leaf is not None and (
            leaf is chunk or (leaf.proof == chunk.proof and _same_bytes(leaf.data, chunk.data))
        ):
            return True
        if not verify_proof(root, chunk.data, chunk.proof):
            return False
        self._root(root).leaves[chunk.index] = chunk
        return True

    def decode(self, root: bytes, chunks: dict[int, Chunk]) -> Any:
        """Decode from at least ``N - 2f`` chunks and run the re-encode check.

        Returns the decoded payload (a read-only view), or :data:`BAD_UPLOADER`
        if the chunks were not a consistent encoding of any payload (Fig. 4).
        Chunks whose bytes all equal the filed encoding at their keys are
        served its payload without decoding; a passing check files its
        re-encoding.  Either way a root's retrievers share one payload object.
        """
        shards = {
            index: chunk.data for index, chunk in chunks.items() if chunk.data is not None
        }
        record = self._roots.get(root)
        filed = None if record is None else record.shards
        if (
            filed is not None
            and len(shards) >= self.params.data_shards
            and all(
                0 <= i < len(filed) and _same_bytes(data, filed[i]) for i, data in shards.items()
            )
        ):
            self._served += 1
            return record.payload
        try:
            payload = self._rs.decode(shards)
        except DecodingError:
            return BAD_UPLOADER
        self._computed += 1
        payload, encoding = self._rs.encode_with_payload(payload)
        if MerkleTree(encoding).root != root:
            return BAD_UPLOADER
        return self._file(root, payload, encoding)


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
    """Byte-accounting codec: moves no data, but bills what the real codec does.

    Chunk ``i`` of every dispersal has the real shard size and carries proof
    ``i`` of :func:`~repro.crypto.merkle.placeholder_proofs`, built once per
    codec: a proof of the real shape, so a virtual chunk is a real chunk
    without bytes.
    """

    def __init__(self, params: ProtocolParams):
        self.params = params
        self._proofs = placeholder_proofs(params.n)

    def encode(self, payload: Any) -> DispersalBundle:
        size = payload.size if hasattr(payload, "size") else len(payload)
        chunk_size = shard_size(size, self.params.data_shards)
        root = (
            payload.digest()
            if hasattr(payload, "digest")
            else hashlib.sha256(bytes(payload)).digest()
        )
        chunks = tuple(
            Chunk(index=i, size=chunk_size, proof=self._proofs[i], payload_ref=payload)
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
