"""AVID-M: Asynchronous Verifiable Information Dispersal with Merkle trees.

This module implements the dispersal algorithm of Fig. 3 and the retrieval
algorithm of Fig. 4 of the paper as a single per-instance automaton.  Each
node hosts one :class:`AvidMInstance` per VID instance (i.e. per proposer
slot per epoch in DispersedLedger) and plays up to three roles with it:

* **server** — stores its chunk, exchanges ``GotChunk``/``Ready`` votes, and
  answers retrieval requests;
* **dispersing client** — encodes a payload and sends every server its chunk
  (only the node that owns the slot plays this role);
* **retrieving client** — requests chunks, decodes, and runs the re-encode
  verification, returning either the payload or ``BAD_UPLOADER``.

The retrieval client asks every server for its chunk (Fig. 4 broadcasts
``RequestChunk``), decodes from the first ``N - 2f`` consistent chunks, and
then tells the remaining servers to stop sending — the paper's prototype
likewise stops transfers once a block is decodable (S6.3), so a client does
not download ``N/(N-2f)``x the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import DispersalError
from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.common.snapshot import SnapshotState
from repro.sim.context import NodeContext
from repro.sim.messages import Message
from repro.vid.codec import BAD_UPLOADER, Chunk
from repro.vid.messages import (
    CancelChunkMsg,
    ChunkMsg,
    GotChunkMsg,
    ReadyMsg,
    RequestChunkMsg,
    ReturnChunkMsg,
)


def _without(counts: dict[bytes, int] | None, root: bytes) -> dict[bytes, int] | None:
    """``counts`` rebuilt without ``root``, or ``None`` if no other root counts."""
    if counts is None:
        return None
    return {r: c for r, c in counts.items() if r != root} or None


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of a ``Retrieve`` invocation."""

    instance: VIDInstanceId
    payload: Any
    ok: bool


class AvidMInstance(SnapshotState):
    """One VID instance (server + optional client roles) at one node."""

    #: ``_received_chunks`` is set by the first ``retrieve``; it and
    #: ``_return_chunk_seen`` are deleted, and ``_retrieval_result`` set, on
    #: the first decode.  A snapshot simply omits an absent slot, and restore
    #: leaves it absent.
    _SNAPSHOT_FIELDS = (
        "params",
        "instance",
        "ctx",
        "codec",
        "on_complete",
        "allowed_disperser",
        "retrieval_rank",
        "my_chunk",
        "my_root",
        "chunk_root",
        "completed",
        "_sent_got_chunk",
        "_sent_ready_roots",
        "_got_chunk_count",
        "_ready_count",
        "_got_chunk_seen",
        "_ready_seen",
        "_pending_requests",
        "_return_msg",
        "_retrieving",
        "_retrieval_done",
        "_retrieval_callbacks",
        "_received_chunks",
        "_return_chunk_seen",
        "_cancelled_retrievers",
        "_retriever_cancelled",
        "_retrieval_result",
    )
    __slots__ = _SNAPSHOT_FIELDS

    def __init__(
        self,
        params: ProtocolParams,
        instance: VIDInstanceId,
        ctx: NodeContext,
        codec: Any,
        on_complete: Callable[[VIDInstanceId], None] | None = None,
        allowed_disperser: int | None = None,
        retrieval_rank: float = 0.0,
    ):
        self.params = params
        self.instance = instance
        self.ctx = ctx
        self.codec = codec
        self.on_complete = on_complete
        self.allowed_disperser = allowed_disperser
        self.retrieval_rank = retrieval_rank

        # --- server state (Fig. 3) ---
        self.my_chunk: Chunk | None = None
        self.my_root: bytes | None = None
        self.chunk_root: bytes | None = None
        self.completed = False
        self._sent_got_chunk = False
        #: The roots this node sent ``Ready`` for: one, unless the disperser
        #: equivocated, so a tuple (a set cost 216 B per instance).
        self._sent_ready_roots: tuple[bytes, ...] = ()
        # Distinct-sender vote counts per root, ``None`` while empty.  The
        # seen-masks dedup senders (bit ``1 << src``, one vote each), so a
        # plain counter is enough for the quorum rules — no per-root sender
        # sets, and one machine word per tally up to N=64 where a set cost
        # 2 KB.  Completion rebuilds both without ``chunk_root`` (rebuilds,
        # because a dict keeps its table after its last key is deleted), to
        # ``None`` unless another root still counts, and later votes for
        # that root only set their seen bit.
        self._got_chunk_count: dict[bytes, int] | None = None
        self._ready_count: dict[bytes, int] | None = None
        self._got_chunk_seen = 0
        self._ready_seen = 0
        #: Clients whose request came before this node could answer it, in
        #: arrival order; ``None`` while there are none.
        self._pending_requests: list[int] | None = None
        #: The answer to a retrieval request — identical (root, chunk) for
        #: every client, so one message object serves all of them.
        self._return_msg: ReturnChunkMsg | None = None

        # --- retrieval client state (Fig. 4) ---
        self._retrieving = False
        self._retrieval_done = False
        #: Who waits for the decoded payload; ``None`` while nobody does.
        self._retrieval_callbacks: list[Callable[[RetrievalResult], None]] | None = None
        self._return_chunk_seen = 0
        #: ``[client] == 1`` once that client told us it decoded the block and
        #: needs no more chunks.
        self._cancelled_retrievers = bytearray(params.n)
        #: The transport's ``abort(dst)`` predicate for every chunk this
        #: instance returns: one prebound C-level index, not one callable per
        #: queued chunk.  Callers test its result for truth only.
        self._retriever_cancelled = self._cancelled_retrievers.__getitem__

    # ------------------------------------------------------------------
    # Dispersing client role
    # ------------------------------------------------------------------

    def disperse(self, payload: Any) -> bytes:
        """Invoke ``Disperse(B)``: encode ``payload`` and send every server a chunk.

        Returns the Merkle root committing to the dispersed chunks.
        """
        if self.allowed_disperser is not None and self.ctx.node_id != self.allowed_disperser:
            raise DispersalError(
                f"node {self.ctx.node_id} is not allowed to disperse into {self.instance}"
            )
        bundle = self.codec.encode(payload)
        for server in range(self.params.n):
            self.ctx.send(
                server,
                ChunkMsg(instance=self.instance, root=bundle.root, chunk=bundle.chunks[server]),
            )
        return bundle.root

    # ------------------------------------------------------------------
    # Retrieving client role
    # ------------------------------------------------------------------

    @property
    def retrieval_complete(self) -> bool:
        """True once this node has decoded the dispersed payload."""
        return self._retrieval_done

    def retrieve(self, callback: Callable[[RetrievalResult], None]) -> None:
        """Invoke ``Retrieve``: request chunks and report the decoded payload.

        Chunks are requested from every server (Fig. 4 broadcasts
        ``RequestChunk``); the block decodes as soon as the first ``N - 2f``
        consistent chunks arrive, at which point a ``CancelChunk`` tells the
        remaining servers to stop sending (the paper's cancellation
        optimisation, S6.3), so slow servers never gate the download.
        """
        callbacks = self._retrieval_callbacks
        if callbacks is None:
            self._retrieval_callbacks = [callback]
        else:
            callbacks.append(callback)
        if self._retrieval_done:
            self._finish_retrieval_again()
            return
        if self._retrieving:
            return
        self._retrieving = True
        #: Verified chunks per root until the decode, which deletes the map:
        #: nothing reads it before ``_retrieving`` or after ``_retrieval_done``.
        self._received_chunks: dict[bytes, dict[int, Chunk]] = {}
        # One broadcast, not N unicasts: every server receives the identical
        # request, and the network's broadcast path delivers in the same
        # 0..N-1 order the per-server loop did (the express network collapses
        # it into a single fan-out event).
        self.ctx.broadcast(
            RequestChunkMsg(instance=self.instance), rank=self.retrieval_rank
        )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle(self, src: int, msg: Message) -> None:
        """Dispatch one incoming message for this instance."""
        # Ordered by per-node message frequency at scale: the quorum
        # broadcasts (GotChunk, Ready) and retrieval pairs arrive N times per
        # instance, the dispersal chunk once.  Exact-type checks: these are
        # concrete dataclasses, never subclassed.
        kind = type(msg)
        if kind is GotChunkMsg:
            self._on_got_chunk(src, msg)
        elif kind is ReadyMsg:
            self._on_ready(src, msg)
        elif kind is RequestChunkMsg:
            self._on_request_chunk(src)
        elif kind is ReturnChunkMsg:
            self._on_return_chunk(src, msg)
        elif kind is ChunkMsg:
            self._on_chunk(src, msg)
        elif kind is CancelChunkMsg:
            self._cancelled_retrievers[src] = 1

    # --- server side (Fig. 3) ---

    def _on_chunk(self, src: int, msg: ChunkMsg) -> None:
        if self.ctx.probe is not None:
            # The transfer completed even if the payload is rejected below.
            self.ctx.probe.on_chunk_arrived(
                src, self.ctx.node_id, self.instance.epoch,
                self.instance.proposer, self.ctx.now,
            )
        if self.allowed_disperser is not None and src != self.allowed_disperser:
            return
        if msg.chunk.index != self.ctx.node_id:
            return
        if not self.codec.verify_chunk(msg.root, msg.chunk):
            return
        if self.my_chunk is None:
            self.my_chunk = msg.chunk
            self.my_root = msg.root
            self._answer_pending_requests()
        if not self._sent_got_chunk:
            self._sent_got_chunk = True
            self.ctx.broadcast(GotChunkMsg(instance=self.instance, root=msg.root))

    def _on_got_chunk(self, src: int, msg: GotChunkMsg) -> None:
        bit = 1 << src
        if self._got_chunk_seen & bit:
            return
        self._got_chunk_seen |= bit
        if self.completed and msg.root == self.chunk_root:
            return
        counts = self._got_chunk_count
        if counts is None:
            counts = self._got_chunk_count = {}
        count = counts[msg.root] = counts.get(msg.root, 0) + 1
        # The count rises by exactly one per distinct sender, so the quorum
        # rule fires at the crossing and never needs re-checking (_send_ready
        # is idempotent anyway).
        if count == self.params.quorum:
            self._send_ready(msg.root)

    def _on_ready(self, src: int, msg: ReadyMsg) -> None:
        bit = 1 << src
        if self._ready_seen & bit:
            return
        self._ready_seen |= bit
        if self.completed and msg.root == self.chunk_root:
            return
        counts = self._ready_count
        if counts is None:
            counts = self._ready_count = {}
        count = counts[msg.root] = counts.get(msg.root, 0) + 1
        if count == self.params.ready_amplify_threshold:
            self._send_ready(msg.root)
        if count == self.params.ready_threshold and not self.completed:
            self.chunk_root = msg.root
            self.completed = True
            # Ready(root) went out at f + 1 and counts only rise: no rule for root can fire again.
            root = msg.root
            self._ready_count = _without(counts, root)
            self._got_chunk_count = _without(self._got_chunk_count, root)
            self._answer_pending_requests()
            if self.on_complete is not None:
                self.on_complete(self.instance)

    def _send_ready(self, root: bytes) -> None:
        if root in self._sent_ready_roots:
            return
        self._sent_ready_roots += (root,)
        self.ctx.broadcast(ReadyMsg(instance=self.instance, root=root))

    # --- server side (Fig. 4: answering retrievals) ---

    def _on_request_chunk(self, src: int) -> None:
        if not self._can_answer_request():
            pending = self._pending_requests
            if pending is None:
                self._pending_requests = [src]
            elif src not in pending:
                pending.append(src)
            return
        self._send_return_chunk(src)

    def _can_answer_request(self) -> bool:
        return (
            self.completed
            and self.my_chunk is not None
            and self.my_root is not None
            and self.my_root == self.chunk_root
        )

    def _answer_pending_requests(self) -> None:
        if self._pending_requests is None or not self._can_answer_request():
            return
        pending, self._pending_requests = self._pending_requests, None
        for src in pending:
            self._send_return_chunk(src)

    def _send_return_chunk(self, dst: int) -> None:
        assert self.my_chunk is not None and self.my_root is not None
        if self._cancelled_retrievers[dst]:
            return
        msg = self._return_msg
        if msg is None:
            # my_root/my_chunk are set exactly once, so the message can be
            # built once and shared across all clients (receivers never
            # mutate messages).
            msg = self._return_msg = ReturnChunkMsg(
                instance=self.instance, root=self.my_root, chunk=self.my_chunk
            )
        self.ctx.send(
            dst,
            msg,
            rank=self.retrieval_rank,
            # Drop the transfer (saving the bandwidth) if the client cancels
            # before this chunk reaches the head of the egress queue; the
            # transport asks ``abort(dst)``.
            abort=self._retriever_cancelled,
        )

    # --- client side (Fig. 4: collecting chunks) ---

    def _on_return_chunk(self, src: int, msg: ReturnChunkMsg) -> None:
        if self.ctx.probe is not None:
            self.ctx.probe.on_return_chunk_arrived(
                src, self.ctx.node_id, self.instance.epoch,
                self.instance.proposer, self.ctx.now,
            )
        if not self._retrieving or self._retrieval_done:
            return
        bit = 1 << src
        if self._return_chunk_seen & bit:
            return
        self._return_chunk_seen |= bit
        if msg.chunk.index != src:
            return
        if not self.codec.verify_chunk(msg.root, msg.chunk):
            return
        chunks = self._received_chunks.setdefault(msg.root, {})
        chunks[msg.chunk.index] = msg.chunk
        if len(chunks) >= self.params.data_shards:
            decoded = self.codec.decode(msg.root, chunks)
            ok = not (isinstance(decoded, str) and decoded == BAD_UPLOADER)
            self._retrieval_result = RetrievalResult(
                instance=self.instance, payload=decoded, ok=ok
            )
            self._retrieval_done = True
            # Nothing reads either once _retrieval_done is set.
            del self._received_chunks, self._return_chunk_seen
            # Tell every server we are done so the chunks still queued at
            # their egress are dropped instead of transmitted (S6.3).
            self.ctx.broadcast(
                CancelChunkMsg(instance=self.instance), include_self=False
            )
            self._finish_retrieval_again()

    def _finish_retrieval_again(self) -> None:
        callbacks, self._retrieval_callbacks = self._retrieval_callbacks, None
        for callback in callbacks:
            callback(self._retrieval_result)
