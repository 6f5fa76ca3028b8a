"""Struct-of-arrays transaction batches: how transactions live inside a node.

Clients hand a node ready-made batches (and ``submit_payload`` or a test one
:class:`~repro.core.block.Transaction` record); everything behind
``submit_transaction`` / ``submit_batch`` — the mempool queue, the block payload, digest and size,
delivery accounting, the latency summary — works on :class:`TxBatch`
columns, because allocating, queueing and walking one Python object per
client payment dominates every profile long before the protocol does.  A
batch holds the ids, creation times and sizes of a run of transactions as
columns, so the mempool slices batches as index ranges, a block carries
a batch instead of a transaction tuple, and the metrics collector computes
latency percentiles straight from the columns.

Most batches come from one client population, so the origin is a scalar;
a batch cut across transactions of several origins carries a per-row
``origins`` column instead.  Transactions that carry real bytes ride in the
optional payload column: one bytes-like buffer plus each row's start in it —
for a parsed block, the retrieved payload view itself (see
:meth:`TxBatch.deserialize`), which pickles as ``bytes``.

Batches are **immutable once built** (the arrays are flagged read-only) and
compare by identity, so they can ride inside frozen dataclasses such as
:class:`~repro.core.block.Block` without breaking ``__eq__``.  Slicing is
O(1) — numpy views, no copies — which is what makes the mempool's
``take_batch`` cheap.

**A constant column costs O(1)**: the sizes of a :meth:`TxBatch.uniform`
batch (and a saturating refill's one stamp) are one read-only zero-stride
view, not n copies, and the mempool's byte-budget cut is asked of the batch,
which answers it by arithmetic.  Only this module knows a column can be one.

**So does an arithmetic id column**: a client numbering ``seq * N + node``
passes its ids as a ``range``, which slices to a ``range`` and stays one when
joined to the batch that continues it, so a block holds its ids in O(1) bytes
rather than keeping a refill's id array alive.  Other ids are a read-only
``uint64`` array; the wire, digest and records read both through
:func:`_id_array`.  No other module reads ``tx_ids``.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.common.snapshot import SnapshotState

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.block import Transaction

#: Wire header of one transaction: id, origin, size, created_at.
TX_HEADER = struct.Struct(">QIId")

#: Dtype matching the per-transaction digest material ``struct.pack(">QI")``
#: (tx id, size) of :meth:`repro.core.block.Block.digest`.
_DIGEST_DTYPE = np.dtype([("tx_id", ">u8"), ("size", ">u4")])

#: Dtype matching :data:`TX_HEADER`.
_HEADER_DTYPE = np.dtype([("tx_id", ">u8"), ("origin", ">u4"), ("size", ">u4"), ("created_at", ">f8")])

_NO_TIMES = np.empty(0, dtype=np.float64)
_NO_TIMES.flags.writeable = False

#: The per-row columns; ``payloads`` is the buffer ``payload_starts`` points into.
_COLUMNS = ("tx_ids", "created_at", "sizes", "origins", "payload_starts")


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only column; a right-typed 1-D array (a zero-stride
    constant among them) is kept as it is, not copied out to n values."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype == dtype):
        values = np.ascontiguousarray(values, dtype=dtype)
    values.flags.writeable = False
    return values


def _constant(value, length: int, dtype) -> np.ndarray:
    """A read-only column of ``length`` rows that all read one ``value``."""
    return np.broadcast_to(np.asarray(value, dtype=dtype), (length,))


def _is_constant(column: np.ndarray) -> bool:
    return len(column) > 0 and column.strides[0] == 0


def _id_array(tx_ids: range | np.ndarray) -> np.ndarray:
    """An id column as a ``uint64`` array (a ``range`` is materialised)."""
    if isinstance(tx_ids, range):
        return np.arange(tx_ids.start, tx_ids.stop, tx_ids.step, dtype=np.uint64)
    return tx_ids


def _joined_ids(columns: list[range | np.ndarray]) -> range | np.ndarray:
    """Non-empty id columns end to end: a ``range`` if each is one that
    continues the column before it with the same step, else an array."""
    first = columns[0]
    if all(isinstance(column, range) for column in columns) and all(
        column.step == first.step and before[-1] + first.step == column.start
        for before, column in zip(columns, columns[1:])
    ):
        return range(first.start, columns[-1].stop, first.step)
    return np.concatenate([_id_array(column) for column in columns])


def _joined(payloads: Sequence[bytes]) -> tuple[bytes | None, np.ndarray | None]:
    """Per-row ``data`` as one buffer plus each row's start in it (-1: no data).

    A :class:`Transaction` carries either no data or exactly its size, so
    no row can overwrite the next row's header on the wire."""
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    if not lengths.any():
        return None, None
    return b"".join(payloads), np.where(lengths > 0, np.cumsum(lengths) - lengths, -1)


class TxBatch(SnapshotState):
    """A read-only columnar run of transactions; a constant column costs O(1).

    Attributes:
        origin: the node that generated every transaction in the batch, or
            ``None`` when the batch mixes origins (then ``origins`` is set).
        tx_ids: globally unique transaction ids, as a ``range`` (a client's
            arithmetic numbering) or a ``uint64`` column.
        created_at: ``float64`` column of submission (arrival) times.
        sizes: ``int64`` column of wire sizes in bytes.
        origins: ``uint32`` per-transaction origin column of a mixed-origin
            batch; ``None`` when ``origin`` says it all.
        payloads: one bytes-like buffer holding the ``data`` of the rows that
            carry any, and ``payload_starts`` the ``int64`` column of each
            row's start in it (-1: none); both ``None`` when no row does.
    """

    __slots__ = ("origin", "tx_ids", "created_at", "sizes", "origins", "payloads", "payload_starts", "_total_bytes", "_cumsum")
    _SNAPSHOT_FIELDS = __slots__

    def __init__(
        self,
        origin: int | None,
        tx_ids: range | np.ndarray,
        created_at: np.ndarray,
        sizes: np.ndarray,
        total_bytes: int | None = None,
        origins: np.ndarray | None = None,
        payloads: bytes | memoryview | None = None,
        payload_starts: np.ndarray | None = None,
    ):
        if not (len(tx_ids) == len(created_at) == len(sizes)):
            raise ValueError(
                f"column lengths differ: {len(tx_ids)}/{len(created_at)}/{len(sizes)}"
            )
        if (origin is None) == (origins is None):
            raise ValueError("a batch has either one origin or an origins column")
        self.origin = origin
        self.tx_ids = tx_ids if isinstance(tx_ids, range) else _column(tx_ids, np.uint64)
        self.created_at = _column(created_at, np.float64)
        self.sizes = _column(sizes, np.int64)
        self.origins = None if origins is None else _column(origins, np.uint32)
        self.payloads = payloads
        self.payload_starts = None if payloads is None else _column(payload_starts, np.int64)
        self._total_bytes = (
            int(self.sizes.sum()) if total_bytes is None else int(total_bytes)
        )
        self._cumsum: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        origin: int,
        tx_ids: range | np.ndarray,
        created_at: np.ndarray | float,
        tx_size: int,
    ) -> "TxBatch":
        """A batch of one wire size, and of one stamp if ``created_at`` is a scalar."""
        count = len(tx_ids)
        if np.ndim(created_at) == 0:
            created_at = _constant(created_at, count, np.float64)
        sizes = _constant(tx_size, count, np.int64)
        return cls(origin, tx_ids, created_at, sizes, total_bytes=tx_size * count)

    @classmethod
    def _of_rows(cls, tx_ids, origins, created_at, sizes, payloads, payload_starts) -> "TxBatch":
        mixed = len(set(origins)) > 1
        return cls(
            origin=None if mixed else origins[0],
            tx_ids=np.array(tx_ids, dtype=np.uint64),
            created_at=np.array(created_at, dtype=np.float64),
            sizes=sizes,
            origins=np.array(origins, dtype=np.uint32) if mixed else None,
            payloads=payloads,
            payload_starts=payload_starts,
        )

    @classmethod
    def from_transactions(cls, txs: Sequence["Transaction"]) -> "TxBatch":
        """Columnarise transaction records, keeping their origins and ``data``.

        A single distinct origin becomes the scalar ``origin``; the rows'
        ``data`` are joined into one buffer (none if every row's is empty).
        """
        if not txs:
            return cls.empty()
        return cls._of_rows(
            [tx.tx_id for tx in txs],
            [tx.origin for tx in txs],
            [tx.created_at for tx in txs],
            np.array([tx.size for tx in txs], dtype=np.int64),
            *_joined([tx.data for tx in txs]),
        )

    @classmethod
    def empty(cls, origin: int = 0) -> "TxBatch":
        return cls(
            origin,
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            total_bytes=0,
        )

    @classmethod
    def concat(cls, batches: Iterable["TxBatch"]) -> "TxBatch":
        """Concatenate batches into one, in order (used by ``take_batch``)."""
        parts = [batch for batch in batches if len(batch)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        origin = parts[0].origin
        mixed = origin is None or any(batch.origin != origin for batch in parts)
        sizes = np.concatenate([batch.sizes for batch in parts])
        payloads = payload_starts = None
        if any(batch.payloads is not None for batch in parts):
            payloads, payload_starts = _joined(
                list(chain.from_iterable(batch._payload_rows() for batch in parts))
            )
        return cls(
            None if mixed else origin,
            _joined_ids([batch.tx_ids for batch in parts]),
            np.concatenate([batch.created_at for batch in parts]),
            sizes,
            total_bytes=sum(batch.total_bytes for batch in parts),
            origins=(
                np.concatenate([batch._origin_column() for batch in parts])
                if mixed
                else None
            ),
            payloads=payloads,
            payload_starts=payload_starts,
        )

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tx_ids)

    @property
    def count(self) -> int:
        """Number of transactions in the batch."""
        return len(self.tx_ids)

    @property
    def total_bytes(self) -> int:
        """Total wire bytes of every transaction in the batch."""
        return self._total_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TxBatch(origin={self.origin}, count={self.count}, bytes={self.total_bytes})"

    def size_cumsum(self) -> np.ndarray:
        """Cached inclusive prefix sums of ``sizes``."""
        if self._cumsum is None:
            self._cumsum = np.cumsum(self.sizes)
        return self._cumsum

    def rows_within(self, budget: int) -> int:
        """Leading rows that fit ``budget`` bytes (``searchsorted`` right on the prefix sums)."""
        if not _is_constant(self.sizes):
            return int(np.searchsorted(self.size_cumsum(), budget, side="right"))
        if budget < 0:
            return 0
        size = int(self.sizes[0])
        return len(self) if size == 0 else min(len(self), int(budget // size))

    def bytes_before(self, row: int) -> int:
        """Total bytes of the rows before ``row`` (``0 <= row <= len(self)``)."""
        if row <= 0:
            return 0
        if _is_constant(self.sizes):
            return int(self.sizes[0]) * row
        return int(self.size_cumsum()[row - 1])

    def _origin_column(self) -> np.ndarray:
        if self.origins is not None:
            return self.origins
        return np.full(len(self), self.origin, dtype=np.uint32)

    def created_at_from(self, origin: int) -> np.ndarray:
        """Creation times of the transactions that ``origin`` generated, in order."""
        if self.origins is not None:
            return self.created_at[self.origins == origin]
        return self.created_at if self.origin == origin else _NO_TIMES

    # -- slicing -----------------------------------------------------------

    def slice(self, start: int, stop: int) -> "TxBatch":
        """The ``[start, stop)`` index range as a zero-copy view batch, the
        bounds clamped as Python slicing clamps them."""
        start, stop, _step = slice(start, stop).indices(len(self))  # the builtin
        stop = max(start, stop)
        if start == 0 and stop == len(self):
            return self
        return TxBatch(
            self.origin,
            self.tx_ids[start:stop],
            self.created_at[start:stop],
            self.sizes[start:stop],
            total_bytes=self.bytes_before(stop) - self.bytes_before(start),
            origins=None if self.origins is None else self.origins[start:stop],
            payloads=self.payloads,
            payload_starts=None if self.payloads is None else self.payload_starts[start:stop],
        )

    # -- checkpoints -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """The declared fields, a constant column as its ``(value, length)``."""
        state = super().snapshot_state()
        for name in _COLUMNS:
            column = state[name]
            if isinstance(column, np.ndarray) and _is_constant(column):
                state[name] = (column[0], len(column))
        return state

    def restore_state(self, state: dict) -> None:
        """Every column read-only again, a constant column rebuilt from its ``(value, length)``."""
        super().restore_state(state)
        for name in _COLUMNS:
            column = getattr(self, name)
            if isinstance(column, tuple):
                value, length = column
                setattr(self, name, _constant(value, length, value.dtype))
            elif isinstance(column, np.ndarray):
                column.flags.writeable = False

    __getstate__ = snapshot_state
    __setstate__ = restore_state

    # -- the client edge and the wire --------------------------------------

    def _payload_rows(self) -> list[bytes]:
        """Each row's ``data`` cut out of the buffer as ``bytes`` (``b""`` for a row without)."""
        if self.payloads is None:
            return [b""] * len(self)
        buffer = self.payloads
        return [
            bytes(buffer[start : start + size]) if start >= 0 else b""
            for start, size in zip(self.payload_starts.tolist(), self.sizes.tolist())
        ]

    def as_transactions(self) -> list["Transaction"]:
        """Build the batch's rows as :class:`Transaction` records."""
        from repro.core.block import Transaction

        origins = repeat(self.origin) if self.origins is None else self.origins.tolist()
        return [
            Transaction(tx_id, origin, created, size, data)
            for tx_id, origin, created, size, data in zip(
                _id_array(self.tx_ids).tolist(),
                origins,
                self.created_at.tolist(),
                self.sizes.tolist(),
                self._payload_rows(),
            )
        ]

    def digest_material(self) -> bytes:
        """The ``">QI"`` (tx id, size) digest bytes of every transaction."""
        material = np.empty(len(self), dtype=_DIGEST_DTYPE)
        material["tx_id"] = _id_array(self.tx_ids)
        material["size"] = self.sizes
        return material.tobytes()

    def serialize(self) -> bytes:
        """Wire form: per transaction a :data:`TX_HEADER`, then ``size`` bytes.

        The bytes are the transaction's ``data``, or zeros when it carries
        none.  Headers are scattered into place in one vectorised pass; only
        transactions that carry data cost a Python step.
        """
        headers = np.empty(len(self), dtype=_HEADER_DTYPE)
        headers["tx_id"] = _id_array(self.tx_ids)
        headers["origin"] = self.origin if self.origins is None else self.origins
        headers["size"] = self.sizes
        headers["created_at"] = self.created_at
        width = TX_HEADER.size
        wire = np.zeros(len(self) * width + self._total_bytes, dtype=np.uint8)
        starts = np.arange(len(self)) * width + (self.size_cumsum() - self.sizes)
        wire[starts[:, None] + np.arange(width)] = headers.view(np.uint8).reshape(-1, width)
        if self.payloads is not None:
            buffer = np.frombuffer(self.payloads, dtype=np.uint8)
            rows = zip((starts + width).tolist(), self.payload_starts.tolist(), self.sizes.tolist())
            for start, source, size in rows:
                if source >= 0:
                    wire[start : start + size] = buffer[source : source + size]
        return wire.tobytes()

    @classmethod
    def deserialize(
        cls, wire: bytes | memoryview, offset: int, count: int
    ) -> tuple["TxBatch", int]:
        """The ``count`` transactions :meth:`serialize` wrote at ``wire[offset:]``,
        and the offset past them: one pass over the headers, and the payload
        buffer *is* ``wire``.  ``ValueError`` if they overrun it."""
        headers, starts = [], []
        for _ in range(count):
            header = TX_HEADER.unpack_from(wire, offset)
            offset += TX_HEADER.size
            headers.append(header)
            starts.append(offset)
            offset += header[2]
        if offset > len(wire):
            raise ValueError("truncated transaction payload")
        if not headers:
            return cls.empty(), offset
        tx_ids, origins, sizes, created_at = zip(*headers)
        return cls._of_rows(tx_ids, origins, created_at, sizes, wire, starts), offset


__all__ = ["TX_HEADER", "TxBatch"]
