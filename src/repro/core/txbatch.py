"""Struct-of-arrays transaction batches: how transactions live inside a node.

Clients hand a node one :class:`~repro.core.block.Transaction` record per
arrival (or a ready-made batch); everything behind ``submit_transaction`` /
``submit_batch`` — the mempool queue, the block payload, digest and size,
delivery accounting, the latency summary — works on :class:`TxBatch`
columns, because allocating, queueing and walking one Python object per
client payment dominates every profile long before the protocol does.  A
batch holds the ids, creation times and sizes of a run of transactions as
numpy arrays, so the mempool slices batches as index ranges, a block carries
a batch instead of a transaction tuple, and the metrics collector computes
latency percentiles straight from the columns.

Most batches come from one client population, so the origin is a scalar;
a batch cut across transactions of several origins carries a per-row
``origins`` column instead.  Transactions that carry real bytes (the real
data plane's ``submit_payload``) ride in the optional ``payloads`` column.

Batches are **immutable once built** (the arrays are flagged read-only) and
compare by identity, so they can ride inside frozen dataclasses such as
:class:`~repro.core.block.Block` without breaking ``__eq__``.  Slicing is
O(1) — numpy views, no copies — which is what makes the mempool's
``take_batch`` cheap.
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


class TxBatch(SnapshotState):
    """A read-only columnar run of transactions.

    Attributes:
        origin: the node that generated every transaction in the batch, or
            ``None`` when the batch mixes origins (then ``origins`` is set).
        tx_ids: ``uint64`` column of globally unique transaction ids.
        created_at: ``float64`` column of submission (arrival) times.
        sizes: ``int64`` column of wire sizes in bytes.
        origins: ``uint32`` per-transaction origin column of a mixed-origin
            batch; ``None`` when ``origin`` says it all.
        payloads: per-transaction ``data`` bytes (``b""`` for none), or
            ``None`` when no transaction of the batch carries any.
    """

    __slots__ = ("origin", "tx_ids", "created_at", "sizes", "origins", "payloads", "_total_bytes", "_cumsum")
    _SNAPSHOT_FIELDS = __slots__

    def __init__(
        self,
        origin: int | None,
        tx_ids: np.ndarray,
        created_at: np.ndarray,
        sizes: np.ndarray,
        total_bytes: int | None = None,
        origins: np.ndarray | None = None,
        payloads: tuple[bytes, ...] | None = None,
    ):
        if not (len(tx_ids) == len(created_at) == len(sizes)):
            raise ValueError(
                f"column lengths differ: {len(tx_ids)}/{len(created_at)}/{len(sizes)}"
            )
        if (origin is None) == (origins is None):
            raise ValueError("a batch has either one origin or an origins column")
        self.origin = origin
        self.tx_ids = np.ascontiguousarray(tx_ids, dtype=np.uint64)
        self.created_at = np.ascontiguousarray(created_at, dtype=np.float64)
        self.sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        self.origins = (
            None if origins is None else np.ascontiguousarray(origins, dtype=np.uint32)
        )
        self.payloads = payloads
        for column in (self.tx_ids, self.created_at, self.sizes, self.origins):
            if column is not None:
                column.flags.writeable = False
        self._total_bytes = (
            int(self.sizes.sum()) if total_bytes is None else int(total_bytes)
        )
        self._cumsum: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        origin: int,
        tx_ids: np.ndarray,
        created_at: np.ndarray,
        tx_size: int,
    ) -> "TxBatch":
        """A batch whose transactions all have the same wire size."""
        sizes = np.full(len(tx_ids), tx_size, dtype=np.int64)
        return cls(origin, tx_ids, created_at, sizes, total_bytes=tx_size * len(tx_ids))

    @classmethod
    def from_columns(
        cls,
        tx_ids: Sequence[int],
        origins: Sequence[int],
        created_at: Sequence[float],
        sizes: Sequence[int],
        payloads: Sequence[bytes],
    ) -> "TxBatch":
        """A batch from five row-parallel sequences, one entry per transaction.

        A single distinct origin becomes the scalar ``origin`` and an
        all-empty ``payloads`` becomes ``None``.
        """
        if not len(tx_ids):
            return cls.empty()
        mixed = len(set(origins)) > 1
        return cls(
            origin=None if mixed else origins[0],
            tx_ids=np.array(tx_ids, dtype=np.uint64),
            created_at=np.array(created_at, dtype=np.float64),
            sizes=np.array(sizes, dtype=np.int64),
            origins=np.array(origins, dtype=np.uint32) if mixed else None,
            payloads=tuple(payloads) if any(payloads) else None,
        )

    @classmethod
    def from_transactions(cls, txs: Sequence["Transaction"]) -> "TxBatch":
        """Columnarise transaction records, keeping their origins and ``data``."""
        return cls.from_columns(
            [tx.tx_id for tx in txs],
            [tx.origin for tx in txs],
            [tx.created_at for tx in txs],
            [tx.size for tx in txs],
            [tx.data for tx in txs],
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
        payloads = None
        if any(batch.payloads is not None for batch in parts):
            payloads = tuple(
                chain.from_iterable(
                    batch.payloads or repeat(b"", len(batch)) for batch in parts
                )
            )
        return cls(
            None if mixed else origin,
            np.concatenate([batch.tx_ids for batch in parts]),
            np.concatenate([batch.created_at for batch in parts]),
            np.concatenate([batch.sizes for batch in parts]),
            total_bytes=sum(batch.total_bytes for batch in parts),
            origins=(
                np.concatenate([batch._origin_column() for batch in parts])
                if mixed
                else None
            ),
            payloads=payloads,
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
        """Cached inclusive prefix sums of ``sizes`` (drives byte-budget cuts)."""
        if self._cumsum is None:
            self._cumsum = np.cumsum(self.sizes)
        return self._cumsum

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
        """The ``[start, stop)`` index range as a zero-copy view batch."""
        if start == 0 and stop >= len(self):
            return self
        cumsum = self.size_cumsum()
        total = int(cumsum[stop - 1] if stop > 0 else 0) - int(
            cumsum[start - 1] if start > 0 else 0
        )
        return TxBatch(
            self.origin,
            self.tx_ids[start:stop],
            self.created_at[start:stop],
            self.sizes[start:stop],
            total_bytes=total,
            origins=None if self.origins is None else self.origins[start:stop],
            payloads=None if self.payloads is None else self.payloads[start:stop],
        )

    # -- the client edge and the wire --------------------------------------

    def as_transactions(self) -> list["Transaction"]:
        """Build the batch's rows as :class:`Transaction` records."""
        from repro.core.block import Transaction

        origins = repeat(self.origin) if self.origins is None else self.origins.tolist()
        payloads = repeat(b"") if self.payloads is None else self.payloads
        return [
            Transaction(tx_id, origin, created, size, data)
            for tx_id, origin, created, size, data in zip(
                self.tx_ids.tolist(),
                origins,
                self.created_at.tolist(),
                self.sizes.tolist(),
                payloads,
            )
        ]

    def digest_material(self) -> bytes:
        """The ``">QI"`` (tx id, size) digest bytes of every transaction."""
        material = np.empty(len(self), dtype=_DIGEST_DTYPE)
        material["tx_id"] = self.tx_ids
        material["size"] = self.sizes
        return material.tobytes()

    def serialize(self) -> bytes:
        """Wire form: per transaction a :data:`TX_HEADER`, then ``size`` bytes.

        The bytes are the transaction's ``data``, or zeros when it carries
        none.  Headers are scattered into place in one vectorised pass; only
        transactions that carry data cost a Python step.
        """
        headers = np.empty(len(self), dtype=_HEADER_DTYPE)
        headers["tx_id"] = self.tx_ids
        headers["origin"] = self.origin if self.origins is None else self.origins
        headers["size"] = self.sizes
        headers["created_at"] = self.created_at
        width = TX_HEADER.size
        wire = np.zeros(len(self) * width + self._total_bytes, dtype=np.uint8)
        starts = np.arange(len(self)) * width + (self.size_cumsum() - self.sizes)
        wire[starts[:, None] + np.arange(width)] = headers.view(np.uint8).reshape(-1, width)
        if self.payloads is not None:
            for start, data in zip((starts + width).tolist(), self.payloads):
                if data:
                    wire[start : start + len(data)] = np.frombuffer(data, dtype=np.uint8)
        return wire.tobytes()


__all__ = ["TX_HEADER", "TxBatch"]
