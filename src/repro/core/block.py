"""Transactions and blocks.

A block (S4.2-4.3 of the paper) carries a batch of transactions plus the
proposing node's observation array ``V`` used by inter-node linking: entry
``V[j]`` is the largest epoch ``t`` such that all of node ``j``'s VID
instances up to epoch ``t`` have completed at the proposer.

Blocks support two data planes:

* **virtual** — the block object itself is dispersed through the
  :class:`repro.vid.codec.VirtualCodec`; only its declared ``size`` matters.
* **real** — the block is serialised to bytes (``serialize``/``deserialize``)
  and dispersed through the :class:`repro.vid.codec.RealCodec`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

from repro.core.txbatch import TX_HEADER, TxBatch

_BLOCK_HEADER = struct.Struct(">IQI I".replace(" ", ""))
_V_ENTRY = struct.Struct(">q")

#: Wire overhead per transaction (id, origin, size, timestamp).
TX_OVERHEAD = TX_HEADER.size
#: Wire overhead per block (proposer, epoch, tx count, v-array length).
BLOCK_OVERHEAD = _BLOCK_HEADER.size

_NO_TRANSACTIONS = TxBatch.empty()


class Transaction:
    """One client transaction, as clients and the state machine see it.

    ``size`` is the transaction's wire size in bytes; ``data`` carries real
    bytes only when the real data plane is in use (tests, examples).

    This is the record at the *client edge*: generators and ``submit_payload``
    build one per arrival and hand it to ``submit_transaction``; behind that
    seam a transaction is a row of :class:`~repro.core.txbatch.TxBatch`
    columns, and ``Block.transactions`` / ``Ledger.transactions()`` build
    equal records again on request.  Immutable by convention: a run creates
    millions, so construction is plain slot assignment (a frozen dataclass
    costs about three times as much per instance).  Compares, hashes and pickles by value.
    """

    __slots__ = ("tx_id", "origin", "created_at", "size", "data")

    def __init__(
        self, tx_id: int, origin: int, created_at: float, size: int, data: bytes = b""
    ):
        if data and len(data) != size:
            raise ValueError(
                f"transaction declares size {size} but carries {len(data)} bytes"
            )
        self.tx_id = tx_id
        self.origin = origin
        self.created_at = created_at
        self.size = size
        self.data = data

    def _astuple(self) -> tuple:
        return (self.tx_id, self.origin, self.created_at, self.size, self.data)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Transaction:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return (Transaction, self._astuple())

    def __repr__(self) -> str:
        return (
            f"Transaction(tx_id={self.tx_id!r}, origin={self.origin!r}, "
            f"created_at={self.created_at!r}, size={self.size!r}, data={self.data!r})"
        )


@dataclass(frozen=True, init=False)
class Block:
    """A proposed block: transactions plus the proposer's observation array.

    The transactions are held as one columnar :class:`TxBatch` (``tx_batch``,
    ``None`` for a block without transactions) — ``size``, ``digest`` and
    ``serialize`` are computed from the columns.  A hand-built block may be
    given ``transactions`` instead, which are columnarised on construction;
    :attr:`transactions` hands back equal :class:`Transaction` records
    either way.
    """

    proposer: int
    epoch: int
    v_array: tuple[int, ...]
    label: str
    tx_batch: TxBatch | None

    def __init__(
        self,
        proposer: int,
        epoch: int,
        transactions: Sequence[Transaction] = (),
        v_array: tuple[int, ...] = (),
        label: str = "",
        tx_batch: TxBatch | None = None,
    ):
        if transactions:
            if tx_batch is not None:
                raise ValueError("a block carries either transactions or tx_batch, not both")
            tx_batch = TxBatch.from_transactions(transactions)
        object.__setattr__(self, "proposer", proposer)
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "v_array", v_array)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "tx_batch", tx_batch or None)

    @property
    def _columns(self) -> TxBatch:
        return self.tx_batch or _NO_TRANSACTIONS

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The carried transactions as records (built from the columns on each read)."""
        return tuple(self._columns.as_transactions())

    @property
    def num_transactions(self) -> int:
        """Number of client transactions carried."""
        return len(self._columns)

    @property
    def payload_bytes(self) -> int:
        """Bytes of client transaction payload carried by this block."""
        return self._columns.total_bytes

    @property
    def size(self) -> int:
        """Total wire size of the block (what gets dispersed)."""
        return (
            BLOCK_OVERHEAD
            + len(self.v_array) * _V_ENTRY.size
            + TX_OVERHEAD * self.num_transactions
            + self.payload_bytes
        )

    @property
    def is_empty(self) -> bool:
        return self.tx_batch is None

    def digest(self) -> bytes:
        """A stable digest identifying the block (used by the virtual codec)."""
        material = struct.pack(">IQ", self.proposer, self.epoch)
        material += struct.pack(">I", self.num_transactions)
        material += self._columns.digest_material()
        material += b"".join(struct.pack(">q", entry) for entry in self.v_array)
        return hashlib.sha256(material).digest()

    # --- real data plane -------------------------------------------------

    def serialize(self) -> bytes:
        """Encode the block to bytes for dispersal through the real codec."""
        parts = [
            _BLOCK_HEADER.pack(
                self.proposer, self.epoch, self.num_transactions, len(self.v_array)
            )
        ]
        parts.extend(_V_ENTRY.pack(entry) for entry in self.v_array)
        parts.append(self._columns.serialize())
        return b"".join(parts)

    @classmethod
    def deserialize(cls, payload: bytes) -> "Block":
        """Decode a block from bytes.

        Raises:
            ValueError: if the payload is not a well-formed block (the caller
                treats this as an ill-formatted block per S4.3).
        """
        try:
            offset = 0
            proposer, epoch, num_txs, v_len = _BLOCK_HEADER.unpack_from(payload, offset)
            offset += _BLOCK_HEADER.size
            v_array = []
            for _ in range(v_len):
                (entry,) = _V_ENTRY.unpack_from(payload, offset)
                offset += _V_ENTRY.size
                v_array.append(entry)
            transactions = []
            for _ in range(num_txs):
                tx_id, origin, size, created_at = TX_HEADER.unpack_from(payload, offset)
                offset += TX_HEADER.size
                data = payload[offset : offset + size]
                if len(data) != size:
                    raise ValueError("truncated transaction payload")
                offset += size
                transactions.append(
                    Transaction(
                        tx_id=tx_id,
                        origin=origin,
                        created_at=created_at,
                        size=size,
                        data=bytes(data),
                    )
                )
            if offset != len(payload):
                raise ValueError("trailing bytes after block payload")
        except struct.error as exc:
            raise ValueError(f"malformed block payload: {exc}") from exc
        return cls(
            proposer=proposer,
            epoch=epoch,
            transactions=transactions,
            v_array=tuple(v_array),
        )
