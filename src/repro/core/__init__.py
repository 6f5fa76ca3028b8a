"""DispersedLedger: the paper's primary contribution.

The package is organised like the paper's nested IO automata (S5):

* :mod:`repro.core.block` / :mod:`repro.core.mempool` — transactions, blocks
  (including the per-block ``V`` observation arrays) and the Nagle-style
  block proposal rate control of S5.
* :mod:`repro.core.txbatch` — the numpy columns transactions are held in
  behind ``submit_batch`` (every client) and ``submit_transaction`` (a
  hand-built record).
* :mod:`repro.core.linking` — the inter-node linking rule of S4.3.
* :mod:`repro.core.epoch` — per-epoch bookkeeping (``DLEpoch``): BA outputs,
  the committed set, retrieved blocks, and linked slots.
* :mod:`repro.core.node_base` — the epoch/retrieval/delivery machinery shared
  by DispersedLedger and the HoneyBadger baselines.
* :mod:`repro.core.node` — ``DispersedLedgerNode`` (and its DL-Coupled
  variant), where agreement is decoupled from block retrieval.
* :mod:`repro.core.ledger` / :mod:`repro.core.state_machine` — the totally
  ordered log and a replicated key-value state machine built on it.
"""

from repro.core.block import Block, Transaction
from repro.core.config import NodeConfig
from repro.core.epoch import EpochState
from repro.core.ledger import DeliveredBlock, Ledger
from repro.core.linking import compute_linking_targets, linked_slots
from repro.core.mempool import ColumnarMempool, Mempool
from repro.core.node import DispersedLedgerNode, DLCoupledNode
from repro.core.node_base import BFTNodeBase
from repro.core.state_machine import KeyValueStateMachine, decode_operation, encode_operation
from repro.core.txbatch import TxBatch

__all__ = [
    "BFTNodeBase",
    "Block",
    "ColumnarMempool",
    "DLCoupledNode",
    "DeliveredBlock",
    "DispersedLedgerNode",
    "EpochState",
    "KeyValueStateMachine",
    "Ledger",
    "Mempool",
    "NodeConfig",
    "Transaction",
    "TxBatch",
    "compute_linking_targets",
    "decode_operation",
    "encode_operation",
    "linked_slots",
]
