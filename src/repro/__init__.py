"""DispersedLedger reproduction.

A from-scratch Python implementation of *DispersedLedger: High-Throughput
Byzantine Consensus on Variable Bandwidth Networks* (Yang, Park, Alizadeh,
Kannan, Tse — NSDI 2022), together with every substrate the paper depends
on: the AVID-M verifiable information dispersal protocol, asynchronous
binary agreement, erasure coding, a bandwidth-accurate wide-area network
simulator, the HoneyBadger baselines, and the full benchmark harness that
regenerates the paper's evaluation figures.

Quick start — several protocols under identical network conditions and
workloads are one catalog entry swept over a ``protocol`` axis::

    from repro.experiments import ExecutionOptions, get_scenario, sweep

    entry = get_scenario("fig08-geo")
    result = sweep(entry.base, {"protocol": ("dl", "hb")},
                   options=ExecutionOptions(workers=1))
    print(result.table())

See ``examples/quickstart.py`` for a runnable end-to-end walk-through.
"""

from repro.common import (
    BAInstanceId,
    ConfigurationError,
    ProtocolError,
    ProtocolParams,
    ReproError,
    VIDInstanceId,
)
from repro.core import (
    Block,
    DLCoupledNode,
    DeliveredBlock,
    DispersedLedgerNode,
    KeyValueStateMachine,
    Ledger,
    Mempool,
    NodeConfig,
    Transaction,
)
from repro.honeybadger import HoneyBadgerLinkNode, HoneyBadgerNode

__version__ = "1.0.0"

__all__ = [
    "BAInstanceId",
    "Block",
    "ConfigurationError",
    "DLCoupledNode",
    "DeliveredBlock",
    "DispersedLedgerNode",
    "HoneyBadgerLinkNode",
    "HoneyBadgerNode",
    "KeyValueStateMachine",
    "Ledger",
    "Mempool",
    "NodeConfig",
    "ProtocolError",
    "ProtocolParams",
    "ReproError",
    "Transaction",
    "VIDInstanceId",
    "__version__",
]
