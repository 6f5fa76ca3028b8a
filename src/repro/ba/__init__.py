"""Asynchronous binary Byzantine agreement (BA).

DispersedLedger uses one BA instance per proposer slot per epoch to agree
on whether that slot's dispersal completed (S4.1-4.2).  The paper adopts the
signature-free protocol of Mostefaoui, Hamouma and Raynal (PODC 2014),
which terminates in O(1) expected rounds given a common coin; this package
implements that protocol together with a deterministic hash-based common
coin (a documented substitution for threshold-signature coins — see
docs/architecture.md, Substitutions) and a Bracha-style termination gadget
so nodes can halt.
"""

from repro.ba.coin import CommonCoin
from repro.ba.mmr import BinaryAgreement

__all__ = ["BinaryAgreement", "CommonCoin"]
