"""Typed identifiers for protocol instances.

DispersedLedger runs ``N`` VID instances and ``N`` BA instances per epoch
(S4.2 of the paper).  Messages for every instance are tagged with the
instance id so that concurrently running instances never interfere.

The ids key the per-node automaton dict, which is probed once per message
delivery -- N^3 times per epoch -- with a key object that came from another
node.  They are therefore plain tuples of ints: hashing, equality and
ordering are ``tuple``'s C slots, and the hash does not depend on
``PYTHONHASHSEED``.  The trailing ``kind`` tag is what keeps a VID id from
ever equalling the BA id with the same two numbers; callers never pass it.
"""

from __future__ import annotations

from typing import NamedTuple


class VIDInstanceId(NamedTuple):
    """Identifies one VID instance: the proposer's slot for one epoch."""

    epoch: int
    proposer: int
    kind: int = 0

    def __str__(self) -> str:
        return f"VID(e={self.epoch}, p={self.proposer})"


class BAInstanceId(NamedTuple):
    """Identifies one binary-agreement instance for one epoch and slot."""

    epoch: int
    slot: int
    kind: int = 1

    def __str__(self) -> str:
        return f"BA(e={self.epoch}, s={self.slot})"
