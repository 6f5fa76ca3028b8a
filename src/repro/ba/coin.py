"""Common coin for binary agreement.

The MMR binary agreement protocol needs a *common coin*: in every round all
correct nodes observe the same unpredictable bit.  Production systems build
it from threshold signatures; for this reproduction the adversary in our
experiments does not attack coin unpredictability, so a deterministic hash
of the instance id, the round number and a per-deployment seed gives every
node the same bit with the same statistical behaviour (documented
substitution, see docs/architecture.md, Substitutions).
"""

from __future__ import annotations

import hashlib

from repro.common.ids import BAInstanceId
from repro.common.snapshot import SnapshotState


class CommonCoin(SnapshotState):
    """A deterministic, instance- and round-keyed common coin.

    The first two rounds use fixed values (1, then 0) instead of random ones
    — a standard optimisation in HoneyBadger-family implementations: the
    overwhelmingly common case is a unanimous ``1`` input ("this dispersal
    completed"), which then decides in the very first round, and the
    unanimous ``0`` case decides by round two.  Later rounds fall back to the
    pseudo-random coin, which is what guarantees termination for mixed
    inputs.
    """

    #: Fixed coin values for the first rounds (1 first, then 0).
    _BIASED_ROUNDS = (1, 0)

    _SNAPSHOT_FIELDS = ("_seed",)

    def __init__(self, seed: bytes = b"dispersedledger-coin"):
        self._seed = seed

    def flip(self, instance: BAInstanceId, round_number: int) -> int:
        """Return the shared coin value (0 or 1) for ``round_number``."""
        if round_number < len(self._BIASED_ROUNDS):
            return self._BIASED_ROUNDS[round_number]
        material = (
            self._seed
            + instance.epoch.to_bytes(8, "big", signed=False)
            + instance.slot.to_bytes(4, "big", signed=False)
            + round_number.to_bytes(4, "big", signed=False)
        )
        digest = hashlib.sha256(material).digest()
        return digest[0] & 1
