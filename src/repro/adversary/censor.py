"""A node that tries to censor one victim's blocks.

In HoneyBadger-style protocols, an adversary that controls scheduling and
``f`` nodes can keep specific proposers' blocks out of every epoch's
committed set (S4.3).  A single Byzantine node cannot fully control which
blocks are dropped, but it can bias the outcome by always voting 0 on the
victim's slot and by reporting that it never observed the victim's
dispersals.  Inter-node linking is designed to make this harmless: the
victim's dispersed blocks are still delivered, at worst one epoch late.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ConfigurationError
from repro.common.ids import VIDInstanceId
from repro.core.block import Block
from repro.core.node import DispersedLedgerNode


class CensoringNode(DispersedLedgerNode):
    """A DispersedLedger node that always votes 0 on ``victim``'s slot."""

    _SNAPSHOT_FIELDS = DispersedLedgerNode._SNAPSHOT_FIELDS + ("victim",)

    def __init__(self, *args, victim: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0 <= victim < self.params.n:
            raise ConfigurationError(
                f"censor victim {victim} out of range for n={self.params.n}"
            )
        self.victim = victim

    def _on_vid_complete(self, instance: VIDInstanceId) -> None:
        if instance.proposer == self.victim:
            # Pretend the victim's dispersal never completed: vote against it.
            self._input_ba(instance.epoch, instance.proposer, 0)
            return
        super()._on_vid_complete(instance)

    def _make_block(self, epoch: int) -> Block:
        block = super()._make_block(epoch)
        if not block.v_array:
            return block
        # Report a zero observation for the victim so our V array never helps
        # inter-node linking deliver the victim's blocks.
        v_array = list(block.v_array)
        v_array[self.victim] = 0
        return dataclasses.replace(block, v_array=tuple(v_array))
