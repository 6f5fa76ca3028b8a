"""HoneyBadger and HoneyBadger-Link nodes.

HoneyBadger (Miller et al., CCS 2016) has the same epoch skeleton as
DispersedLedger — N broadcasts feeding N binary agreements — but uses the
VID construction as a *reliable broadcast*: retrieval is invoked immediately
after dispersal, a node only votes for a block after downloading it, and the
next epoch begins only after the current epoch's committed blocks have all
been downloaded and delivered.  That coupling is exactly what makes its
throughput track the ``(f+1)``-th slowest node (S1, Fig. 1a of the paper).

``HoneyBadgerNode`` runs without inter-node linking, so up to ``f`` correct
blocks are dropped per epoch and re-proposed later.  ``HoneyBadgerLinkNode``
enables the linking rule (the paper's HB-Link baseline), which removes the
dropped-block bandwidth waste but keeps the lockstep epoch structure.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.ids import VIDInstanceId
from repro.core.config import NodeConfig
from repro.core.epoch import EpochState
from repro.core.node_base import BFTNodeBase
from repro.vid.avid_m import RetrievalResult


def _with_linking(config: NodeConfig | None, linking: bool) -> NodeConfig:
    """Return ``config`` with its ``linking`` flag forced to ``linking``."""
    return replace(NodeConfig() if config is None else config, linking=linking)


class HoneyBadgerNode(BFTNodeBase):
    """One HoneyBadger node (no inter-node linking)."""

    #: Whether this baseline applies the inter-node linking rule.
    LINKING = False

    def __init__(self, *args, **kwargs):
        kwargs["config"] = _with_linking(kwargs.get("config"), self.LINKING)
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def _on_vid_complete(self, instance: VIDInstanceId) -> None:
        # Reliable-broadcast semantics: download the block first, vote after.
        epoch, slot = instance.epoch, instance.proposer
        state = self._epoch_state(epoch)
        if slot in state.retrieved:
            self._input_ba(epoch, slot, 1)
            return
        self._get_vid(instance).retrieve(self._block_fetched)

    def _block_fetched(self, result: RetrievalResult) -> None:
        epoch, slot = result.instance.epoch, result.instance.proposer
        state = self._epoch_state(epoch)
        block = self._block_from_payload(result.payload) if result.ok else None
        if slot not in state.retrieved:
            state.retrieved[slot] = block
        self._input_ba(epoch, slot, 1)
        self._try_deliver()

    def _on_epoch_agreement_done(self, epoch: int, state: EpochState) -> None:
        # The committed set may contain blocks this node has not downloaded
        # yet (it voted 0 on them but they were committed anyway); fetch them
        # before the epoch can be delivered.  The next epoch does NOT start
        # here — HoneyBadger is lockstep and waits for delivery.
        state.retrieval_started = True
        for slot in state.committed or ():
            if slot not in state.retrieved:
                self._retrieve_slot(epoch, slot)
        self._try_deliver()

    def _on_epoch_delivered(self, epoch: int, state: EpochState) -> None:
        # Lockstep: only now may the next epoch's broadcast begin.
        self._schedule_epoch_start(epoch + 1)


class HoneyBadgerLinkNode(HoneyBadgerNode):
    """HoneyBadger with DispersedLedger's inter-node linking (HB-Link, S6)."""

    LINKING = True
