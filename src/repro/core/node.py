"""DispersedLedger nodes (S4 of the paper).

A :class:`DispersedLedgerNode` decouples agreement from block downloads:

* it votes for a block (``Input(1)`` to the slot's binary agreement) as soon
  as it observes that the block's dispersal has *completed* — it never waits
  to download the block first;
* it starts the next epoch's dispersal immediately once the current epoch's
  agreement finishes (all N binary agreements have output);
* it retrieves committed blocks lazily and asynchronously, several epochs in
  parallel, with retrieval traffic marked low priority so it never slows the
  dispersal pipeline (S4.5).

:class:`DLCoupledNode` is the spam-resistant variant of S4.5: it behaves
identically except that it proposes an *empty* block whenever the epoch it
proposes runs more than ``P`` epochs ahead of its delivery frontier, so it
only proposes transactions it was able to validate.
"""

from __future__ import annotations

from repro.common.ids import VIDInstanceId
from repro.core.epoch import EpochState
from repro.core.node_base import BFTNodeBase


class DispersedLedgerNode(BFTNodeBase):
    """One DispersedLedger node (the paper's ``DL`` automaton)."""

    #: How many epochs a node retrieves concurrently (S4.5 allows retrieving
    #: several epochs in parallel while always delivering in serial order).
    RETRIEVAL_WINDOW = 4

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def _on_vid_complete(self, instance: VIDInstanceId) -> None:
        # Fig. 6, phase 1: upon Complete of VID_j, Input(1) to BA_j (unless
        # we already provided an input to that instance).
        self._input_ba(instance.epoch, instance.proposer, 1)

    def _on_epoch_agreement_done(self, epoch: int, state: EpochState) -> None:
        # The dispersal phase of this epoch is over: the next epoch can start
        # right away, independent of how far block retrieval has progressed.
        if epoch >= self.current_epoch:
            self._schedule_epoch_start(epoch + 1)
        self._pump_retrievals()
        self._try_deliver()

    def _on_epoch_delivered(self, epoch: int, state: EpochState) -> None:
        # A retrieval window slot freed up; pull the next epoch into it.
        self._pump_retrievals()

    # ------------------------------------------------------------------
    # Lazy retrieval (S4.5: multiple epochs in parallel)
    # ------------------------------------------------------------------

    def _pump_retrievals(self) -> None:
        """Start committed-block retrieval for epochs inside the parallel window."""
        if not self.config.retrieve_blocks:
            # Low-bandwidth mode (S1): agree on the log of commitments only;
            # never spend download bandwidth on full blocks.
            return
        active = 0
        epoch = self.delivered_epoch + 1
        while active < self.RETRIEVAL_WINDOW:
            state = self._epochs.get(epoch)
            if state is None or not state.agreement_done:
                return
            if state.fully_delivered:
                epoch += 1
                continue
            if not state.retrieval_started:
                self._start_committed_retrieval(epoch)
            active += 1
            epoch += 1


class DLCoupledNode(DispersedLedgerNode):
    """The DL-Coupled variant (S4.5): empty blocks while lagging on retrieval.

    A node keeps proposing transactions while the epoch it proposes is at
    most :attr:`COUPLED_LAG` (the paper's ``P``) epochs ahead of its delivery
    frontier, and falls back to empty blocks beyond it.  ``P = 1`` would
    make the node as conservative as HoneyBadger.
    """

    #: Retrieval-lag tolerance ``P`` (epochs) before proposing empty blocks.
    COUPLED_LAG = 4

    def _may_include_transactions(self, epoch: int) -> bool:
        return (
            super()._may_include_transactions(epoch)
            and epoch - self.delivered_epoch <= self.COUPLED_LAG
        )
