"""Machinery shared by DispersedLedger and the HoneyBadger baselines.

Both protocol families are built from the same pieces (Fig. 5 / S5 of the
paper): per-epoch bundles of N AVID-M instances and N binary-agreement
instances, a mempool with Nagle-style proposal rate control, the ``V``
observation arrays that feed inter-node linking, and an in-order delivery
pipeline that appends blocks to a totally ordered ledger.

What differs between the protocols is *when* blocks are downloaded relative
to voting, and when the next epoch may begin:

* **DispersedLedger** (:class:`repro.core.node.DispersedLedgerNode`) votes as
  soon as a dispersal completes, starts the next epoch as soon as agreement
  finishes, and retrieves committed blocks lazily and asynchronously.
* **HoneyBadger** (:class:`repro.honeybadger.node.HoneyBadgerNode`) downloads
  a block before voting for it and only starts the next epoch after the
  current epoch's blocks are all downloaded and delivered (lockstep).

Subclasses override the three hooks ``_on_vid_complete``,
``_on_epoch_agreement_done`` and ``_on_epoch_delivered`` to express those
differences; everything else lives here.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.ba.coin import CommonCoin
from repro.ba.mmr import BinaryAgreement
from repro.ba.messages import BA_MESSAGE_TYPES
from repro.common.ids import BAInstanceId, VIDInstanceId
from repro.common.params import ProtocolParams
from repro.common.snapshot import SnapshotState
from repro.core.block import Block, Transaction
from repro.core.config import REAL_PLANE, NodeConfig
from repro.core.epoch import EpochState
from repro.core.ledger import DeliveredBlock, Ledger
from repro.core.linking import (
    INFINITE_OBSERVATION,
    compute_linking_targets,
    linked_slots,
)
from repro.core.mempool import Mempool
from repro.core.txbatch import TxBatch
from repro.sim.context import NodeContext
from repro.sim.messages import Message
from repro.vid.avid_m import AvidMInstance, RetrievalResult
from repro.vid.codec import RealCodec, VirtualCodec, parse_shared
from repro.vid.messages import VID_MESSAGE_TYPES, ReturnChunkMsg

#: First epoch number.  The paper indexes epochs from 1 (Fig. 17 initialises
#: the observation arrays with 0 meaning "no epoch completed yet").
FIRST_EPOCH = 1

#: Exact-type routing table for :meth:`BFTNodeBase.on_message`.
_ROUTE_VID = 0
_ROUTE_BA = 1
_MESSAGE_ROUTES: dict[type, int] = {
    **{cls: _ROUTE_VID for cls in VID_MESSAGE_TYPES},
    **{cls: _ROUTE_BA for cls in BA_MESSAGE_TYPES},
}


def _parse_block(payload: bytes) -> Block | None:
    """Deserialise a retrieved payload (None if ill-formatted, S4.3)."""
    try:
        return Block.deserialize(payload)
    except ValueError:
        return None


class BFTNodeBase(SnapshotState):
    """Shared implementation of one BFT node (DispersedLedger or HoneyBadger).

    Args:
        node_id: this node's index in ``0..N-1``.
        params: the ``(N, f)`` protocol parameters.
        ctx: the node's network/timer handle.
        config: behavioural knobs (data plane, Nagle thresholds, linking...).
        coin: common coin shared by every binary-agreement instance.
        max_epochs: stop proposing new blocks after this many epochs (used by
            tests and bounded experiments); ``None`` means run forever.
        on_deliver: optional callback invoked as ``on_deliver(node_id, entry)``
            for every block appended to the ledger.
        on_propose: optional callback invoked as ``on_propose(node_id, block,
            now)`` whenever this node disperses a new block.
    """

    #: ``_automata`` maps instance ids to bound ``handle`` methods of the
    #: VID/BA automata; those pickle as (instance, name) references so the
    #: restored dispatch table points at the restored automata.  Node-class
    #: adversary subclasses that add state extend this tuple.
    _SNAPSHOT_FIELDS = (
        "node_id",
        "params",
        "ctx",
        "config",
        "coin",
        "max_epochs",
        "on_deliver",
        "on_propose",
        "codec",
        "mempool",
        "ledger",
        "current_epoch",
        "delivered_epoch",
        "_next_tx_id",
        "_epochs",
        "_vid_instances",
        "_ba_instances",
        "_automata",
        "_completed_vids",
        "_v_prefix",
        "_epoch_start_pending",
        "_epoch_timer",
        "started",
    )

    def __init__(
        self,
        node_id: int,
        params: ProtocolParams,
        ctx: NodeContext,
        config: NodeConfig | None = None,
        coin: CommonCoin | None = None,
        max_epochs: int | None = None,
        on_deliver: Callable[[int, DeliveredBlock], None] | None = None,
        on_propose: Callable[[int, Block, float], None] | None = None,
    ):
        self.node_id = node_id
        self.params = params
        self.ctx = ctx
        self.config = config or NodeConfig()
        self.coin = coin or CommonCoin()
        self.max_epochs = max_epochs
        self.on_deliver = on_deliver
        self.on_propose = on_propose

        if self.config.data_plane == REAL_PLANE:
            self.codec: Any = RealCodec(params)
        else:
            self.codec = VirtualCodec(params)

        self.mempool = Mempool(
            nagle_delay=self.config.nagle_delay, nagle_size=self.config.nagle_size
        )
        self.ledger = Ledger()

        #: Dispersal frontier: the highest epoch whose dispersal this node has
        #: started (0 before the first epoch).
        self.current_epoch = 0
        #: Delivery frontier: the highest epoch that is fully delivered.
        self.delivered_epoch = 0
        #: Transaction id counter for locally submitted transactions.
        self._next_tx_id = 0

        self._epochs: dict[int, EpochState] = {}
        self._vid_instances: dict[VIDInstanceId, AvidMInstance] = {}
        self._ba_instances: dict[BAInstanceId, BinaryAgreement] = {}
        #: Union of the two dicts above, keyed by instance id (the id types
        #: never compare equal across protocols), mapping to the automaton's
        #: *bound* ``handle`` method.  ``on_message`` resolves and dispatches
        #: with one dict probe and one call on this map.
        self._automata: dict[Any, Callable[[int, Message], None]] = {}

        # Observation state for inter-node linking (S4.3): which VID instances
        # of each proposer have completed, and the contiguous prefix thereof.
        self._completed_vids: list[set[int]] = [set() for _ in range(params.n)]
        self._v_prefix: list[int] = [0] * params.n

        self._epoch_start_pending = False
        #: The armed Nagle timer, as ``(epoch, cancellable handle or None)``.
        self._epoch_timer: tuple[int, Any] | None = None
        self.started = False

    # ------------------------------------------------------------------
    # Process interface
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the first epoch."""
        if self.started:
            return
        self.started = True
        self._schedule_epoch_start(FIRST_EPOCH)

    def on_message(self, src: int, msg: Message) -> None:
        """Route one incoming protocol message to the owning instance."""
        # Exact-type dispatch first: two tuple-isinstance checks per message
        # dominate the routing cost at large N, and protocol messages are
        # concrete dataclasses.  Subclassed messages fall through to the
        # isinstance path below.
        # Fast path: the target automaton already exists — one dict probe on
        # the combined map, hashed and compared in C (the ids are int tuples
        # whose kind tag differs across protocols, so a VID id can never
        # resolve to a BA automaton or vice versa).
        # EAFP: every protocol message carries ``instance`` and misses only
        # happen on the first message of an instance, so the exception path
        # is orders of magnitude rarer than the hit path it speeds up.
        try:
            handle = self._automata[msg.instance]
        except (AttributeError, KeyError):
            pass
        else:
            handle(src, msg)
            return
        kind = _MESSAGE_ROUTES.get(type(msg))
        if kind == _ROUTE_VID:
            self._get_vid(msg.instance).handle(src, msg)
        elif kind == _ROUTE_BA:
            self._get_ba(msg.instance).handle(src, msg)
        elif isinstance(msg, VID_MESSAGE_TYPES):
            self._get_vid(msg.instance).handle(src, msg)
        elif isinstance(msg, BA_MESSAGE_TYPES):
            self._get_ba(msg.instance).handle(src, msg)

    #: Scope advertised to the network: :meth:`declines_transfer` can only
    #: ever return True for these message types, so the delivery hot paths
    #: skip the Python call for everything else.  A subclass overriding
    #: ``declines_transfer`` must restate its own scope (the network ignores
    #: an inherited ``DECLINE_TYPES`` in that case and always consults the
    #: hook).
    DECLINE_TYPES = (ReturnChunkMsg,)

    def declines_transfer(self, msg: Message) -> bool:
        """Receiver-side cancellation hook for the bandwidth-accurate network.

        Retrieval chunks for a block this node has already decoded are
        declined so they are not charged against its download bandwidth —
        the receiver-driven half of the "stop sending more chunks once the
        block is decodable" optimisation (S6.3).
        """
        if isinstance(msg, ReturnChunkMsg):
            vid = self._vid_instances.get(msg.instance)
            return vid is not None and vid.retrieval_complete
        return False

    # ------------------------------------------------------------------
    # Client-facing API
    # ------------------------------------------------------------------

    # ``submit_transaction`` and ``submit_batch`` are the whole seam between
    # clients and the node: a client hands over one record per arrival or a
    # ready-made batch, and behind either call transactions are columns.

    def submit_transaction(self, tx: Transaction) -> None:
        """Accept a client transaction into this node's input queue."""
        self.mempool.submit(tx)

    def submit_batch(self, batch: TxBatch) -> None:
        """Accept a columnar batch of client transactions (queued as it is)."""
        self.mempool.submit_batch(batch)

    def submit_payload(self, data: bytes, now: float | None = None) -> Transaction:
        """Convenience wrapper: wrap raw bytes into a transaction and submit it."""
        timestamp = self.ctx.now if now is None else now
        tx = Transaction(
            tx_id=self._make_tx_id(),
            origin=self.node_id,
            created_at=timestamp,
            size=len(data),
            data=data,
        )
        self.submit_transaction(tx)
        return tx

    def _make_tx_id(self) -> int:
        # Globally unique without coordination: interleave node id in the low bits.
        tx_id = self._next_tx_id * self.params.n + self.node_id
        self._next_tx_id += 1
        return tx_id

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------

    def _get_vid(self, instance: VIDInstanceId) -> AvidMInstance:
        vid = self._vid_instances.get(instance)
        if vid is None:
            vid = AvidMInstance(
                params=self.params,
                instance=instance,
                ctx=self.ctx,
                codec=self.codec,
                on_complete=self._handle_vid_complete,
                allowed_disperser=instance.proposer,
                retrieval_rank=float(instance.epoch),
            )
            self._vid_instances[instance] = vid
            self._automata[instance] = vid.handle
        return vid

    def _get_ba(self, instance: BAInstanceId) -> BinaryAgreement:
        ba = self._ba_instances.get(instance)
        if ba is None:
            ba = BinaryAgreement(
                params=self.params,
                instance=instance,
                ctx=self.ctx,
                coin=self.coin,
                on_output=self._handle_ba_output,
            )
            self._ba_instances[instance] = ba
            self._automata[instance] = ba.handle
        return ba

    def _epoch_state(self, epoch: int) -> EpochState:
        state = self._epochs.get(epoch)
        if state is None:
            state = EpochState(epoch=epoch)
            self._epochs[epoch] = state
        return state

    def epoch_state(self, epoch: int) -> EpochState | None:
        """Read-only access to an epoch's bookkeeping (used by tests/metrics)."""
        return self._epochs.get(epoch)

    # ------------------------------------------------------------------
    # Block proposal (Nagle rate control, S5)
    # ------------------------------------------------------------------

    def _schedule_epoch_start(self, epoch: int) -> None:
        """Start dispersal for ``epoch`` as soon as the Nagle rule allows it."""
        if self.max_epochs is not None and epoch > self.max_epochs:
            return
        state = self._epoch_state(epoch)
        if state.dispersal_started:
            return
        now = self.ctx.now
        if self.mempool.ready_to_propose(now):
            self._begin_dispersal(epoch)
            return
        if self._epoch_start_pending:
            return
        self._epoch_start_pending = True
        delay = self.mempool.time_until_ready(now)
        fire = partial(self._epoch_timer_fired, epoch)
        self._epoch_timer = (epoch, self.ctx.set_timer(delay, fire))

    def _epoch_timer_fired(self, epoch: int) -> None:
        """The armed Nagle timer elapsed: re-check whether ``epoch`` may start."""
        self._epoch_timer = None
        self._epoch_start_pending = False
        self._schedule_epoch_start(epoch)

    def _begin_dispersal(self, epoch: int) -> None:
        """Form this epoch's block and disperse it through our VID slot."""
        state = self._epoch_state(epoch)
        if state.dispersal_started:
            return
        state.dispersal_started = True
        timer = self._epoch_timer
        if timer is not None and timer[0] == epoch:
            # A Nagle timer armed for this epoch can only re-check state that
            # is now settled; cancel it so the dead entry leaves the queue.
            if timer[1] is not None:
                timer[1].cancel()
            self._epoch_timer = None
            self._epoch_start_pending = False
        self.current_epoch = max(self.current_epoch, epoch)
        block = self._make_block(epoch)
        state.own_block = block
        state.proposed_at = self.ctx.now
        if self.ctx.probe is not None:
            self.ctx.probe.on_dispersal_start(self.node_id, epoch, self.ctx.now)
        self._disperse_block(epoch, block)
        if self.on_propose is not None:
            self.on_propose(self.node_id, block, self.ctx.now)

    def _disperse_block(self, epoch: int, block: Block) -> None:
        """Hand this epoch's block to our VID slot.

        Byzantine node classes override just this step (e.g. the equivocating
        disperser sends inconsistent chunks instead) while inheriting the
        Nagle bookkeeping of :meth:`_begin_dispersal` unchanged.
        """
        vid = self._get_vid(VIDInstanceId(epoch=epoch, proposer=self.node_id))
        vid.disperse(self._payload_for(block))

    def _make_block(self, epoch: int) -> Block:
        """Assemble the block to propose for ``epoch``."""
        now = self.ctx.now
        v_array = tuple(self._v_prefix) if self.config.linking else ()
        if not self._may_include_transactions(epoch):
            # DL-Coupled (S4.5): participate with an empty block while lagging.
            self.mempool.mark_proposal(now)
            return Block(proposer=self.node_id, epoch=epoch, v_array=v_array)
        batch = self.mempool.take_batch(self.config.max_block_size, now)
        return Block(proposer=self.node_id, epoch=epoch, v_array=v_array, tx_batch=batch)

    def _may_include_transactions(self, epoch: int) -> bool:
        """Whether this epoch's block may carry client transactions."""
        if not self.config.retrieve_blocks:
            # Low-bandwidth mode (S1): the node cannot validate state, so it
            # only ever contributes empty blocks to the agreement.
            return False
        if not self.config.coupled:
            return True
        # DL-Coupled: only propose transactions when retrieval/delivery is at
        # most ``coupled_lag`` epochs behind the epoch being proposed.
        return epoch - self.delivered_epoch <= self.config.coupled_lag

    # ------------------------------------------------------------------
    # Payload plumbing (virtual vs real data plane)
    # ------------------------------------------------------------------

    def _payload_for(self, block: Block) -> Any:
        if self.config.data_plane == REAL_PLANE:
            return block.serialize()
        return block

    def _block_from_payload(self, payload: Any) -> Block | None:
        """Turn a retrieval result back into a block (None if ill-formatted).

        On the real plane every node retrieving a root is handed the same
        payload object, and shares one frozen :class:`Block` parsed from it —
        as the virtual plane shares the dispersed block object itself.
        """
        if isinstance(payload, Block):
            return payload
        if isinstance(payload, (bytes, bytearray)):
            return parse_shared(bytes(payload), _parse_block)
        return None

    # ------------------------------------------------------------------
    # VID completion and the observation arrays
    # ------------------------------------------------------------------

    def _handle_vid_complete(self, instance: VIDInstanceId) -> None:
        proposer = instance.proposer
        self._completed_vids[proposer].add(instance.epoch)
        prefix = self._v_prefix[proposer]
        while prefix + 1 in self._completed_vids[proposer]:
            prefix += 1
        self._v_prefix[proposer] = prefix
        if self.ctx.probe is not None and proposer == self.node_id:
            self.ctx.probe.on_dispersal_complete(
                self.node_id, instance.epoch, self.ctx.now
            )
        self._on_vid_complete(instance)

    def observation_array(self) -> tuple[int, ...]:
        """This node's current ``V`` array (largest completed epoch prefix per node)."""
        return tuple(self._v_prefix)

    # ------------------------------------------------------------------
    # Binary agreement plumbing
    # ------------------------------------------------------------------

    def _input_ba(self, epoch: int, slot: int, value: int) -> None:
        ba = self._get_ba(BAInstanceId(epoch=epoch, slot=slot))
        if not ba.has_input:
            ba.input(value)

    def _handle_ba_output(self, instance: BAInstanceId, value: int) -> None:
        state = self._epoch_state(instance.epoch)
        state.ba_outputs[instance.slot] = value
        if (
            value == 1
            and not state.zero_votes_cast
            and state.num_positive_outputs >= self.params.quorum
        ):
            # N - f instances output 1: give up on the rest (Fig. 6 phase 1).
            state.zero_votes_cast = True
            for slot in self.params.node_indices():
                self._input_ba(instance.epoch, slot, 0)
        if len(state.ba_outputs) == self.params.n and state.committed is None:
            state.committed = tuple(
                sorted(slot for slot, out in state.ba_outputs.items() if out == 1)
            )
            self._on_epoch_agreement_done(instance.epoch, state)

    # ------------------------------------------------------------------
    # Retrieval of committed blocks
    # ------------------------------------------------------------------

    def _start_committed_retrieval(self, epoch: int) -> None:
        """Invoke ``Retrieve`` on every BA-committed block of ``epoch``."""
        state = self._epoch_state(epoch)
        if state.retrieval_started or state.committed is None:
            return
        state.retrieval_started = True
        if not state.committed:
            self._after_retrieval_progress(epoch)
            return
        for slot in state.committed:
            self._retrieve_slot(epoch, slot)

    def _retrieve_slot(self, epoch: int, slot: int) -> None:
        state = self._epoch_state(epoch)
        if slot in state.retrieved:
            self._after_retrieval_progress(epoch)
            return
        if self.ctx.probe is not None:
            self.ctx.probe.on_retrieval_start(self.node_id, epoch, slot, self.ctx.now)
        instance = VIDInstanceId(epoch=epoch, proposer=slot)
        self._get_vid(instance).retrieve(partial(self._slot_retrieved, epoch, slot))

    def _slot_retrieved(self, epoch: int, slot: int, result: RetrievalResult) -> None:
        if self.ctx.probe is not None:
            self.ctx.probe.on_retrieval_done(self.node_id, epoch, slot, self.ctx.now)
        block = self._block_from_payload(result.payload) if result.ok else None
        self._epoch_state(epoch).retrieved[slot] = block
        self._after_retrieval_progress(epoch)

    def _after_retrieval_progress(self, epoch: int) -> None:
        """Hook called whenever a committed-block retrieval for ``epoch`` finishes."""
        self._try_deliver()

    # ------------------------------------------------------------------
    # Inter-node linking retrieval
    # ------------------------------------------------------------------

    def _start_linking(self, epoch: int) -> None:
        """Compute the linking targets for ``epoch`` and retrieve the linked blocks."""
        state = self._epoch_state(epoch)
        if state.linking_started:
            return
        state.linking_started = True
        if not self.config.linking or not state.committed:
            state.linked_slots = ()
            return
        observations: dict[int, list[float]] = {}
        for slot in state.committed:
            block = state.retrieved.get(slot)
            if block is None or len(block.v_array) != self.params.n:
                observations[slot] = [INFINITE_OBSERVATION] * self.params.n
            else:
                observations[slot] = list(block.v_array)
        targets = compute_linking_targets(self.params, observations)
        committed_slots = [(epoch, slot) for slot in state.committed]
        pending = linked_slots(targets, self.ledger.sequence(), committed_slots)
        state.linked_slots = tuple(pending)
        for linked_epoch, proposer in pending:
            self._retrieve_linked_slot(epoch, linked_epoch, proposer)

    def _retrieve_linked_slot(self, epoch: int, linked_epoch: int, proposer: int) -> None:
        key = (linked_epoch, proposer)
        instance = VIDInstanceId(epoch=linked_epoch, proposer=proposer)
        self._get_vid(instance).retrieve(partial(self._linked_slot_retrieved, epoch, key))

    def _linked_slot_retrieved(
        self, epoch: int, key: tuple[int, int], result: RetrievalResult
    ) -> None:
        block = self._block_from_payload(result.payload) if result.ok else None
        self._epoch_state(epoch).linked_retrieved[key] = block
        self._try_deliver()

    # ------------------------------------------------------------------
    # In-order delivery pipeline
    # ------------------------------------------------------------------

    @property
    def agreed_epoch(self) -> int:
        """Largest epoch ``e`` such that agreement finished for every epoch ``<= e``.

        Low-bandwidth (non-retrieving) nodes track the log of commitments
        through this frontier even though they never deliver blocks locally.
        """
        epoch = 0
        while True:
            state = self._epochs.get(epoch + 1)
            if state is None or not state.agreement_done:
                return epoch
            epoch += 1

    def _try_deliver(self) -> None:
        """Deliver every epoch that is ready, strictly in epoch order."""
        if not self.config.retrieve_blocks:
            return
        while True:
            epoch = self.delivered_epoch + 1
            state = self._epochs.get(epoch)
            if state is None or not state.agreement_done or not state.retrieval_done:
                return
            if not state.ba_blocks_delivered:
                self._deliver_ba_blocks(epoch, state)
                self._start_linking(epoch)
            if not state.linking_done:
                return
            self._deliver_linked_blocks(epoch, state)
            state.fully_delivered = True
            self.delivered_epoch = epoch
            if self.ctx.probe is not None:
                self.ctx.probe.on_commit(self.node_id, epoch, self.ctx.now)
            self._on_epoch_delivered(epoch, state)

    def _deliver_ba_blocks(self, epoch: int, state: EpochState) -> None:
        """Deliver this epoch's BA-committed blocks, sorted by proposer index."""
        assert state.committed is not None
        for slot in state.committed:
            block = state.retrieved.get(slot)
            self._deliver_block(epoch, slot, block, via_linking=False, in_epoch=epoch)
        state.ba_blocks_delivered = True
        if (
            not self.config.linking
            and state.own_block is not None
            and self.node_id not in state.committed
            and not state.own_block.is_empty
        ):
            # Without inter-node linking (plain HoneyBadger), a dropped block's
            # transactions go back to the head of the queue to be re-proposed
            # in the next epoch (S4.2).
            self.mempool.requeue_front(state.own_block.tx_batch)

    def _deliver_linked_blocks(self, epoch: int, state: EpochState) -> None:
        for linked_epoch, proposer in state.linked_slots:
            if self.ledger.has_delivered(linked_epoch, proposer):
                continue
            block = state.linked_retrieved.get((linked_epoch, proposer))
            self._deliver_block(
                linked_epoch, proposer, block, via_linking=True, in_epoch=epoch
            )

    def _deliver_block(
        self,
        epoch: int,
        proposer: int,
        block: Block | None,
        via_linking: bool,
        in_epoch: int,
    ) -> None:
        if self.ledger.has_delivered(epoch, proposer):
            return
        if block is None:
            # BAD_UPLOADER or ill-formatted: all correct nodes agree on this
            # outcome (VID Correctness), so recording an empty placeholder
            # keeps the ledgers identical across nodes.
            block = Block(proposer=proposer, epoch=epoch, label="BAD_UPLOADER")
        entry = DeliveredBlock(
            epoch=epoch,
            proposer=proposer,
            block=block,
            delivered_at=self.ctx.now,
            via_linking=via_linking,
            delivered_in_epoch=in_epoch,
        )
        self.ledger.append(entry)
        if self.on_deliver is not None:
            self.on_deliver(self.node_id, entry)

    # ------------------------------------------------------------------
    # Hooks for protocol-specific behaviour
    # ------------------------------------------------------------------

    def _on_vid_complete(self, instance: VIDInstanceId) -> None:
        """Called whenever any VID instance completes at this node."""
        raise NotImplementedError

    def _on_epoch_agreement_done(self, epoch: int, state: EpochState) -> None:
        """Called once all N BA instances of ``epoch`` have produced output."""
        raise NotImplementedError

    def _on_epoch_delivered(self, epoch: int, state: EpochState) -> None:
        """Called once ``epoch`` (BA blocks plus linked blocks) is delivered."""
        raise NotImplementedError
