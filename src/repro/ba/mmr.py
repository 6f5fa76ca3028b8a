"""Signature-free asynchronous binary agreement (Mostefaoui et al., PODC 2014).

One :class:`BinaryAgreement` object is the automaton for one BA instance at
one node.  The interface matches the paper's abstraction (S4.1):

* ``input(b)`` — provide the node's binary input;
* the ``on_output`` callback fires exactly once with the decided bit;
* the ``on_halt`` callback fires once the instance halts, after which it
  drops every message, so its owner may drop the instance too.

Protocol sketch (per round ``r``):

1. broadcast ``BVAL(r, est)``;
2. after ``f + 1`` ``BVAL(r, v)`` from distinct senders, echo ``BVAL(r, v)``;
   after ``2f + 1``, add ``v`` to ``bin_values[r]``;
3. when ``bin_values[r]`` first becomes non-empty, broadcast ``AUX(r, v)``
   for one of its members;
4. once ``N - f`` ``AUX(r, *)`` messages carry values inside
   ``bin_values[r]``, flip the common coin ``s``; if the carried values are a
   single ``{v}`` then ``est = v`` and decide if ``v == s``; otherwise
   ``est = s``; move to round ``r + 1``.

A Bracha-style termination gadget is layered on top so instances can stop
sending messages: deciding nodes broadcast ``DECIDED(v)``; ``f + 1`` such
messages let a node adopt the decision, and ``2f + 1`` let it halt.
"""

from __future__ import annotations

from typing import Callable

from repro.common.ids import BAInstanceId
from repro.common.params import ProtocolParams
from repro.common.snapshot import SnapshotState
from repro.sim.context import NodeContext
from repro.sim.messages import Message
from repro.ba.coin import CommonCoin
from repro.ba.messages import AuxMsg, BValMsg, DecidedMsg


class _RoundState(SnapshotState):
    """Book-keeping for one round of the protocol.

    Sender tallies are ``int`` bitmasks, one slot per binary value (bit
    ``1 << src`` set once ``src`` voted), counted with ``int.bit_count()``:
    one machine word per tally up to N=64, where a sender set or dict cost
    kilobytes per round per instance, and a ``[0, 0]`` list per tally kind
    72 B.  ``bval_sent`` and ``bin_values`` are 2-bit masks over the binary
    values (bit ``1 << v``), not sets.  An instance holds only its current
    and future rounds: it drops a round when it leaves it, and all of them
    when it halts.
    """

    _SNAPSHOT_FIELDS = (
        "bval0", "bval1", "aux0", "aux1", "bval_sent", "aux_sent", "bin_values", "advanced",
    )
    __slots__ = _SNAPSHOT_FIELDS

    def __init__(self) -> None:
        #: ``bval<v>``: who sent ``BVAL(r, v)``.
        self.bval0 = self.bval1 = 0
        #: ``aux<v>``: whose (first) ``AUX(r, *)`` carried ``v``.  The two
        #: masks are disjoint — one AUX per sender per round counts — and the
        #: N - f quorum rule counts the masks of the values inside
        #: ``bin_values``, so a vote parked while its value was outside
        #: counts from the moment the value is promoted, with no re-filing.
        self.aux0 = self.aux1 = 0
        self.bval_sent = 0
        self.aux_sent = False
        self.bin_values = 0
        self.advanced = False


class BinaryAgreement(SnapshotState):
    """One binary-agreement instance at one node."""

    _SNAPSHOT_FIELDS = (
        "params",
        "instance",
        "ctx",
        "coin",
        "on_output",
        "on_halt",
        "round_number",
        "estimate",
        "decided",
        "halted",
        "_started",
        "_sent_decided",
        "_rounds",
        "_decided0",
        "_decided1",
        "rounds_taken",
    )
    __slots__ = _SNAPSHOT_FIELDS

    def __init__(
        self,
        params: ProtocolParams,
        instance: BAInstanceId,
        ctx: NodeContext,
        coin: CommonCoin | None = None,
        on_output: Callable[[BAInstanceId, int], None] | None = None,
        on_halt: Callable[[BAInstanceId], None] | None = None,
    ):
        self.params = params
        self.instance = instance
        self.ctx = ctx
        self.coin = coin or CommonCoin()
        self.on_output = on_output
        self.on_halt = on_halt

        self.round_number = 0
        self.estimate: int | None = None
        self.decided: int | None = None
        self.halted = False
        self._started = False
        self._sent_decided = False
        self._rounds: dict[int, _RoundState] = {}
        #: ``_decided<v>``: bitmask of who sent ``DECIDED(v)``.
        self._decided0 = self._decided1 = 0
        self.rounds_taken = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def has_input(self) -> bool:
        return self._started

    def input(self, value: int) -> None:
        """Provide this node's binary input (idempotent after the first call)."""
        if value not in (0, 1):
            raise ValueError(f"binary agreement input must be 0 or 1, got {value}")
        if self._started or self.halted:
            return
        self._started = True
        self.estimate = value
        if self.ctx.probe is not None:
            self.ctx.probe.on_ba_round(
                self.ctx.node_id, self.instance.epoch, self.instance.slot,
                self.round_number, self.ctx.now,
            )
        self._broadcast_bval(self.round_number, value)
        self._evaluate_round(self.round_number)

    def handle(self, src: int, msg: Message) -> None:
        """Dispatch one incoming message for this instance."""
        if self.halted:
            return
        kind = type(msg)
        if kind is BValMsg:
            self._on_bval(src, msg)
        elif kind is AuxMsg:
            self._on_aux(src, msg)
        elif kind is DecidedMsg:
            self._on_decided(src, msg)

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------

    def _round(self, round_number: int) -> _RoundState:
        # Not ``setdefault(rn, _RoundState())``: that would build (and
        # usually discard) a fresh state object on every message.
        state = self._rounds.get(round_number)
        if state is None:
            state = self._rounds[round_number] = _RoundState()
        return state

    def _broadcast_bval(self, round_number: int, value: int) -> None:
        state = self._round(round_number)
        bit = 1 << value
        if state.bval_sent & bit:
            return
        state.bval_sent |= bit
        self.ctx.broadcast(
            BValMsg(instance=self.instance, round_number=round_number, value=value)
        )

    def _on_bval(self, src: int, msg: BValMsg) -> None:
        value = msg.value
        if value not in (0, 1) or msg.round_number < self.round_number:
            return
        state = self._round(msg.round_number)
        bit = 1 << src
        senders = state.bval1 if value else state.bval0
        if senders & bit:
            return  # duplicate vote: no state change, nothing can fire
        senders |= bit
        if value:
            state.bval1 = senders
        else:
            state.bval0 = senders
        if not self._started:
            return
        # The echo and promote rules fire exactly when the supporter count
        # first reaches f + 1 resp. 2f + 1, and no other round state changed
        # here — between crossings the (idempotent) rule sweep is a no-op, so
        # skip it.  A crossing that happens while the round is not current is
        # picked up by the full sweep ``_advance_to`` runs on round entry.
        count = senders.bit_count()
        if count != self.params.small_quorum and count != self.params.ready_threshold:
            return
        self._evaluate_round(msg.round_number)

    def _on_aux(self, src: int, msg: AuxMsg) -> None:
        value = msg.value
        if value not in (0, 1) or msg.round_number < self.round_number:
            return
        state = self._round(msg.round_number)
        bit = 1 << src
        if (state.aux0 | state.aux1) & bit:
            return  # one AUX per sender per round counts
        if value:
            state.aux1 |= bit
        else:
            state.aux0 |= bit
        bin_values = state.bin_values
        if not bin_values >> value & 1:
            # Not (yet) a valid vote; it counts once the value is promoted.
            # Nothing the quorum rule counts changed.
            return
        if not self._started:
            return
        # The N - f rule counts the masks of the values inside bin_values:
        # this vote's value is one, the other value counts only if it is too.
        valid = (state.aux0.bit_count() if bin_values & 1 else 0) + (
            state.aux1.bit_count() if bin_values & 2 else 0
        )
        if valid < self.params.quorum:
            return
        self._evaluate_round(msg.round_number)

    def _evaluate_round(self, round_number: int) -> None:
        """Apply every enabled rule for ``round_number`` if it is the current round."""
        if round_number != self.round_number or self.halted:
            return
        state = self._round(round_number)

        # Rule: echo BVAL values supported by f + 1 nodes; promote at 2f + 1.
        for value in (0, 1):
            bit = 1 << value
            supporters = (state.bval1 if value else state.bval0).bit_count()
            if supporters >= self.params.small_quorum and not state.bval_sent & bit:
                self._broadcast_bval(round_number, value)
            if supporters >= self.params.ready_threshold and not state.bin_values & bit:
                # AUX votes for this value, parked while it was outside
                # bin_values, count from now on.
                state.bin_values |= bit
                if not state.aux_sent:
                    state.aux_sent = True
                    self.ctx.broadcast(
                        AuxMsg(instance=self.instance, round_number=round_number, value=value)
                    )

        if not state.bin_values or state.advanced:
            return

        # Rule: once N - f AUX votes carry values inside bin_values, conclude
        # the round with the common coin.
        bin_values = state.bin_values
        valid0 = state.aux0.bit_count() if bin_values & 1 else 0
        valid1 = state.aux1.bit_count() if bin_values & 2 else 0
        if valid0 + valid1 < self.params.quorum:
            return
        coin_value = self.coin.flip(self.instance, round_number)
        state.advanced = True
        self.rounds_taken = round_number + 1
        if not (valid0 and valid1):
            # Every counted vote carries the same value.
            only_value = 1 if valid1 else 0
            self.estimate = only_value
            if only_value == coin_value:
                self._decide(only_value)
        else:
            self.estimate = coin_value
        if self.halted:
            return
        self._advance_to(round_number + 1)

    def _advance_to(self, round_number: int) -> None:
        # Votes for a round below round_number are ignored on arrival.
        del self._rounds[round_number - 1]
        self.round_number = round_number
        if self.ctx.probe is not None:
            self.ctx.probe.on_ba_round(
                self.ctx.node_id, self.instance.epoch, self.instance.slot,
                round_number, self.ctx.now,
            )
        assert self.estimate is not None
        self._broadcast_bval(round_number, self.estimate)
        self._evaluate_round(round_number)

    # ------------------------------------------------------------------
    # Decision and termination gadget
    # ------------------------------------------------------------------

    def _decide(self, value: int) -> None:
        if self.decided is None:
            self.decided = value
            if self.ctx.probe is not None:
                self.ctx.probe.on_ba_decide(
                    self.ctx.node_id, self.instance.epoch, self.instance.slot,
                    bool(value), self.ctx.now,
                )
            if self.on_output is not None:
                self.on_output(self.instance, value)
        if not self._sent_decided:
            self._sent_decided = True
            self.ctx.broadcast(DecidedMsg(instance=self.instance, value=value))

    def _on_decided(self, src: int, msg: DecidedMsg) -> None:
        value = msg.value
        if value not in (0, 1):
            return
        bit = 1 << src
        senders = self._decided1 if value else self._decided0
        if senders & bit:
            return  # duplicate: counts unchanged, rules re-check nothing new
        senders |= bit
        if value:
            self._decided1 = senders
        else:
            self._decided0 = senders
        count = senders.bit_count()
        if count >= self.params.small_quorum and self.decided is None:
            self._decide(value)
        if count >= self.params.ready_threshold and self.decided == value:
            self.halted = True
            # handle() drops every message once halted.
            del self._rounds
            if self.on_halt is not None:
                self.on_halt(self.instance)
