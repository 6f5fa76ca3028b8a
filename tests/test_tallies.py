"""The bitmask sender tallies against a set-based reference model.

``BinaryAgreement`` and ``AvidMInstance`` keep who-voted state as ``int``
bitmasks.  The models below keep the same state the obvious way — one
``set``/``dict`` entry per sender — and re-run every rule after every
message instead of only at threshold crossings.  For arbitrary delivery
sequences (duplicates, both binary values, future rounds, votes arriving
before ``input``/``retrieve``) the automaton must emit the same messages in
the same order and end in the same state.

A second test pins the point of the masks: after a full N=64 epoch no
automaton holds a container that grew with the number of senders — not
even for retrieval, whose chunk map is dropped at decode and whose
cancellation marks are one ``bytearray``.  It and a mid-run walk also pin
what the automata free: a halted agreement holds no rounds, a live one no
round below its current one, and a completed dispersal no count for its
own root.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ba.coin import CommonCoin
from repro.ba.messages import AuxMsg, BValMsg, DecidedMsg
from repro.ba.mmr import BinaryAgreement, _RoundState
from repro.common.ids import BAInstanceId, VIDInstanceId
from repro.common.params import ProtocolParams
from repro.experiments import apply_overrides, get_scenario
from repro.sim.context import NodeContext
from repro.vid.avid_m import AvidMInstance
from repro.vid.codec import VirtualCodec, VirtualPayload
from repro.vid.messages import (
    CancelChunkMsg,
    ChunkMsg,
    GotChunkMsg,
    ReadyMsg,
    RequestChunkMsg,
    ReturnChunkMsg,
)
from tests.conftest import build_scenario_state

BA_ID = BAInstanceId(epoch=1, slot=0)
VID_ID = VIDInstanceId(epoch=1, proposer=0)
ME = 0


class _Outbox:
    """A router that records what the automaton under test sends."""

    now = 0.0

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.sent: list[tuple] = []

    def send(self, src, dst, msg, rank=0.0, abort=None):
        self.sent.append(("send", dst, _wire(msg)))

    def broadcast(self, src, msg, include_self=True, rank=0.0):
        self.sent.append(("broadcast", include_self, _wire(msg)))


def _wire(msg) -> tuple:
    fields = ("round_number", "value", "root")
    return (type(msg).__name__,) + tuple(
        getattr(msg, name) for name in fields if hasattr(msg, name)
    )


# ---------------------------------------------------------------------------
# Binary agreement
# ---------------------------------------------------------------------------


class _SetBA:
    """MMR binary agreement with per-sender sets and a full rule sweep."""

    def __init__(self, params: ProtocolParams):
        self.params = params
        self.coin = CommonCoin()
        self.sent: list[tuple] = []
        self.round_number = 0
        self.estimate = None
        self.decided = None
        self.halted = False
        self.started = False
        self.sent_decided = False
        self.rounds_taken = 0
        self.rounds: dict[int, dict] = {}
        self.decided_senders = {0: set(), 1: set()}

    def _round(self, r: int) -> dict:
        return self.rounds.setdefault(
            r,
            {"bval": {0: set(), 1: set()}, "aux": {}, "bval_sent": set(),
             "aux_sent": False, "bin": set(), "advanced": False},
        )

    def _broadcast(self, *wire) -> None:
        self.sent.append(("broadcast", True, wire))

    def _send_bval(self, r: int, value: int) -> None:
        state = self._round(r)
        if value not in state["bval_sent"]:
            state["bval_sent"].add(value)
            self._broadcast("BValMsg", r, value)

    def input(self, value: int) -> None:
        if self.started or self.halted:
            return
        self.started = True
        self.estimate = value
        self._send_bval(self.round_number, value)
        self._sweep(self.round_number)

    def handle(self, src: int, kind: str, r: int, value: int) -> None:
        if self.halted or value not in (0, 1):
            return
        if kind == "decided":
            self.decided_senders[value].add(src)
            count = len(self.decided_senders[value])
            if count >= self.params.small_quorum and self.decided is None:
                self._decide(value)
            if count >= self.params.ready_threshold and self.decided == value:
                self.halted = True
            return
        if r < self.round_number:
            return
        state = self._round(r)
        if kind == "bval":
            state["bval"][value].add(src)
        else:
            state["aux"].setdefault(src, value)  # the first AUX per sender counts
        if self.started:
            self._sweep(r)

    def _sweep(self, r: int) -> None:
        if r != self.round_number or self.halted:
            return
        state = self._round(r)
        for value in (0, 1):
            supporters = len(state["bval"][value])
            if supporters >= self.params.small_quorum:
                self._send_bval(r, value)
            if supporters >= self.params.ready_threshold and value not in state["bin"]:
                state["bin"].add(value)
                if not state["aux_sent"]:
                    state["aux_sent"] = True
                    self._broadcast("AuxMsg", r, value)
        if not state["bin"] or state["advanced"]:
            return
        valid = {s: v for s, v in state["aux"].items() if v in state["bin"]}
        if len(valid) < self.params.quorum:
            return
        carried = set(valid.values())
        coin = self.coin.flip(BA_ID, r)
        state["advanced"] = True
        self.rounds_taken = r + 1
        if len(carried) == 1:
            (self.estimate,) = carried
            if self.estimate == coin:
                self._decide(self.estimate)
        else:
            self.estimate = coin
        if self.halted:
            return
        self.round_number = r + 1
        self._send_bval(r + 1, self.estimate)
        self._sweep(r + 1)

    def _decide(self, value: int) -> None:
        if self.decided is None:
            self.decided = value
        if not self.sent_decided:
            self.sent_decided = True
            self._broadcast("DecidedMsg", value)


def _ba_message(kind: str, r: int, value: int):
    if kind == "bval":
        return BValMsg(instance=BA_ID, round_number=r, value=value)
    if kind == "aux":
        return AuxMsg(instance=BA_ID, round_number=r, value=value)
    return DecidedMsg(instance=BA_ID, value=value)


def _ba_event(n: int):
    """One delivery: mostly votes for the current round, sometimes ``input``.

    The round is drawn as an offset from the model's current round (stale,
    current, future) so that sequences keep hitting live thresholds however
    far the automaton has advanced.
    """
    vote = st.tuples(
        st.integers(0, n - 1),
        st.sampled_from(("bval", "bval", "aux", "aux", "decided")),
        st.sampled_from((-1, 0, 0, 0, 0, 0, 1, 2)),
        # 2 is malformed and must be ignored by both.
        st.sampled_from((0, 0, 0, 0, 1, 1, 1, 1, 2)),
    )
    own_input = st.tuples(st.just("input"), st.integers(0, 1))
    return st.one_of(*[vote] * 9, own_input)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.sampled_from((4, 7)), length=st.integers(0, 150))
def test_ba_matches_the_set_based_model(data, n, length):
    params = ProtocolParams.for_n(n)
    outbox = _Outbox(n)
    outputs: list[int] = []
    ba = BinaryAgreement(
        params, BA_ID, NodeContext(ME, outbox, outbox),
        on_output=lambda _instance, value: outputs.append(value),
    )
    model = _SetBA(params)
    event_strategy = _ba_event(n)
    for _ in range(length):
        event = data.draw(event_strategy)
        if event[0] == "input":
            ba.input(event[1])
            model.input(event[1])
        else:
            src, kind, offset, value = event
            r = max(0, model.round_number + offset)
            ba.handle(src, _ba_message(kind, r, value))
            model.handle(src, kind, r, value)
        assert outbox.sent == model.sent
        assert (ba.decided, ba.halted, ba.rounds_taken, ba.round_number, ba.estimate) == (
            model.decided, model.halted, model.rounds_taken, model.round_number,
            model.estimate,
        )
    assert outputs == ([] if model.decided is None else [model.decided])


def test_parked_aux_votes_count_once_their_value_is_promoted():
    """AUX(0) x3 arrive before 0 enters bin_values; promotion must count them."""
    params = ProtocolParams.for_n(4)
    outbox = _Outbox(4)
    ba = BinaryAgreement(params, BA_ID, NodeContext(ME, outbox, outbox))
    ba.input(0)
    for src in (1, 2, 3):
        ba.handle(src, _ba_message("aux", 0, 0))
    assert ba.round_number == 0
    for src in (1, 2, 3):
        ba.handle(src, _ba_message("bval", 0, 0))
    # Round 0's coin is 1, so the unanimous 0 carries over without deciding.
    assert (ba.round_number, ba.estimate, ba.decided) == (1, 0, None)


def test_split_aux_votes_reach_the_quorum_together():
    """With both values in bin_values, AUX(0) x1 + AUX(1) x2 is N - f = 3 votes."""
    params = ProtocolParams.for_n(4)
    outbox = _Outbox(4)
    ba = BinaryAgreement(params, BA_ID, NodeContext(ME, outbox, outbox))
    ba.input(0)
    for value in (0, 1):
        for src in (1, 2, 3):
            ba.handle(src, _ba_message("bval", 0, value))
    ba.handle(1, _ba_message("aux", 0, 0))
    ba.handle(2, _ba_message("aux", 0, 1))
    ba.handle(2, _ba_message("aux", 0, 0))  # a second AUX from 2 does not count
    assert ba.round_number == 0
    ba.handle(3, _ba_message("aux", 0, 1))
    # Mixed values: the estimate becomes round 0's coin (1), nothing decided.
    assert (ba.round_number, ba.estimate, ba.decided) == (1, 1, None)


# ---------------------------------------------------------------------------
# AVID-M
# ---------------------------------------------------------------------------


class _StubCodec:
    """Accepts every chunk; decoding names the root and the chunk indices."""

    def verify_chunk(self, root, chunk):
        return True

    def decode(self, root, chunks):
        return (root, tuple(sorted(chunks)))


class _SetVid:
    """AVID-M's vote and retrieval bookkeeping with per-sender sets."""

    def __init__(self, params: ProtocolParams):
        self.params = params
        self.sent: list[tuple] = []
        self.my_root = None
        self.chunk_root = None
        self.completed = False
        self.sent_got_chunk = False
        self.sent_ready: set[bytes] = set()
        self.got_chunk: dict[bytes, set[int]] = {}
        self.ready: dict[bytes, set[int]] = {}
        self.voted_got_chunk: set[int] = set()
        self.voted_ready: set[int] = set()
        self.pending: list[int] = []
        self.cancelled: set[int] = set()
        self.retrieving = False
        self.result = None
        self.returned: set[int] = set()
        self.chunks: dict[bytes, set[int]] = {}

    def _broadcast(self, include_self, *wire) -> None:
        self.sent.append(("broadcast", include_self, wire))

    def _can_answer(self) -> bool:
        return self.completed and self.my_root is not None and self.my_root == self.chunk_root

    def _answer(self, dst: int) -> None:
        if dst not in self.cancelled:
            self.sent.append(("send", dst, ("ReturnChunkMsg", self.my_root)))

    def _flush(self) -> None:
        if self._can_answer():
            pending, self.pending = self.pending, []
            for dst in pending:
                self._answer(dst)

    def _send_ready(self, root: bytes) -> None:
        if root not in self.sent_ready:
            self.sent_ready.add(root)
            self._broadcast(True, "ReadyMsg", root)

    def retrieve(self) -> None:
        if self.result is None and not self.retrieving:
            self.retrieving = True
            self._broadcast(True, "RequestChunkMsg")

    def handle(self, src: int, kind: str, root: bytes, index: int) -> None:
        params = self.params
        if kind == "chunk":
            if src != VID_ID.proposer or index != ME:
                return
            if self.my_root is None:
                self.my_root = root
                self._flush()
            if not self.sent_got_chunk:
                self.sent_got_chunk = True
                self._broadcast(True, "GotChunkMsg", root)
        elif kind == "got_chunk":
            if src in self.voted_got_chunk:
                return
            self.voted_got_chunk.add(src)
            self.got_chunk.setdefault(root, set()).add(src)
            if len(self.got_chunk[root]) >= params.quorum:
                self._send_ready(root)
        elif kind == "ready":
            if src in self.voted_ready:
                return
            self.voted_ready.add(src)
            self.ready.setdefault(root, set()).add(src)
            if len(self.ready[root]) >= params.ready_amplify_threshold:
                self._send_ready(root)
            if len(self.ready[root]) >= params.ready_threshold and not self.completed:
                self.chunk_root = root
                self.completed = True
                self._flush()
        elif kind == "request":
            if self._can_answer():
                self._answer(src)
            elif src not in self.pending:
                self.pending.append(src)
        elif kind == "cancel":
            self.cancelled.add(src)
        elif kind == "return":
            if not self.retrieving or self.result is not None or src in self.returned:
                return
            self.returned.add(src)
            if index != src:
                return
            self.chunks.setdefault(root, set()).add(index)
            if len(self.chunks[root]) >= params.data_shards:
                self.result = (root, tuple(sorted(self.chunks[root])))
                self._broadcast(False, "CancelChunkMsg")


#: Chunk ``i`` of a 1-byte virtual block, wide enough for either cluster size.
_CHUNKS = VirtualCodec(ProtocolParams.for_n(7)).encode(VirtualPayload(payload_id=0, size=1)).chunks


def _vid_message(kind: str, root: bytes, index: int):
    if kind in ("chunk", "return"):
        cls = ChunkMsg if kind == "chunk" else ReturnChunkMsg
        return cls(instance=VID_ID, root=root, chunk=_CHUNKS[index])
    if kind in ("got_chunk", "ready"):
        cls = GotChunkMsg if kind == "got_chunk" else ReadyMsg
        return cls(instance=VID_ID, root=root)
    cls = RequestChunkMsg if kind == "request" else CancelChunkMsg
    return cls(instance=VID_ID)


def _vid_event(n: int):
    message = st.tuples(
        st.integers(0, n - 1),
        st.sampled_from(
            ("chunk", "got_chunk", "got_chunk", "ready", "ready", "request", "cancel",
             "return", "return", "return")
        ),
        st.sampled_from((b"A" * 32, b"A" * 32, b"A" * 32, b"B" * 32)),
        # For ``return``: whether the chunk carries its sender's index.
        st.sampled_from((True, True, False)),
    )
    return st.one_of(*[message] * 9, st.just("retrieve"))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.sampled_from((4, 7)),
    length=st.integers(0, 150),
    retrieve_first=st.booleans(),
)
def test_avid_m_matches_the_set_based_model(data, n, length, retrieve_first):
    params = ProtocolParams.for_n(n)
    outbox = _Outbox(n)
    completions: list = []
    results: list = []
    vid = AvidMInstance(
        params, VID_ID, NodeContext(ME, outbox, outbox), _StubCodec(),
        on_complete=completions.append, allowed_disperser=VID_ID.proposer,
    )
    model = _SetVid(params)
    event_strategy = _vid_event(n)
    for step in range(length):
        event = "retrieve" if retrieve_first and step == 0 else data.draw(event_strategy)
        if event == "retrieve":
            if not model.retrieving:
                vid.retrieve(results.append)
            model.retrieve()
        else:
            src, kind, root, well_formed = event
            if kind == "chunk":
                index = ME if well_formed else (ME + 1) % n
            else:
                index = src if well_formed else (src + 1) % n
            vid.handle(src, _vid_message(kind, root, index))
            model.handle(src, kind, root, index)
        assert outbox.sent == model.sent
        assert (vid.completed, vid.chunk_root, vid.my_root) == (
            model.completed, model.chunk_root, model.my_root,
        )
        assert [r.payload for r in results] == ([] if model.result is None else [model.result])
    assert completions == ([VID_ID] if model.completed else [])


# ---------------------------------------------------------------------------
# Size: nothing per sender after a full epoch
# ---------------------------------------------------------------------------

#: Collaborators an automaton points at but does not own.
_NOT_OWNED = {"params", "instance", "ctx", "codec", "coin", "on_complete", "on_output", "probe"}


def _largest_container(owner, skip=frozenset()) -> tuple[int, str]:
    """``(len, field)`` of the largest container reachable from ``owner``'s fields."""
    names = getattr(owner, "__slots__", None) or vars(owner)
    largest = (0, "")
    stack = [(name, getattr(owner, name)) for name in names if name not in skip]
    while stack:
        name, value = stack.pop()
        if isinstance(value, _RoundState):
            stack.extend((f"{name}.{slot}", getattr(value, slot)) for slot in value.__slots__)
        elif isinstance(value, (set, frozenset, list, tuple, dict)):
            largest = max(largest, (len(value), name))
            members = value.values() if isinstance(value, dict) else value
            stack.extend((name, member) for member in members)
    return largest


def test_no_per_sender_container_survives_a_full_n64_epoch():
    spec = get_scenario("columnar-scale").base
    state = build_scenario_state(spec)
    state.sim.run(until=spec.duration)
    n = spec.topology.num_nodes
    node = state.nodes[n // 2]
    assert node.delivered_epoch == 1
    assert len(node._vid_instances) == n and len(node._ba_instances) == n
    for vid in node._vid_instances.values():
        assert vid.completed and vid.retrieval_complete
        assert vid.chunk_root not in vid._got_chunk_count
        assert vid.chunk_root not in vid._ready_count
        assert vid._got_chunk_seen.bit_count() >= spec.params().quorum
        # The sets the masks replaced held one entry per sender (>= N - f).
        assert _largest_container(vid, _NOT_OWNED)[0] <= 2
        assert vid._cancelled_retrievers.count(1) >= spec.params().quorum - 1
    for ba in node._ba_instances.values():
        assert ba.halted and ba.decided == 1
        assert not hasattr(ba, "_rounds")
        assert max(ba._decided_senders).bit_count() >= spec.params().ready_threshold
        assert _largest_container(ba, _NOT_OWNED)[0] <= 2


def test_a_live_agreement_holds_no_past_round():
    spec = apply_overrides(get_scenario("columnar-scale").base, {"topology.num_nodes": 22})
    state = build_scenario_state(spec)
    sim = state.sim
    past_round_zero = 0
    while sim.now < spec.duration:
        sim.run(until=spec.duration, max_events=1000)
        for node in state.nodes:
            for ba in node._ba_instances.values():
                if ba.halted:
                    continue
                past_round_zero += ba.round_number > 0
                assert min(ba._rounds, default=ba.round_number) >= ba.round_number
    assert all(node.delivered_epoch == 1 for node in state.nodes)
    assert past_round_zero > 0
