"""Property-based tests for AVID-M: correctness under arbitrary schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_avid_m import VidHarness


@given(
    payload=st.binary(min_size=0, max_size=400),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_all_retrievals_return_the_dispersed_payload(payload, seed):
    """Any payload, any delivery order: every correct client gets the payload back."""
    harness = VidHarness(4, seed=seed)
    harness.disperse(payload)
    harness.run()
    assert len(harness.completed) == 4
    results = harness.retrieve_all()
    assert all(result.ok and result.payload == payload for result in results.values())


@given(
    payload_a=st.binary(min_size=64, max_size=64),
    payload_b=st.binary(min_size=64, max_size=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=20, deadline=None)
def test_retrievals_agree_even_for_inconsistent_dispersals(payload_a, payload_b, seed):
    """The Correctness property: all correct clients return the *same* block,
    whether that is the dispersed payload or the BAD_UPLOADER marker."""
    from repro.adversary.equivocator import send_inconsistent_dispersal
    from repro.sim.context import NodeContext

    harness = VidHarness(4, seed=seed)
    ctx = NodeContext(0, harness.network, harness.network)
    send_inconsistent_dispersal(harness.params, ctx, harness.instance_id, payload_a, payload_b)
    harness.run()
    results = harness.retrieve_all()
    payloads = {id(r.payload): r.payload for r in results.values()}
    assert len({bytes(p) if isinstance(p, memoryview) else p for p in payloads.values()}) == 1
