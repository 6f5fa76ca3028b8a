"""Span recording is execution-shape-blind: byte-identical span trees.

The :class:`~repro.trace.spans.SpanRecorder` promises that the causal span
tree is a function of the run, not of how the run was executed.  A
hypothesis property pins that down over the fast-tier catalog slice: the
span JSONL from a run that checkpoints mid-flight, and from a run *resumed*
off that checkpoint, must both be byte-identical to the uninterrupted run's
file — open spans and FIFO transfer queues survive the ``repro-ckpt-v1``
round trip exactly.

Summaries ride along in every comparison so behaviour-neutrality is
re-asserted at the same time.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.engine import run_scenario
from repro.experiments.golden import golden_points
from repro.experiments.options import ExecutionOptions
from repro.trace.observers import SpanSpec

# A diverse slice of the fast tier: plain replay, a node-class adversary,
# heterogeneous stragglers.
PROPERTY_SCENARIOS = (
    "trace-replay-wan",
    "censor-victim",
    "straggler-hetero",
)


def _span_spec(name: str, out_dir: Path):
    """The scenario's first golden point with span recording switched on."""
    _config, _base, points = golden_points(name)
    _overrides, spec = points[0]
    return replace(spec, spans=SpanSpec(enabled=True, out_dir=str(out_dir)))


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# One monolithic reference run per scenario, shared across examples (the
# recorder is deterministic, so recording once is both honest and fast).
_MONO_CACHE: dict[str, tuple[str, bytes]] = {}


def _monolithic(name: str, tmp_path_factory) -> tuple[str, bytes]:
    if name not in _MONO_CACHE:
        out = tmp_path_factory.mktemp(f"mono-{name}")
        result = run_scenario(_span_spec(name, out))
        _MONO_CACHE[name] = (
            _canon(result.summary()),
            Path(result.span_path).read_bytes(),
        )
    return _MONO_CACHE[name]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    name=st.sampled_from(PROPERTY_SCENARIOS),
    fraction=st.sampled_from((0.25, 0.5)),
)
def test_span_tree_survives_checkpoint_resume(name, fraction, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    spec = _span_spec(name, tmp)
    ckpt_spec = replace(spec, checkpoint_every=spec.duration * fraction)
    ckpt = tmp / "point.ckpt"

    mono_summary, mono_bytes = _monolithic(name, tmp_path_factory)

    # Checkpointing with spans on is itself invisible...
    full = run_scenario(ckpt_spec, options=ExecutionOptions(checkpoint_path=ckpt))
    full_bytes = Path(full.span_path).read_bytes()
    assert full_bytes == mono_bytes
    assert _canon(full.summary()) == mono_summary

    # ...and the run resumed off the mid-flight checkpoint re-emits the
    # exact same file: restored open spans close identically.
    resumed = run_scenario(
        ckpt_spec,
        options=ExecutionOptions(checkpoint_path=ckpt, resume_from=ckpt),
    )
    assert Path(resumed.span_path).read_bytes() == mono_bytes
    assert _canon(resumed.summary()) == mono_summary
