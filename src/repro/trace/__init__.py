"""Measured-bandwidth trace replay, per-run telemetry and causal spans.

Three parts, all layers over the simulator:

* **Replay** (:mod:`repro.trace.model`, :mod:`repro.trace.io`) — a file
  format for measured per-node bandwidth breakpoints
  (``time,node,up_bps,down_bps`` CSV, or the equivalent JSON), a validating
  loader, transform utilities (scale / clip / resample), and the bridge that
  lowers a trace onto the simulator's piecewise-constant bandwidth
  functions.  The scenario engine's ``trace-replay`` bandwidth model
  (:mod:`repro.experiments.scenario`) is built on this, so any
  :class:`~repro.experiments.scenario.ScenarioSpec` can replay a recorded
  trace by path; bundled examples live under ``traces/``.
* **Telemetry** (:mod:`repro.trace.recorder`) — a
  :class:`TraceRecorder` that samples per-node link state (queue depth,
  utilisation, traffic counters, epoch frontiers) on a virtual-time grid
  and derives per-epoch commit and adversary-delivery rows after the run,
  writing JSONL next to the summary.  Recording is opt-in per spec
  (:class:`TelemetrySpec`) and behaviour-neutral: summaries are
  bit-identical with it on or off.  :mod:`repro.trace.analysis` reduces a
  recorded JSONL to time-weighted queue-depth and utilisation statistics;
  :mod:`repro.trace.diff` compares recordings (and pinned golden
  envelopes) with per-series tolerances.
* **Spans** (:mod:`repro.trace.spans`) — a :class:`SpanRecorder` that
  observes the per-block lifecycle (dispersal → chunk transfers →
  retrieval → BA rounds → commit) through protocol hooks and emits nested
  causal spans as JSONL, plus the reductions behind ``trace spans``
  (:func:`summarise_spans`) and ``trace flame`` (:func:`spans_to_chrome`,
  :func:`profile_to_chrome`).  Like telemetry, span recording is opt-in
  per spec (:class:`~repro.trace.observers.SpanSpec`, next to the observer
  table) and behaviour-neutral.

CLI: ``python -m repro.experiments trace
{inspect,convert,export,summarise,diff,spans,flame}``
(:mod:`repro.trace.cli`).

The package re-exports nothing: import each name from the module that
defines it, so a run loads only the parts it uses.
"""

__all__: list[str] = []
