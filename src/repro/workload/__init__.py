"""Workload generation: client transactions and bandwidth traces.

This package replaces the paper's load generators and Mahimahi traces
(S6.1, S6.3):

* :mod:`repro.workload.txgen` — Poisson transaction arrival processes (one
  thread per node in the paper) and a saturating generator used for the
  infinitely-backlogged throughput measurements.
* :mod:`repro.workload.traces` — time-varying bandwidth traces: constants,
  the spatial-variation profile of Fig. 11a, and the Gauss-Markov temporal
  variation process of Fig. 11b / Fig. 16.
* :mod:`repro.workload.cities` — per-city bandwidth/latency profiles that
  stand in for the AWS 16-city and Vultr 15-city testbeds of Fig. 8/15.

The package re-exports nothing: import from the module that defines a name.
"""

__all__: list[str] = []
