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
"""

from repro.workload.cities import (
    AWS_CITIES,
    TESTBEDS,
    VULTR_CITIES,
    CityProfile,
    city_network_config,
    register_testbed,
    resolve_testbed,
)
from repro.workload.traces import (
    GaussMarkovProcess,
    constant_traces,
    flapping_trace,
    flapping_traces,
    gauss_markov_traces,
    spatial_variation_rates,
    straggler_rates,
)
from repro.workload.txgen import (
    ColumnarPoissonTransactionGenerator,
    ModulatedPoissonTransactionGenerator,
    PoissonTransactionGenerator,
    SaturatingTransactionGenerator,
    bursty_rate_profile,
    diurnal_rate_profile,
)

__all__ = [
    "AWS_CITIES",
    "CityProfile",
    "ColumnarPoissonTransactionGenerator",
    "GaussMarkovProcess",
    "ModulatedPoissonTransactionGenerator",
    "PoissonTransactionGenerator",
    "SaturatingTransactionGenerator",
    "TESTBEDS",
    "VULTR_CITIES",
    "bursty_rate_profile",
    "city_network_config",
    "constant_traces",
    "diurnal_rate_profile",
    "flapping_trace",
    "flapping_traces",
    "gauss_markov_traces",
    "register_testbed",
    "resolve_testbed",
    "spatial_variation_rates",
    "straggler_rates",
]
