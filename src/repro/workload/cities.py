"""Synthetic stand-ins for the paper's two internet testbeds.

The paper deploys 16 AWS nodes in major cities (Fig. 8) and 15 Vultr nodes
(Fig. 15), without publishing per-city capacity numbers.  What the results
depend on — and what these profiles preserve — is:

* heterogeneous per-node bandwidth (some cities are much better connected
  than others: the paper highlights Ohio as "good" and Mumbai as "limited");
* inter-city one-way propagation delays of roughly 100 ms (S6.3 uses 100 ms
  as "the typical latency between distant major cities");
* temporal fluctuation of each node's available bandwidth (congestion,
  latency jitter, congestion-control behaviour), modelled as a Gauss-Markov
  process around each city's mean capacity;
* the Vultr testbed being a cheaper provider with lower and noisier
  capacity than AWS.

Absolute MB/s numbers therefore differ from the paper's, but the orderings
and ratios the experiments measure (DL vs HB-Link vs HB, fast vs slow
cities) are produced by the same mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.bandwidth import BandwidthTrace, ConstantBandwidth
from repro.sim.network import NetworkConfig
from repro.workload.traces import MB, GaussMarkovProcess


@dataclass(frozen=True)
class CityProfile:
    """Mean capacity and variability of one testbed site.

    Attributes:
        name: city name (matches the paper's figures where possible).
        mean_bandwidth: mean ingress/egress capacity in bytes per second.
        sigma_fraction: standard deviation of the Gauss-Markov fluctuation,
            as a fraction of the mean.
        delay_to_hub: one-way propagation delay in seconds from this city to
            a notional internet "hub"; the delay between two cities is the
            sum of their hub delays (a simple but well-behaved metric that
            yields ~50-200 ms pairwise delays like the public ping tables
            the paper cites).
    """

    name: str
    mean_bandwidth: float
    sigma_fraction: float
    delay_to_hub: float


#: The 16-city geo-distributed testbed of Fig. 8 (AWS, unthrottled NICs but
#: real internet paths).  Ohio is the "good" site and Mumbai the "limited"
#: site called out in S6.2.
AWS_CITIES: tuple[CityProfile, ...] = (
    CityProfile("Ohio", 25 * MB, 0.20, 0.020),
    CityProfile("N. Virginia", 24 * MB, 0.20, 0.022),
    CityProfile("Oregon", 22 * MB, 0.22, 0.035),
    CityProfile("N. California", 21 * MB, 0.22, 0.035),
    CityProfile("Montreal", 23 * MB, 0.20, 0.025),
    CityProfile("Frankfurt", 20 * MB, 0.25, 0.045),
    CityProfile("Ireland", 21 * MB, 0.22, 0.040),
    CityProfile("London", 20 * MB, 0.25, 0.040),
    CityProfile("Paris", 19 * MB, 0.25, 0.042),
    CityProfile("Stockholm", 18 * MB, 0.25, 0.050),
    CityProfile("Tokyo", 16 * MB, 0.30, 0.070),
    CityProfile("Seoul", 15 * MB, 0.30, 0.072),
    CityProfile("Singapore", 13 * MB, 0.35, 0.080),
    CityProfile("Sydney", 12 * MB, 0.35, 0.090),
    CityProfile("Mumbai", 9 * MB, 0.40, 0.085),
    CityProfile("Sao Paulo", 11 * MB, 0.35, 0.075),
)

#: The 15-site Vultr testbed of Fig. 15: a low-cost provider with 1 Gbps
#: NICs, lower effective capacity and more variability than AWS.
VULTR_CITIES: tuple[CityProfile, ...] = (
    CityProfile("New Jersey", 14 * MB, 0.30, 0.022),
    CityProfile("Chicago", 13 * MB, 0.30, 0.025),
    CityProfile("Dallas", 12 * MB, 0.30, 0.030),
    CityProfile("Seattle", 12 * MB, 0.32, 0.035),
    CityProfile("Silicon Valley", 13 * MB, 0.30, 0.035),
    CityProfile("Los Angeles", 12 * MB, 0.32, 0.036),
    CityProfile("Atlanta", 12 * MB, 0.30, 0.024),
    CityProfile("Miami", 11 * MB, 0.32, 0.028),
    CityProfile("Toronto", 12 * MB, 0.30, 0.024),
    CityProfile("Amsterdam", 11 * MB, 0.35, 0.044),
    CityProfile("Paris", 10 * MB, 0.35, 0.042),
    CityProfile("Frankfurt", 10 * MB, 0.35, 0.045),
    CityProfile("Singapore", 7 * MB, 0.45, 0.080),
    CityProfile("Tokyo", 8 * MB, 0.40, 0.070),
    CityProfile("Sydney", 6 * MB, 0.45, 0.090),
)


#: Registry of named testbeds, used by the scenario engine so a declarative
#: spec can say ``topology: {kind: cities, testbed: aws}``.  Extend with
#: :func:`register_testbed`.
TESTBEDS: dict[str, tuple[CityProfile, ...]] = {}


def register_testbed(name: str, cities: tuple[CityProfile, ...]) -> str:
    """Register a named city testbed for scenario specs; returns ``name``.

    Re-registering the same name with a different profile tuple is an error
    (a spec naming the testbed would silently change meaning); registering
    the identical tuple is a no-op so callers may register idempotently.
    """
    if not cities:
        raise ValueError("a testbed needs at least one city")
    existing = TESTBEDS.get(name)
    if existing is not None and existing != tuple(cities):
        raise ValueError(f"testbed {name!r} is already registered with a different profile")
    TESTBEDS[name] = tuple(cities)
    return name


def resolve_testbed(name: str) -> tuple[CityProfile, ...]:
    """Look up a registered testbed by name."""
    try:
        return TESTBEDS[name]
    except KeyError:
        raise KeyError(
            f"unknown testbed {name!r}; registered: {sorted(TESTBEDS)}"
        ) from None


register_testbed("aws", AWS_CITIES)
register_testbed("vultr", VULTR_CITIES)


def city_delay_matrix(cities: tuple[CityProfile, ...]) -> list[list[float]]:
    """Pairwise one-way propagation delays between cities (seconds)."""
    n = len(cities)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                matrix[i][j] = cities[i].delay_to_hub + cities[j].delay_to_hub
    return matrix


#: How much larger a city's upload capacity is than its (binding) download
#: capacity.  The paper's geo nodes sit on fat datacenter uplinks and are
#: constrained by what each site can *pull* across the internet, so the
#: profile's ``mean_bandwidth`` models the download side and the serving side
#: gets proportional headroom (see docs/architecture.md, Substitutions).
DEFAULT_EGRESS_HEADROOM = 2.0


def city_traces(
    cities: tuple[CityProfile, ...],
    duration: float,
    seed: int = 0,
    fluctuate: bool = True,
    scale: float = 1.0,
) -> list[BandwidthTrace]:
    """Per-city bandwidth traces (Gauss-Markov around each city's mean).

    ``scale`` multiplies every city's mean (used to derive the egress traces
    from the same profiles with serving headroom).
    """
    traces: list[BandwidthTrace] = []
    for index, city in enumerate(cities):
        mean = city.mean_bandwidth * scale
        if not fluctuate or city.sigma_fraction == 0:
            traces.append(ConstantBandwidth(mean))
            continue
        process = GaussMarkovProcess(
            mean=mean,
            sigma=mean * city.sigma_fraction,
            alpha=0.98,
            floor=0.25 * mean,
            seed=seed * 100_000 + index,
        )
        traces.append(process.trace(duration))
    return traces


def city_network_config(
    cities: tuple[CityProfile, ...],
    duration: float,
    seed: int = 0,
    fluctuate: bool = True,
    egress_headroom: float = DEFAULT_EGRESS_HEADROOM,
) -> NetworkConfig:
    """Build the simulator's :class:`NetworkConfig` for one of the testbeds."""
    ingress = city_traces(cities, duration, seed=seed + 1, fluctuate=fluctuate)
    egress = city_traces(
        cities, duration, seed=seed, fluctuate=fluctuate, scale=egress_headroom
    )
    return NetworkConfig(
        num_nodes=len(cities),
        propagation_delay=city_delay_matrix(cities),
        egress_traces=egress,
        ingress_traces=ingress,
    )
