"""Measurement of throughput, latency and traffic composition.

The paper's evaluation reports three families of metrics, all of which are
computed here from the events the nodes and the simulated network expose:

* **Throughput** (Fig. 8, 11, 12, 15): confirmed transaction payload bytes
  per second at each node, plus the confirmed-bytes-over-time timelines of
  Fig. 9.
* **Latency** (Fig. 10, 14): time from a transaction entering the system to
  its delivery, reported as median and tail percentiles, either over all
  transactions or over "local" transactions only (those generated at the
  measuring node — the paper's default metric, justified in Appendix A.1).
* **Traffic composition** (Fig. 13): the fraction of a node's download
  traffic that belongs to the dispersal phase as opposed to block retrieval.
"""

from repro.metrics.collector import MetricsCollector, NodeMetrics
from repro.metrics.stats import percentile, summarise

__all__ = ["MetricsCollector", "NodeMetrics", "percentile", "summarise"]
