"""Verifiable Information Dispersal (VID) protocols.

This package implements AVID-M, the paper's new asynchronous VID protocol
(S3), together with the byte-accurate cost models of the prior protocols it
is compared against in Fig. 2 (AVID and AVID-FP), and the pluggable codecs
that let the same automaton run either on real erasure-coded bytes (unit
tests, examples) or on virtual payloads whose sizes alone matter
(throughput experiments).
"""

from repro.vid.avid_m import AvidMInstance, RetrievalResult
from repro.vid.codec import BAD_UPLOADER, Chunk, DispersalBundle, RealCodec, VirtualCodec, VirtualPayload
from repro.vid.costs import avid_fp_per_node_cost, avid_m_per_node_cost, dispersal_lower_bound

__all__ = [
    "AvidMInstance",
    "BAD_UPLOADER",
    "Chunk",
    "DispersalBundle",
    "RealCodec",
    "RetrievalResult",
    "VirtualCodec",
    "VirtualPayload",
    "avid_fp_per_node_cost",
    "avid_m_per_node_cost",
    "dispersal_lower_bound",
]
