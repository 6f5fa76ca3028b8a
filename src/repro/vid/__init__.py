"""Verifiable Information Dispersal (VID) protocols.

This package implements AVID-M, the paper's new asynchronous VID protocol
(S3), together with the byte-accurate cost models of the prior protocols it
is compared against in Fig. 2 (AVID and AVID-FP; :mod:`repro.vid.costs`,
which only the Fig. 2 runner loads, so it is not re-exported here), and the
pluggable codecs
that let the same automaton run either on real erasure-coded bytes (unit
tests, examples) or on virtual payloads whose sizes alone matter
(throughput experiments).
"""

from repro.vid.avid_m import AvidMInstance, RetrievalResult
from repro.vid.codec import BAD_UPLOADER, Chunk, DispersalBundle, RealCodec, VirtualCodec, VirtualPayload

__all__ = [
    "AvidMInstance",
    "BAD_UPLOADER",
    "Chunk",
    "DispersalBundle",
    "RealCodec",
    "RetrievalResult",
    "VirtualCodec",
    "VirtualPayload",
]
