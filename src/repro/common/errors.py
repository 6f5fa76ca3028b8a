"""Exception hierarchy for the DispersedLedger reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An invalid protocol or experiment configuration was supplied."""


class TraceError(ConfigurationError):
    """A measured-bandwidth trace file is malformed or cannot be used."""


class SnapshotError(ConfigurationError):
    """A simulation checkpoint is malformed, mismatched, or cannot be taken."""


class WorkerDiedError(ReproError):
    """A pool worker process died (killed, out of memory) with sweep points in flight."""


class ProtocolError(ReproError):
    """A protocol automaton received input that violates its contract."""


class DispersalError(ProtocolError):
    """A VID dispersal could not be carried out."""


class RetrievalError(ProtocolError):
    """A VID retrieval could not be carried out."""


class DecodingError(ReproError):
    """An erasure-coded payload could not be decoded."""
