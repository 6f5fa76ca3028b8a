"""Protocol parameters shared by every subprotocol.

The paper's security model (S2.4) fixes a set of ``N`` servers of which at
most ``f`` are Byzantine, with ``N >= 3f + 1``.  Every subprotocol (AVID-M,
binary agreement, DispersedLedger, HoneyBadger) derives its thresholds from
these two numbers, so they live in a single immutable value object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ProtocolParams:
    """The ``(N, f)`` parameters of the Byzantine fault tolerance setting.

    The thresholds are read on every vote of every automaton, so they are
    plain ``int`` attributes computed once from ``(n, f)`` at construction
    (``dataclasses.replace`` builds a new object and so recomputes them);
    equality, hash and ``repr`` cover ``(n, f)`` only.

    Attributes:
        n: total number of servers (``N`` in the paper).
        f: maximum number of Byzantine servers tolerated.
        quorum: size of a super-majority quorum (``N - f``).
        small_quorum: number of votes that guarantees at least one correct
            vote (``f + 1``).
        data_shards: number of data shards of the ``(N - 2f, N)`` erasure code.
        total_shards: total number of erasure-code shards (one per server).
        ready_threshold: number of ``Ready`` messages required to complete a
            dispersal (``2f + 1``).
        ready_amplify_threshold: number of ``Ready`` messages that triggers
            echoing ``Ready`` (``f + 1``).
    """

    n: int
    f: int
    quorum: int = field(init=False, repr=False, compare=False)
    small_quorum: int = field(init=False, repr=False, compare=False)
    data_shards: int = field(init=False, repr=False, compare=False)
    total_shards: int = field(init=False, repr=False, compare=False)
    ready_threshold: int = field(init=False, repr=False, compare=False)
    ready_amplify_threshold: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.f < 0:
            raise ConfigurationError(f"f must be non-negative, got {self.f}")
        if self.n < 3 * self.f + 1:
            raise ConfigurationError(
                f"need n >= 3f + 1 for Byzantine tolerance, got n={self.n}, f={self.f}"
            )
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "quorum", self.n - self.f)
        derive(self, "small_quorum", self.f + 1)
        derive(self, "data_shards", self.n - 2 * self.f)
        derive(self, "total_shards", self.n)
        derive(self, "ready_threshold", 2 * self.f + 1)
        derive(self, "ready_amplify_threshold", self.f + 1)

    @classmethod
    def for_n(cls, n: int) -> "ProtocolParams":
        """Build parameters for ``n`` servers with the maximum tolerable ``f``."""
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        return cls(n=n, f=(n - 1) // 3)

    def node_indices(self) -> range:
        """All node indices, ``0..N-1``."""
        return range(self.n)
