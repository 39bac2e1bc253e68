"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from protocol-level
authentication failures or simulation misuse.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CryptoError",
    "KeyChainError",
    "KeyChainExhaustedError",
    "KeyVerificationError",
    "TimeSyncError",
    "SecurityConditionError",
    "ProtocolError",
    "AuthenticationError",
    "BufferError_",
    "GameError",
    "ConvergenceError",
    "SimulationError",
    "SchedulingError",
    "EngineError",
    "TaskError",
    "CacheKeyError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed or configured with invalid parameters.

    Raised eagerly at construction time so that misconfiguration never
    silently corrupts a simulation or a game solution.
    """


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class KeyChainError(CryptoError):
    """A one-way key chain was used inconsistently (bad index, bad seed)."""


class KeyChainExhaustedError(KeyChainError):
    """A sender requested a key beyond the length of its key chain.

    TESLA-family chains are finite: a chain of length ``n`` covers exactly
    ``n`` intervals, after which the sender must bootstrap a new chain.
    """


class KeyVerificationError(CryptoError):
    """A disclosed key could not be linked to an authenticated commitment."""


class TimeSyncError(ReproError):
    """Base class for loose-time-synchronisation failures."""


class SecurityConditionError(TimeSyncError):
    """The TESLA security condition was violated for a received packet.

    Receivers must discard packets whose MAC key may already have been
    disclosed; this error marks that situation when the caller asked for
    strict handling instead of a soft discard.
    """


class ProtocolError(ReproError):
    """A broadcast-authentication protocol was driven incorrectly."""


class AuthenticationError(ProtocolError):
    """Strict-mode authentication failure (forged or corrupted packet)."""


class BufferError_(ReproError):
    """Misuse of a DoS-resistant packet buffer (the trailing underscore
    avoids shadowing the Python built-in :class:`BufferError`)."""


class GameError(ReproError):
    """Base class for evolutionary-game failures."""


class ConvergenceError(GameError):
    """Replicator dynamics failed to converge within the step budget."""


class SimulationError(ReproError):
    """Base class for discrete-event simulator failures."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the simulation horizon."""


class EngineError(ReproError):
    """Base class for experiment-engine failures."""


class TaskError(EngineError):
    """One task of an experiment batch failed.

    The experiment engine isolates per-task failures: the original
    exception is chained (``__cause__``) and the failing task is
    identified by ``label`` (e.g. ``"seed=3"``) and ``index`` so a
    thousand-cell sweep never reports a bare traceback with no clue
    which cell died.
    """

    def __init__(self, message: str, label: str = "", index: int = -1) -> None:
        super().__init__(message)
        self.label = label
        self.index = index


class CacheKeyError(EngineError, TypeError):
    """A value could not be reduced to a stable content-address.

    Raised by :func:`repro.engine.stable_key` for objects with no
    canonical byte representation (open files, lambdas, ...); callers
    either make the config picklable-and-frozen or skip caching.
    """
