"""Exception hierarchy for the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError, ValueError):
    """Invalid protocol configuration (e.g. f >= n/3)."""


class CryptoError(ReproError):
    """Base class for crypto substrate errors."""


class SignatureError(CryptoError):
    """A signature failed verification."""


class VRFError(CryptoError):
    """A VRF proof failed verification or was malformed."""


class UnknownReplicaError(CryptoError, KeyError):
    """A replica ID is not present in the key registry."""


class NetworkError(ReproError):
    """Base class for network simulation errors."""


class NotRegisteredError(NetworkError):
    """A message was addressed to a replica with no registered handler."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""


class QuorumError(ReproError):
    """Invalid use of a quorum collector or certificate."""


class AnalysisDomainError(ReproError, ValueError):
    """Parameters are outside the validity domain of a closed-form bound.

    Several bounds in the paper hold only for restricted parameter ranges
    (e.g. Chernoff's delta must be positive).  The analysis functions raise
    this error (or return NaN when ``strict=False``) outside the domain.
    """
