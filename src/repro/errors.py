"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so downstream users can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DDError(ReproError):
    """Error in the decision-diagram package (invalid structure or operand)."""


class DimensionMismatchError(DDError):
    """Two decision diagrams of incompatible qubit counts were combined."""


class SanitizerError(DDError):
    """The DD sanitizer found a structural-invariant violation.

    ``report`` (when available) is the
    :class:`repro.sanitizer.core.SanitizeReport` listing every violation.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class InvalidStateError(DDError):
    """A vector that is not a valid quantum state was supplied or produced."""


class CircuitError(ReproError):
    """Error while building or manipulating a quantum circuit."""


class GateError(CircuitError):
    """An unknown gate was requested or a gate received bad arguments."""


class ParseError(ReproError):
    """Error while parsing an input file (OpenQASM or RevLib ``.real``)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class CircuitTooLargeError(ParseError):
    """The input declares or expands to more qubits or operations than the
    parser's size caps allow."""


class SimulationError(ReproError):
    """Error during circuit simulation (e.g. stepping past the end)."""


class VerificationError(ReproError):
    """Error during equivalence checking (e.g. mismatched qubit counts)."""


class VisualizationError(ReproError):
    """Error while rendering a decision diagram."""


class ServiceError(ReproError):
    """Error raised by the HTTP service layer (:mod:`repro.service`)."""


class BadRequestError(ServiceError):
    """A malformed service request (missing field, invalid value, bad JSON)."""


class NotFoundError(ServiceError):
    """The requested route or resource does not exist."""


class SessionNotFoundError(NotFoundError):
    """The referenced service session does not exist (or has expired)."""


class SessionLimitError(ServiceError):
    """The session store is full and nothing is evictable (backpressure)."""


class RequestTooLargeError(ServiceError):
    """The request body exceeds the configured size limit."""


class RateLimitedError(ServiceError):
    """The client exceeded the configured request rate."""


class JobTimeoutError(ServiceError):
    """A worker-pool job did not finish within the configured timeout."""


class ServiceUnavailableError(ServiceError):
    """The service is temporarily unable to take the request (try later).

    ``retry_after`` is the suggested back-off in seconds; the HTTP layer
    surfaces it as a ``Retry-After`` response header.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(message)


class TablePressureError(ServiceUnavailableError):
    """The DD tables are at their memory budget; the request was shed."""


class CampaignError(ReproError):
    """A campaign could not be planned, executed, or aggregated."""


class CampaignSpecError(CampaignError):
    """A campaign spec file is malformed or semantically invalid."""


class CampaignGateError(CampaignError):
    """A gated metric drifted beyond its tolerance versus the baseline."""
