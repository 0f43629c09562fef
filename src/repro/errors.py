"""Exception hierarchy for the :mod:`repro` package.

All errors raised by library code derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or malformed graph inputs."""


class GraphFormatError(GraphError):
    """Raised when parsing an external graph format (e.g. Matrix Market) fails."""


class MatchingError(ReproError):
    """Raised for invalid matchings or misuse of matching routines."""


class VerificationError(MatchingError):
    """Raised when a matching fails a validity or optimality check."""


class MachineConfigError(ReproError):
    """Raised for inconsistent simulated-machine specifications."""


class SchedulerError(ReproError):
    """Raised when work cannot be partitioned as requested."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for misconfigured experiments."""


class AnalysisError(ReproError):
    """Raised by the dynamic/static analysis tooling in :mod:`repro.analysis`."""


class ServiceError(ReproError):
    """Raised by the batch job-execution service in :mod:`repro.service`."""


class TelemetryError(ReproError):
    """Raised by the telemetry subsystem (:mod:`repro.telemetry`).

    Covers span-stack misuse (ending a span that is not open), metric
    registration conflicts (one name, two types), invalid Prometheus
    names/labels, and exposition text that fails the lint pass.
    """


class DeadlineExceeded(ServiceError):
    """Raised when a run's cooperative deadline expires.

    The engines check the deadline at phase boundaries (a *soft* timeout):
    the run is abandoned at the next boundary after expiry, never mid-kernel,
    so state teardown is always clean. Not a transient condition — retrying
    the same job under the same deadline would time out again.
    """


class TransientEngineError(ServiceError):
    """A backend failure worth retrying (and, failing that, degrading).

    Raised by the service's fault injection (``flaky-engine``) and available
    to engine wrappers for genuinely transient conditions (e.g. resource
    exhaustion that backoff can outwait). The retry policy treats exactly
    this type as retryable; every other failure is permanent for the
    attempted engine.
    """


class CacheError(ReproError):
    """Raised by the content-addressed graph cache (:mod:`repro.cache`)."""


class CacheCorruptionError(CacheError):
    """A cache entry failed an integrity check (size, checksum, or header).

    Lookups treat this as a miss and rebuild; it only escapes to callers of
    the explicit ``verify`` API.
    """


class InvariantViolation(AnalysisError):
    """Raised when a runtime invariant of the matching engine is broken.

    Unlike plain ``assert`` (which vanishes under ``python -O``), these
    checks always run when requested; the interleaved engine's race
    tooling relies on them to catch state corruption from injected faults.
    """
