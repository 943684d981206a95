"""Exception hierarchy for the MEMPHIS reproduction.

Every subsystem raises a subclass of :class:`MemphisError` so callers can
catch framework failures distinctly from programming errors.
"""

from __future__ import annotations


class MemphisError(Exception):
    """Base class for all framework errors."""


class CompilationError(MemphisError):
    """Raised when a program or DAG cannot be compiled."""


class VerificationError(CompilationError):
    """Raised by :meth:`~repro.compiler.ir.Hop.validate` on error-severity
    diagnostics (the in-session verifier reports, it never raises).

    ``report`` carries the full
    :class:`~repro.analysis.diagnostics.DiagnosticReport` (including
    warnings) for programmatic inspection.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class PlacementError(MemphisError):
    """Raised when no backend can execute an operator."""


class LineageError(MemphisError):
    """Raised on malformed lineage traces or failed (de)serialization."""


class AdmissionError(MemphisError):
    """Raised when the shared substrate refuses to admit a block.

    Multi-tenant admission control (``repro.server``): a block whose
    predicted peak footprint cannot fit the shared regions under the
    tenant's quota — even after evicting every cached byte — is
    refused before anything executes.  Carries the refusing region and
    the unsatisfied demand so a scheduler can requeue the request as
    backpressure instead of failing it.
    """

    def __init__(self, message: str, region: str | None = None,
                 tenant: str | None = None, demand: int = 0) -> None:
        super().__init__(message)
        self.region = region
        self.tenant = tenant
        self.demand = demand


class BackendError(MemphisError):
    """Base class for backend execution failures."""


class GpuError(BackendError):
    """Raised by the GPU backend simulator."""


class GpuOutOfMemoryError(GpuError):
    """Raised when an allocation cannot be served even after eviction."""

    def __init__(self, requested: int, free: int, largest_block: int) -> None:
        self.requested = requested
        self.free = free
        self.largest_block = largest_block
        super().__init__(
            f"GPU out of memory: requested {requested} bytes, "
            f"{free} free, largest contiguous block {largest_block}"
        )


class RecomputationError(LineageError):
    """Raised when a lineage trace cannot be replayed."""


class FaultInjectionError(MemphisError):
    """Raised when an injected fault exhausts its recovery budget.

    Chaos plans are normally sized within the retry budgets so every
    fault recovers; this error is the deliberate escape hatch for tests
    that assert the budgets themselves are enforced.
    """
