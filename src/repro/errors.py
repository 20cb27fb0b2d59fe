"""Exception hierarchy shared across the repro package.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch failures from the toolchain as a family, while still being able to
distinguish (say) an assembler bug from a lifting failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""


class AsmError(ReproError):
    """Raised when the assembler rejects an instruction or operand."""


class EncodingError(ReproError):
    """Raised when machine code cannot be encoded or decoded."""


class LinkError(ReproError):
    """Raised when a binary image cannot be linked or loaded."""


class EmulationError(ReproError):
    """Raised when the machine emulator hits an illegal state."""


class CompileError(ReproError):
    """Raised by the MiniC compiler on invalid source programs."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IRError(ReproError):
    """Raised when IR is malformed (verifier failures, bad builder use)."""


class InterpError(ReproError):
    """Raised when the IR interpreter hits an illegal state."""


class LiftError(ReproError):
    """Raised when a binary cannot be lifted to IR."""


class SymbolizeError(ReproError):
    """Raised when stack symbolization cannot be completed."""


class CheckError(ReproError):
    """Raised when a ``repro check`` / recompile run is asked to verify
    an image with no usable dynamic evidence (for example zero traced
    inputs): there is nothing to corroborate against, which is a user
    error, not a pipeline crash."""


class StaticCheckError(ReproError):
    """Raised when the static corroboration gate (``REPRO_CHECK``)
    refuses to hand a module to the optimizer.

    Carries the :class:`repro.sanalysis.CheckReport` whose findings
    tripped the gate as :attr:`report`.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class LowerError(ReproError):
    """Raised when IR cannot be lowered back to machine code."""


class WorkloadError(ReproError):
    """Raised when a workload program or its inputs are inconsistent."""


class ReportError(ReproError):
    """Raised when an observability report or a pytest-benchmark file is
    not the JSON document it should be."""


class ServeError(ReproError):
    """Raised by the recompilation service (:mod:`repro.serve`): a
    malformed request, a rejected job, or a transport failure between
    the client and the daemon."""


class SchedError(ReproError):
    """Raised by the serve daemon's job scheduler (:mod:`repro.sched`):
    submitting to a stopped scheduler, shutdown races, or a worker-pool
    failure that cannot be attributed to one job."""


class SchedRejected(SchedError):
    """Raised when the scheduler's bounded job queue is full
    (backpressure).  :attr:`retry_after` is the server's estimate, in
    seconds, of when capacity frees up — clients should back off and
    resubmit."""

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class RemoteJobError(ServeError):
    """A job failed inside a scheduler worker process.  The original
    exception's class name travels as :attr:`remote_kind` so the serve
    protocol can report it exactly as the in-process path would."""

    def __init__(self, message: str, remote_kind: str = "RemoteJobError"):
        self.remote_kind = remote_kind
        super().__init__(message)
