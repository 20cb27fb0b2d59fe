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
    """Raised when the static corroboration gate (the ``check``
    argument, ``--check`` on the CLI) refuses to hand a module to the
    optimizer.

    Carries the :class:`repro.sanalysis.CheckReport` whose findings
    tripped the gate as :attr:`report`.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class LowerError(ReproError):
    """Raised when IR cannot be lowered back to machine code."""


class ReportError(ReproError):
    """Raised when an observability report or a pytest-benchmark file is
    not the JSON document it should be."""


class StoreError(ReproError):
    """Raised by the artifact store (:mod:`repro.store`) when its root is
    not a usable directory or an entry cannot be read or written; the
    message names the path.  An entry that reads but does not unpickle
    is not an error: it is counted as corrupt and recomputed."""


class ServeError(ReproError):
    """Raised by the recompilation service (:mod:`repro.serve`): a
    malformed request, a rejected job, or a transport failure between
    the client and the daemon."""


class SchedError(ReproError):
    """Raised by the serve daemon's job scheduler (:mod:`repro.sched`):
    submitting to a stopped scheduler, shutdown races, or a worker-pool
    failure that cannot be attributed to one job."""


class WorkerDied(SchedError):
    """The kind of a job whose scheduler worker process died while it
    ran the job; the scheduler respawns the worker."""


class JobTimeout(SchedError):
    """The kind of a job that ran past the scheduler's per-job
    wall-clock limit; the scheduler kills and respawns its worker."""


class SchedRejected(SchedError):
    """Raised when the scheduler's bounded job queue is full
    (backpressure).  :attr:`retry_after` is the server's estimate, in
    seconds, of when capacity frees up — clients should back off and
    resubmit."""

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class RemoteJobError(ServeError):
    """A job the daemon accepted failed while it executed, in process or
    inside a scheduler worker.  The original exception's class name
    travels as :attr:`remote_kind`, so both paths report it alike; the
    client raises this class for a response marked ``job_failed``."""

    def __init__(self, message: str, remote_kind: str = "RemoteJobError"):
        self.remote_kind = remote_kind
        super().__init__(message)


def job_failure(exc: Exception) -> tuple[str, str]:
    """The ``(kind, message)`` a daemon response carries for a job that
    failed with ``exc``: a :class:`ReproError`'s class name and message,
    and for any other exception :class:`ServeError` with the
    exception's class name leading the message, so every kind a
    response names is a class of this module."""
    if isinstance(exc, ReproError):
        return type(exc).__name__, str(exc)
    return ServeError.__name__, f"{type(exc).__name__}: {exc}"
