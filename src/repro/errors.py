"""Exception hierarchy for the HorsePower reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class HorseIRError(ReproError):
    """Base class for errors in the HorseIR core (types, IR, compiler)."""


class HorseTypeError(HorseIRError):
    """A HorseIR value or expression has an unexpected type — at
    runtime, or found by :func:`repro.core.verify.verify_module` at
    ``full=True`` (strict type/shape inference)."""


class HorseSyntaxError(HorseIRError):
    """Textual HorseIR failed to parse."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class HorseVerifyError(HorseIRError):
    """A HorseIR module violates a structural invariant
    (:mod:`repro.core.verify`, either depth)."""


class HorseRuntimeError(HorseIRError):
    """A HorseIR program failed while executing."""


class BuiltinError(HorseIRError):
    """A built-in function was called with invalid arguments."""


class OptimizerError(HorseIRError):
    """An optimization pass produced or encountered invalid IR."""


class PassVerificationError(OptimizerError):
    """Inter-pass IR verification failed (``--verify-ir`` mode).

    Raised by the :class:`~repro.core.passes.PassManager` when
    :mod:`repro.core.verify` at full depth rejects the module a pass
    just produced, for its structure or its types.  ``pass_name`` is
    the offending pass
    (``"input"`` when the module was malformed before the first pass
    ran), ``method`` the method it broke (None for module-level
    failures), and ``detail`` the verifier's own message, which names
    the offending statement."""

    def __init__(self, pass_name: str, detail: str,
                 method: str | None = None):
        where = f" in method {method!r}" if method else ""
        super().__init__(
            f"IR verification failed after pass {pass_name!r}{where}: "
            f"{detail}")
        self.pass_name = pass_name
        self.method = method
        self.detail = detail


class CodegenError(HorseIRError):
    """Kernel code generation failed."""


class SQLError(ReproError):
    """Base class for SQL frontend errors."""


class SQLSyntaxError(SQLError):
    """SQL text failed to parse."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PlanError(SQLError):
    """Logical planning or plan translation failed."""


class CatalogError(SQLError):
    """Unknown table or column, or inconsistent schema."""


class MatlangError(ReproError):
    """Base class for MATLAB-subset frontend errors."""


class MatlangSyntaxError(MatlangError):
    """MATLAB-subset source failed to parse."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class MatlangTypeError(MatlangError):
    """Tamer type/shape inference failed or found an inconsistency."""


class MatlangRuntimeError(MatlangError):
    """The MATLAB-subset interpreter failed while executing."""


class QueryLimitError(ReproError):
    """Base class for a query stopped by its own limits.

    Raised at a checkpoint or charge point when the query's
    :class:`~repro.core.limits.QueryLimits` say it must stop.
    Deliberately *not* under :class:`HorseIRError`: a limit describes
    what the caller allowed, not a program failure, and the session's
    graceful-degradation retry must never retry it on a fallback
    backend.

    ``refusal`` is the machine-readable refusal class each subclass
    declares — the ``outcome`` field of a query-log record
    (``"timeout"``, ``"memory_budget"``, ``"cancelled"``), stable
    across message wording changes.
    """

    refusal = "refused"


class QueryTimeout(QueryLimitError):
    """A query ran past its deadline and was cancelled cooperatively
    at the next checkpoint (chunk boundary, interpreter statement, or
    optimizer pass)."""

    refusal = "timeout"


class QueryCancelled(QueryLimitError):
    """A query was cancelled explicitly via
    :meth:`~repro.core.limits.QueryLimits.cancel`."""

    refusal = "cancelled"


class MemoryBudgetExceeded(QueryLimitError):
    """A query materialized more bytes than its memory budget allows
    (enforced at the allocation-profiler charge points)."""

    refusal = "memory_budget"


class EngineError(ReproError):
    """Base class for column-store engine errors."""


class StorageError(EngineError):
    """Table storage or CSV I/O failed."""


class ExecutorError(EngineError):
    """The baseline plan executor failed."""


class UDFError(EngineError):
    """A user-defined function failed or was mis-declared."""
