"""``engine`` — the column-store database substrate and the
session-scoped engine built on top of it.

The substrate (MonetDB stand-in) executes logical plans the way MonetDB
executes MAL: one vectorized operator at a time over whole columns,
materializing every intermediate, with embedded Python UDFs called
through a black-box bridge (:mod:`repro.engine.udf_bridge`): integer
columns cross zero-copy, decimal (money) columns pay a conversion pass,
and string/date columns convert element by element — the costs the
paper measures in Tables 2 and 4.

On top of it, :class:`~repro.engine.session.EngineSession` owns all
per-session runtime state (database, plan cache, tracer, metrics,
UDFs) and one instance of each of the four execution engines in
:data:`~repro.engine.backends.ENGINES`; the
:class:`~repro.core.context.QueryContext`
re-exported here is the object threaded explicitly through every
pipeline stage.
"""

from repro.core.context import QueryContext  # noqa: F401
from repro.engine.storage import Database  # noqa: F401
from repro.engine.table import ColumnTable  # noqa: F401
from repro.engine.executor import PlanExecutor  # noqa: F401
from repro.engine.backends import (  # noqa: F401
    ENGINES, Backend, CompilationUnit,
)
from repro.engine.session import CompiledQuery, EngineSession  # noqa: F401

__all__ = ["Database", "ColumnTable", "PlanExecutor", "QueryContext",
           "Backend", "CompilationUnit", "ENGINES", "EngineSession",
           "CompiledQuery"]
