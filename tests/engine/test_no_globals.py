"""Guard: the session refactor removed process-global mutable state
from the engine; this test fails if any module re-grows it.

The refactor moved every piece of per-query runtime state (metric
instruments, cache counters, tracer lookups, engine instances) into
instances owned by an ``EngineSession``.  A module-level counter or
flag silently reintroduces cross-session bleed, so the allowlist below
is the *complete* set of deliberate module-level state — anything else
at module scope that is mutable fails the build.  What remains is the
span contextvar and the stateless null objects; constant tables of
immutable values (such as the name → class table of the engines) are
benign.
"""

import __future__
import importlib
import logging
import pkgutil
import re
import types

from repro.obs.prof import NullAllocationProfile
from repro.obs.tracer import NullTracer

#: Modules whose globals are audited: the plan-cache package, the
#: observability package, the statistics and static-analysis packages,
#: the context, limits, session and backend modules — the places
#: process-global state used to live or where caches could quietly
#: become process-wide.
AUDITED_ROOTS = ["repro.horsepower", "repro.obs", "repro.stats",
                 "repro.core.analysis"]
AUDITED_MODULES = ["repro.core.context", "repro.core.limits",
                   "repro.engine.session", "repro.engine.backends"]

#: Deliberate module-level state, documented at each definition site.
#: New entries need the same justification: never state a query
#: writes its spans, charges or counters to.
ALLOWLIST = {
    # The contextvar threading spans through nested calls.
    ("repro.obs.tracer", "_current_span"),
    ("repro.obs.tracer", "_NULL_SPAN"),
    ("repro.obs.tracer", "NULL_TRACER"),
}

#: Types that cannot hold cross-query mutable state.  ``NullTracer``
#: and ``NullAllocationProfile`` are stateless no-op singletons
#: (``__slots__ = ()``, class-level constants only);
#: ``__future__._Feature`` is the ``from __future__ import
#: annotations`` artifact.
IMMUTABLE_TYPES = (str, bytes, int, float, bool, complex, tuple,
                   frozenset, type(None), types.ModuleType,
                   types.FunctionType, types.BuiltinFunctionType,
                   type, re.Pattern, logging.Logger, NullTracer,
                   NullAllocationProfile, __future__._Feature)


def audited_modules():
    names = list(AUDITED_MODULES)
    for root in AUDITED_ROOTS:
        package = importlib.import_module(root)
        names.append(root)
        for info in pkgutil.iter_modules(package.__path__,
                                         prefix=root + "."):
            names.append(info.name)
    return sorted(set(names))


def is_benign(value) -> bool:
    if isinstance(value, IMMUTABLE_TYPES):
        return True
    if type(value) is object:  # attribute-less sentinel
        return True
    # Constant lookup tables of immutable values (e.g. name → factory
    # maps) are fine; anything nested-mutable is not.
    if isinstance(value, dict):
        return all(isinstance(k, (str, int)) and is_benign(v)
                   for k, v in value.items())
    if isinstance(value, (list, set)):
        return all(is_benign(item) for item in value)
    return False


def test_no_module_level_mutable_state():
    offenders = []
    for module_name in audited_modules():
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if (module_name, name) in ALLOWLIST:
                continue
            if is_benign(value):
                continue
            offenders.append(
                f"{module_name}.{name} = {type(value).__name__}")
    assert not offenders, (
        "module-level mutable state found (move it into EngineSession "
        "or allowlist it with a written justification):\n  "
        + "\n  ".join(offenders))


def test_telemetry_module_is_audited():
    """The query-log module rides under the ``repro.obs`` package root,
    so the audit above covers it automatically — this guard fails if it
    is ever moved out from under an audited root."""
    assert "repro.obs.telemetry" in audited_modules()


def test_telemetry_state_is_session_owned():
    """Two sessions never share a query log they built or a query-id
    sequence: each hands out ids 1, 2, ... through ``run_sql``."""
    import io
    import json

    import numpy as np

    from repro.engine import EngineSession
    from repro.engine.storage import Database

    db = Database()
    db.create_table("t", {"x": np.arange(4, dtype=np.float64)})
    sinks = io.StringIO(), io.StringIO()
    with EngineSession(db, query_log=sinks[0]) as one, \
            EngineSession(db, query_log=sinks[1]) as two:
        assert one.query_log is not two.query_log
        for session in (one, two, one, two, two):
            session.run_sql("SELECT SUM(x) AS s FROM t")
    ids = [[json.loads(line)["query_id"]
            for line in sink.getvalue().splitlines()] for sink in sinks]
    assert ids == [[1, 2], [1, 2, 3]]


def test_allowlist_matches_reality():
    """Every allowlisted name still exists — a stale allowlist entry
    means the global was removed and the entry must go too."""
    for module_name, attr in ALLOWLIST:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), (module_name, attr)


def test_default_context_is_null_and_private():
    """``QueryContext()`` carries the stateless null objects, no
    limits and a registry no other object holds."""
    from repro.core.context import QueryContext
    from repro.obs import NULL_PROFILE, NULL_TRACER

    one, two = QueryContext(), QueryContext()
    for ctx in (one, two):
        assert ctx.tracer is NULL_TRACER
        assert ctx.profile is NULL_PROFILE
        assert ctx.limits is None
        assert ctx.session is None
    assert one.metrics is not two.metrics
    one.metrics.counter("x").inc()
    assert "x" not in two.metrics.snapshot()


def test_ctxless_compile_and_run_record_nothing_anywhere():
    """``ctx=None`` at the public entry points means untraced,
    unprofiled, private counters: a live session's tracer, profile
    and registry are exactly as they were after a ctx-less
    ``compile_module(m).run(...)`` next to it."""
    import numpy as np

    from repro.core.compiler import compile_module
    from repro.core.parser import parse_module
    from repro.core.values import from_numpy
    from repro.engine import EngineSession
    from repro.obs import (NULL_PROFILE, NULL_TRACER, AllocationProfile,
                           Tracer)

    module = parse_module("""
    module M {
        def main(x:f64): f64 {
            a:f64 = @mul(x, 2.0:f64);
            b:f64 = @add(a, 1.0:f64);
            return b;
        }
    }
    """)
    tracer, profile = Tracer(), AllocationProfile()
    with EngineSession(tracer=tracer, profile=profile) as session:
        before = session.metrics.snapshot()
        result = compile_module(module).run(
            args=[from_numpy(np.arange(4, dtype=np.float64))])
        np.testing.assert_array_equal(result.data, [1.0, 3.0, 5.0, 7.0])
        assert session.metrics.snapshot() == before
    assert tracer.roots == []
    assert profile.bytes_allocated == 0
    assert NULL_TRACER.all_spans() == []
    assert NULL_PROFILE.bytes_allocated == 0
