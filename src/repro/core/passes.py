"""The compilation pass pipeline (paper Section 3.4).

HorsePower's claim is that *one* optimizer working across the SQL/UDF
boundary beats two black-box stacks.  This module is that optimizer: a
table of named pass functions, a :class:`Pipeline` (an ordered list of
``(name, fn)`` entries with a cache-key fingerprint), one loop per
level, and :func:`optimize`.

* **Plan passes** — ``predicate-pushdown``, ``column-pruning`` and
  ``selectivity-reorder``, from :mod:`repro.sql.plan_passes` — are
  ``fn(plan, udfs, table_stats) -> plan``.  :func:`run_plan` applies
  them in order, untraced; :func:`repro.sql.planner.plan_query` calls
  it.
* **IR passes** are ``fn(method) -> bool`` (mutating the method and
  reporting a change), except ``inline``, the one module-level entry:
  ``fn(module, entry) -> (module, changed)``.  The order is the
  paper's: ``inline``, then ``simplify`` (constants, copies, CSE, list
  forwarding and dead code in one forward sweep and one backward
  slice), then ``join-predicate-motion`` and ``patterns``.
  :class:`PassManager` runs them and owns, for every application, the
  limits checkpoint, the timing and per-pass statistics, the
  ``pass:<name>`` tracer span, the optional re-verification
  (``--verify-ir``) and, after every pass, the optional IR snapshot
  (``--dump-ir``).

Three named presets map onto the historical opt levels:

========  ==========================================================
preset    passes
========  ==========================================================
``O0``    pushdown and pruning only (the ``"naive"`` profile:
          pushdown and pruning always ran, even for the baseline)
``O1``    ``O0`` + selectivity-reorder + inline + simplify
``O2``    ``O1`` + join predicate motion + pattern fusion rewrites
          (the full ``"opt"`` profile — the default)
========  ==========================================================

Every pass runs once per pipeline: ``simplify`` reaches its fixed point
in one application.  A custom ``--passes a,b,c`` list runs each named
pass once, in the given order; its fingerprint ``custom(a,b,c)`` keys
plan-cache entries distinctly from every preset.

Automatic loop fusion is *not* a pass here: segmentation's output is an
execution plan, not IR, so it stays in the compiler.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

from repro.core import ir
from repro.core.context import QueryContext
from repro.core.verify import verify_method, verify_module
from repro.errors import (HorseTypeError, HorseVerifyError,
                          OptimizerError, PassVerificationError)

__all__ = [
    "Pipeline", "PassManager", "PassStat", "OptimizeStats", "optimize",
    "run_plan", "resolve_pipeline", "preset", "custom_pipeline",
    "registered_pass_names", "PRESET_NAMES", "DEFAULT_DUMP_DIR",
]

#: Where ``--dump-ir`` writes when no directory is given.
DEFAULT_DUMP_DIR = "ir-dump"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass
class PassStat:
    """One IR pass's aggregate activity inside a single pipeline run.

    ``runs`` counts invocations (one per method for method-level
    passes), ``rewrites`` the invocations that changed
    anything, ``seconds`` the summed wall time."""

    name: str
    level: str
    runs: int = 0
    rewrites: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "level": self.level,
                "runs": self.runs, "rewrites": self.rewrites,
                "seconds": self.seconds}


@dataclass
class OptimizeStats:
    """What the pipeline did — surfaced by examples and benchmarks.

    ``rounds`` is 1 when ``simplify`` ran and 0 otherwise: one
    application reaches its fixed point.  ``pipeline`` is the
    fingerprint, ``pass_stats`` one row per IR pass."""

    rounds: int = 0
    inlined_methods_removed: int = 0
    passes_applied: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    pipeline: str = ""
    pass_stats: list[PassStat] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _typecheck(method: ir.Method) -> bool:
    # ``--passes typecheck``: full-depth verification run as a pass.
    # Method-level passes see no module, so cross-method calls check as
    # wildcards; the manager's verify hook passes the module and checks
    # them too.
    verify_method(method, None, full=True)
    return False


@functools.cache
def _registry() -> dict:
    """Pass name -> function, plan passes first, in canonical order.

    Imported lazily: :mod:`repro.core.optimizer` re-exports
    :func:`optimize` from this module, and :mod:`repro.sql` depends on
    :mod:`repro.core`, never the other way round at import time."""
    from repro.core.optimizer.inline import inline_pass
    from repro.core.optimizer.join_motion import move_join_predicates
    from repro.core.optimizer.patterns import apply_patterns
    from repro.core.optimizer.simplify import simplify
    from repro.sql.plan_passes import (prune_columns, push_predicates,
                                       reorder_by_selectivity)

    return {
        "predicate-pushdown": push_predicates,
        "column-pruning": prune_columns,
        "selectivity-reorder": reorder_by_selectivity,
        "inline": inline_pass,
        "simplify": simplify,
        "join-predicate-motion": move_join_predicates,
        "patterns": apply_patterns,
        "typecheck": _typecheck,
    }


#: The plan-level names; every other entry rewrites HorseIR.
_PLAN_PASS_NAMES = frozenset({"predicate-pushdown", "column-pruning",
                              "selectivity-reorder"})

#: The one IR pass that rewrites the whole module (inlining rewrites the
#: method table itself); every other IR pass rewrites one method.
_MODULE_PASS_NAME = "inline"

#: The presets' pass lists.  ``selectivity-reorder`` rides only at
#: O1/O2 (it is pointless without the optimizer) and no-ops until
#: statistics exist.
_PRESETS = {
    "O0": ("predicate-pushdown", "column-pruning"),
    "O1": ("predicate-pushdown", "column-pruning", "selectivity-reorder",
           "inline", "simplify"),
    "O2": ("predicate-pushdown", "column-pruning", "selectivity-reorder",
           "inline", "simplify", "join-predicate-motion", "patterns"),
}

PRESET_NAMES = tuple(_PRESETS)


def registered_pass_names() -> tuple[str, ...]:
    """Every name ``--passes`` accepts, in canonical order."""
    return tuple(_registry())


def _entries(names) -> list[tuple]:
    registry = _registry()
    for name in names:
        if name not in registry:
            known = ", ".join(registry)
            raise OptimizerError(
                f"unknown pass {name!r}; registered passes: {known}")
    return [(name, registry[name]) for name in names]


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

class Pipeline:
    """An ordered, immutable list of ``(name, fn)`` pass entries with a
    stable cache-key fingerprint.

    Presets fingerprint as their name (``"O2"``); ad-hoc lists as
    ``custom(<names>)`` — so ``--passes`` variants can never collide
    with preset plan-cache entries.  An entry's level follows from its
    name: the registered plan pass names run on the plan, everything
    else on the IR (a test's fake pass is a method pass)."""

    def __init__(self, name: str, passes, *, is_preset: bool = False):
        self.name = name
        self.passes = tuple(passes)
        self.is_preset = is_preset
        self.plan_passes = tuple(e for e in self.passes
                                 if e[0] in _PLAN_PASS_NAMES)
        self.ir_passes = tuple(e for e in self.passes
                               if e[0] not in _PLAN_PASS_NAMES)

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.passes]

    def fingerprint(self) -> str:
        if self.is_preset:
            return self.name
        return "custom(" + ",".join(self.names) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Pipeline {self.fingerprint()} "
                f"[{', '.join(self.names)}]>")


def preset(name: str) -> Pipeline:
    """One of the named presets.  Presets are immutable, so every call
    for a name returns the same instance."""
    if name not in _PRESETS:
        raise OptimizerError(
            f"unknown pipeline preset {name!r}; "
            f"known: {', '.join(PRESET_NAMES)}")
    return _build_preset(name)


@functools.cache
def _build_preset(name: str) -> Pipeline:
    return Pipeline(name, _entries(_PRESETS[name]), is_preset=True)


def custom_pipeline(names) -> Pipeline:
    """An ad-hoc pipeline running each named pass once, in order."""
    names = [str(n).strip() for n in names if str(n).strip()]
    if not names:
        raise OptimizerError("empty pass list")
    return Pipeline("custom", _entries(names))


def resolve_pipeline(spec, opt_level: str = "opt") -> Pipeline:
    """Normalize a pipeline spec to a :class:`Pipeline`.

    ``None`` maps the historical opt levels onto presets (``"opt"`` →
    ``O2``, ``"naive"`` → ``O0``); a preset name returns that preset; a
    comma-separated string or a list of names builds a custom
    pipeline; a :class:`Pipeline` passes through.  Resolve once per
    compilation and hand the result on: every stage accepts it."""
    if spec is None:
        return preset("O2" if opt_level == "opt" else "O0")
    if isinstance(spec, Pipeline):
        return spec
    if isinstance(spec, (list, tuple)):
        return custom_pipeline(spec)
    text = str(spec).strip()
    if text in _PRESETS:
        return preset(text)
    return custom_pipeline(text.split(","))


# ---------------------------------------------------------------------------
# the plan level
# ---------------------------------------------------------------------------

def run_plan(pipeline: Pipeline, plan, udfs=None, table_stats=None):
    """Apply ``pipeline``'s plan passes to ``plan``, in order.

    ``table_stats`` is the session's :class:`~repro.stats.StatsStore`
    (or ``None``); only ``selectivity-reorder`` reads it, and it returns
    the plan unchanged without statistics.  Plan passes are untraced:
    the EXPLAIN ANALYZE goldens pin the ``plan`` span childless."""
    for _, fn in pipeline.plan_passes:
        plan = fn(plan, udfs, table_stats)
    return plan


# ---------------------------------------------------------------------------
# the IR level
# ---------------------------------------------------------------------------

class PassManager:
    """Runs one :class:`Pipeline`'s IR passes over a module.

    One instance serves one compilation.  ``verify=True`` verifies the
    input module and re-verifies after every pass application at
    :mod:`repro.core.verify`'s full depth, with
    :exc:`~repro.errors.PassVerificationError` naming the offending
    pass and statement.  A method stays in :attr:`verified` until an
    application reports a change to it, so every state is verified
    once; ``dump_dir`` writes numbered IR snapshots before the first
    pass and after every pass via the existing printer."""

    def __init__(self, pipeline: Pipeline, *, verify: bool = False,
                 dump_dir: str | None = None):
        self.pipeline = pipeline
        self.verify = verify
        self.dump_dir = dump_dir
        self._dump_seq = 0
        #: Names of the methods that passed full-depth verification in
        #: their current state.
        self.verified: set[str] = set()

    def run_module(self, module: ir.Module, ctx: QueryContext, *,
                   entry: str | None = None) \
            -> tuple[ir.Module, OptimizeStats]:
        """Apply the pipeline's IR passes; returns ``(module, stats)``.

        ``ctx`` is the compilation's
        :class:`~repro.core.context.QueryContext`: per-pass spans go to
        its tracer and every application checks its limits."""
        stats = OptimizeStats(pipeline=self.pipeline.fingerprint())
        rows: dict[str, PassStat] = {}
        start = time.perf_counter()
        self._verify("input", module)
        self._dump_module(module, "input")
        for name, fn in self.pipeline.ir_passes:
            if name == _MODULE_PASS_NAME:
                module = self._apply(name, fn, module, None, entry,
                                     stats, rows, ctx)
            else:
                for method in module.methods.values():
                    self._apply(name, fn, module, method, entry, stats,
                                rows, ctx)
            if name == "simplify":
                stats.rounds = 1
            self._dump_module(module, name)
        stats.elapsed_seconds = time.perf_counter() - start
        return module, stats

    def _apply(self, name, fn, module, method, entry, stats, rows,
               ctx) -> ir.Module:
        """One application of pass ``name``: to ``method``, or to the
        whole module when ``method`` is None.  Returns the module."""
        if ctx.limits is not None:
            ctx.limits.check(f"pass:{name}")
        tracer = ctx.tracer
        start = time.perf_counter()
        if method is None:
            before = len(module.methods)
            with tracer.span(f"pass:{name}", methods_before=before):
                module, changed = fn(module, entry)
            stats.inlined_methods_removed = before - len(module.methods)
        elif not tracer.enabled:
            changed = fn(method)
        else:
            with tracer.span(f"pass:{name}", method=method.name) as span:
                before = _count_statements(method.body)
                changed = fn(method)
                span.set(stmts_before=before,
                         stmts_after=_count_statements(method.body),
                         changed=changed)
        elapsed = time.perf_counter() - start
        row = rows.get(name)
        if row is None:
            row = rows[name] = PassStat(
                name, "module" if method is None else "method")
            stats.pass_stats.append(row)
        row.runs += 1
        row.seconds += elapsed
        if changed:
            row.rewrites += 1
            if name not in stats.passes_applied:
                stats.passes_applied.append(name)
            # A module rewrite splices across methods: forget every
            # verdict.
            if method is None:
                self.verified.clear()
            else:
                self.verified.discard(method.name)
        self._verify(name, module, method)
        return module

    def _verify(self, pass_name, module, method=None) -> None:
        """``verify=True``: check ``method`` (every method of
        ``module`` when None) at full depth, once per state: a method
        in :attr:`verified` stays there until an application reports a
        change."""
        if not self.verify:
            return
        methods = module.methods.values() if method is None else (method,)
        try:
            if not module.methods:
                verify_module(module, full=True)  # raises: no methods
            for each in methods:
                if each.name not in self.verified:
                    verify_method(each, module, full=True)
                    self.verified.add(each.name)
        except (HorseVerifyError, HorseTypeError) as exc:
            raise PassVerificationError(
                pass_name, str(exc),
                method=method.name if method else None) from exc

    def _dump_module(self, module, label: str) -> None:
        if not self.dump_dir:
            return
        from repro.core.printer import print_module
        os.makedirs(self.dump_dir, exist_ok=True)
        safe = label.replace("/", "_")
        path = os.path.join(self.dump_dir,
                            f"{self._dump_seq:03d}-{safe}.hir")
        with open(path, "w") as handle:
            handle.write(print_module(module))
            handle.write("\n")
        self._dump_seq += 1


def _count_statements(body: list[ir.Stmt]) -> int:
    """Statements in a method body, descending into control flow."""
    return sum(1 for _ in ir.walk_body(body))


def optimize(module: ir.Module, *, entry: str | None = None,
             ctx: QueryContext | None = None, pipeline=None,
             verify_ir: bool = False, dump_ir: str | None = None) \
        -> tuple[ir.Module, OptimizeStats]:
    """Optimize ``module``; returns a new module and pass statistics.

    ``ctx`` names where per-pass spans go (``ctx.tracer``) and the
    checkpoint surface checked once per pass application so a deadline
    can cancel a pathological optimization (``ctx.limits``); without one
    the run is untraced and unlimited.

    ``pipeline`` overrides the ``O2`` preset (a name, a comma list of
    pass names, or a :class:`Pipeline`).  ``verify_ir=True`` re-verifies
    the IR after every pass
    (:class:`~repro.errors.PassVerificationError` on failure);
    ``dump_ir`` names a directory for per-pass IR snapshots."""
    if ctx is None:
        ctx = QueryContext()
    manager = PassManager(resolve_pipeline(pipeline), verify=verify_ir,
                          dump_dir=dump_ir)
    return manager.run_module(module, ctx, entry=entry)
