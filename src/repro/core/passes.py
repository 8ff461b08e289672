"""The unified compilation pass pipeline (paper Section 3.4).

HorsePower's claim is that *one* optimizer working across the SQL/UDF
boundary beats two black-box stacks.  This module is that one
optimizer's skeleton: a :class:`Pass` protocol, a :class:`Pipeline`
(an ordered pass list with a cache-key fingerprint), and a
:class:`PassManager` that owns ordering, per-pass timing/rewrite
statistics, per-pass tracer spans, optional inter-pass
verification (``--verify-ir``), and optional IR dumps
(``--dump-ir``).  Both of the historical pipelines run on it:

* the HorseIR rewrites — ``inline``, then ``simplify`` (constants,
  copies, CSE, list forwarding and dead code in one forward sweep and
  one backward slice), then ``join-predicate-motion`` and ``patterns``
  (plus a silent post-pattern dead-code sweep) — via
  :meth:`PassManager.run_module`, which
  :func:`repro.core.optimizer.pipeline.optimize` delegates to;
* the SQL plan rewrites — ``predicate-pushdown`` and
  ``column-pruning``, extracted from :mod:`repro.sql.planner` — via
  :meth:`PassManager.run_plan`, invoked by
  :func:`repro.sql.planner.plan_query`.

Three named presets map onto the historical opt levels:

========  ==========================================================
preset    passes
========  ==========================================================
``O0``    plan passes only (the ``"naive"`` profile: pushdown and
          pruning always ran, even for the baseline system)
``O1``    ``O0`` + inline + simplify
``O2``    ``O1`` + join predicate motion + pattern fusion rewrites +
          cleanup DCE (the full ``"opt"`` profile — the default)
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
from repro.core.verify import verify_method, verify_module
from repro.errors import (HorseTypeError, HorseVerifyError,
                          OptimizerError, PassVerificationError)

__all__ = [
    "Pass", "MethodPass", "ModulePass", "PlanPass", "StatsPlanPass",
    "Pipeline",
    "PassManager", "PassStat", "OptimizeStats", "resolve_pipeline",
    "preset", "custom_pipeline", "registered_pass_names",
    "PRESET_NAMES", "DEFAULT_DUMP_DIR",
]

PRESET_NAMES = ("O0", "O1", "O2")

#: Where ``--dump-ir`` writes when no directory is given.
DEFAULT_DUMP_DIR = "ir-dump"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass
class PassStat:
    """One pass's aggregate activity inside a single pipeline run.

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
    fingerprint, ``pass_stats`` one row per recorded pass."""

    rounds: int = 0
    inlined_methods_removed: int = 0
    passes_applied: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    pipeline: str = ""
    pass_stats: list[PassStat] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the Pass protocol
# ---------------------------------------------------------------------------

class Pass:
    """One rewrite rule as a first-class object.

    ``level`` names the unit ``run`` consumes: ``"plan"`` (a logical
    plan tree — returns the rewritten tree), ``"module"`` (a whole
    :class:`~repro.core.ir.Module` — returns the rewritten module) or
    ``"method"`` (one method, mutated in place — returns whether
    anything changed).
    """

    level: str = "method"
    #: Emit a ``pass:<name>`` tracer span per application.
    traced: bool = True
    #: Record activity in ``OptimizeStats`` (False for internal
    #: cleanup sweeps, which stay invisible, as they always were).
    records: bool = True
    #: Cooperative-cancellation checkpoint before each application.
    checkpoint: bool = True

    def __init__(self, name: str):
        self.name = name

    def run(self, unit, ctx):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class MethodPass(Pass):
    """A per-method rewrite: ``fn(method) -> bool`` (mutating)."""

    level = "method"

    def __init__(self, name: str, fn, *, traced: bool = True,
                 records: bool = True, checkpoint: bool = True):
        super().__init__(name)
        self.fn = fn
        self.traced = traced
        self.records = records
        self.checkpoint = checkpoint

    def run(self, method: ir.Method, ctx=None) -> bool:
        return self.fn(method)


class ModulePass(Pass):
    """A whole-module rewrite: ``fn(module, entry) -> (module,
    changed)``."""

    level = "module"

    def __init__(self, name: str, fn):
        super().__init__(name)
        self.fn = fn

    def run(self, module: ir.Module, ctx=None) \
            -> tuple[ir.Module, bool]:
        entry = getattr(ctx, "entry", None) if ctx is not None else None
        return self.fn(module, entry)


class PlanPass(Pass):
    """A logical-plan rewrite: ``fn(plan, udfs) -> plan``.

    Plan passes are untraced by default: the historical planner emitted
    no per-rule spans, and the EXPLAIN ANALYZE goldens pin the ``plan``
    span childless.  Their timing still lands in the manager's
    :class:`PassStat` rows."""

    level = "plan"
    traced = False
    checkpoint = False

    def __init__(self, name: str, fn):
        super().__init__(name)
        self.fn = fn

    def run(self, plan, ctx=None):
        udfs = getattr(ctx, "udfs", None) if ctx is not None else None
        return self.fn(plan, udfs)


class StatsPlanPass(PlanPass):
    """A statistics-driven plan rewrite: ``fn(plan, udfs, stats) ->
    plan``.

    The extra argument is the session's
    :class:`~repro.stats.StatsStore` (or ``None``); the pass contract
    requires returning the plan *unchanged* when no statistics exist,
    so presets that include a stats pass behave identically to the
    stats-free pipeline until the first ``ANALYZE``."""

    def run(self, plan, ctx=None):
        udfs = getattr(ctx, "udfs", None) if ctx is not None else None
        table_stats = getattr(ctx, "table_stats", None) \
            if ctx is not None else None
        return self.fn(plan, udfs, table_stats)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _typecheck_pass_fn(method: ir.Method) -> bool:
    # ``--passes typecheck``: full-depth verification run as a pass.
    # Method-level passes see no module, so cross-method calls check as
    # wildcards; the manager's verify hook passes the module and checks
    # them too.
    verify_method(method, None, full=True)
    return False


def _make_ir_pass(name: str) -> Pass:
    # Imported lazily: repro.core.optimizer.* → optimizer/__init__ →
    # pipeline.py, which imports this module at its top.
    from repro.core.optimizer.inline import inline_pass
    from repro.core.optimizer.join_motion import move_join_predicates
    from repro.core.optimizer.patterns import apply_patterns
    from repro.core.optimizer.simplify import simplify

    if name == "inline":
        return ModulePass("inline", inline_pass)
    fns = {
        "simplify": simplify,
        "join-predicate-motion": move_join_predicates,
        "patterns": apply_patterns,
        "typecheck": _typecheck_pass_fn,
    }
    return MethodPass(name, fns[name])


def _make_plan_pass(name: str) -> Pass:
    # Lazy for the same reason in the other direction: repro.sql
    # depends on repro.core, never vice versa at import time.
    from repro.sql.plan_passes import (prune_columns, push_predicates,
                                       reorder_by_selectivity)

    if name == "selectivity-reorder":
        return StatsPlanPass(name, reorder_by_selectivity)
    fns = {
        "predicate-pushdown": push_predicates,
        "column-pruning": prune_columns,
    }
    return PlanPass(name, fns[name])


#: Plan-level pass names, in the order every pipeline applies them.
#: ``selectivity-reorder`` is the odd one out: presets include it only
#: at O1/O2 (it is pointless without the optimizer) and it no-ops
#: until statistics exist.
_PLAN_PASS_NAMES = ("predicate-pushdown", "column-pruning",
                    "selectivity-reorder")

_IR_PASS_NAMES = ("inline", "simplify", "join-predicate-motion",
                  "patterns", "typecheck")


def registered_pass_names() -> tuple[str, ...]:
    """Every name ``--passes`` accepts, in canonical order."""
    return _PLAN_PASS_NAMES + _IR_PASS_NAMES


def _make_pass(name: str) -> Pass:
    if name in _PLAN_PASS_NAMES:
        return _make_plan_pass(name)
    if name in _IR_PASS_NAMES:
        return _make_ir_pass(name)
    known = ", ".join(registered_pass_names())
    raise OptimizerError(
        f"unknown pass {name!r}; registered passes: {known}")


def _cleanup_dce_pass() -> Pass:
    """The silent post-pattern sweep: pattern rewrites can orphan mask
    definitions.  Untraced, unrecorded, uncheckpointed — exactly as the
    historical pipeline ran it."""
    from repro.core.optimizer.simplify import eliminate_dead_code

    return MethodPass("dce", eliminate_dead_code, traced=False,
                      records=False, checkpoint=False)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

class Pipeline:
    """An ordered, immutable pass list with a stable cache-key
    fingerprint.

    Presets fingerprint as their name (``"O2"``); ad-hoc lists as
    ``custom(<names>)`` — so ``--passes`` variants can never collide
    with preset plan-cache entries."""

    def __init__(self, name: str, passes, *, is_preset: bool = False):
        self.name = name
        self.passes = tuple(passes)
        self.is_preset = is_preset

    @property
    def plan_passes(self) -> list[Pass]:
        return [p for p in self.passes if p.level == "plan"]

    @property
    def ir_passes(self) -> list[Pass]:
        return [p for p in self.passes if p.level != "plan"]

    def fingerprint(self) -> str:
        if self.is_preset:
            return self.name
        return "custom(" + ",".join(p.name for p in self.passes) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Pipeline {self.fingerprint()} "
                f"[{', '.join(p.name for p in self.passes)}]>")


def preset(name: str) -> Pipeline:
    """One of the named presets.  Presets are immutable, so every call
    for a name returns the same instance."""
    if name not in PRESET_NAMES:
        raise OptimizerError(
            f"unknown pipeline preset {name!r}; "
            f"known: {', '.join(PRESET_NAMES)}")
    return _build_preset(name)


@functools.lru_cache(maxsize=None)
def _build_preset(name: str) -> Pipeline:
    passes = [_make_plan_pass(n) for n in _PLAN_PASS_NAMES
              if name in ("O1", "O2") or n != "selectivity-reorder"]
    if name in ("O1", "O2"):
        passes.append(_make_ir_pass("inline"))
        passes.append(_make_ir_pass("simplify"))
    if name == "O2":
        passes.append(_make_ir_pass("join-predicate-motion"))
        passes.append(_make_ir_pass("patterns"))
        passes.append(_cleanup_dce_pass())
    return Pipeline(name, passes, is_preset=True)


def custom_pipeline(names) -> Pipeline:
    """An ad-hoc pipeline running each named pass once, in order."""
    names = [str(n).strip() for n in names if str(n).strip()]
    if not names:
        raise OptimizerError("empty pass list")
    passes = [_make_pass(n) for n in names]
    return Pipeline("custom", passes)


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
    if text in PRESET_NAMES:
        return preset(text)
    return custom_pipeline(text.split(","))


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------

class _PassContext:
    """What a pass application sees (the manager's slice of the query
    context, kept tiny so passes stay functions)."""

    __slots__ = ("entry", "udfs", "table_stats")

    def __init__(self, entry=None, udfs=None, table_stats=None):
        self.entry = entry
        self.udfs = udfs
        self.table_stats = table_stats


class PassManager:
    """Runs one :class:`Pipeline` over a plan and/or a module.

    One instance serves one compilation: ``run_plan`` during planning,
    ``run_module`` during optimization.  ``verify=True`` verifies the
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
        #: Per-pass stats rows, keyed by pass name (insertion-ordered).
        self._stats_index: dict[str, PassStat] = {}

    # -- plan side -----------------------------------------------------------

    def run_plan(self, plan, *, udfs=None, table_stats=None,
                 stats: OptimizeStats | None = None):
        """Apply the pipeline's plan-level passes to ``plan``.

        ``table_stats`` is the session's
        :class:`~repro.stats.StatsStore` (or ``None``); only
        statistics-driven passes read it."""
        pctx = _PassContext(udfs=udfs, table_stats=table_stats)
        for ps in self.pipeline.plan_passes:
            start = time.perf_counter()
            plan = ps.run(plan, pctx)
            self._record(stats, ps, True, time.perf_counter() - start)
        return plan

    # -- IR side -------------------------------------------------------------

    def run_module(self, module: ir.Module, ctx, *,
                   entry: str | None = None) \
            -> tuple[ir.Module, OptimizeStats]:
        """Apply the pipeline's IR passes; returns ``(module, stats)``.

        ``ctx`` is the compilation's
        :class:`~repro.core.context.QueryContext`: per-pass spans go to
        its tracer and every checkpointing pass checks its limits."""
        stats = OptimizeStats(pipeline=self.pipeline.fingerprint())
        stats.pass_stats = []
        self._stats_index = {}
        start = time.perf_counter()
        pctx = _PassContext(entry=entry)
        self._verify("input", module)
        self._dump_module(module, "input")
        for ps in self.pipeline.ir_passes:
            if ps.level == "module":
                module = self._run_module_pass(module, ps, stats,
                                               pctx, ctx)
                continue
            for method in module.methods.values():
                self._apply_to_method(ps, method, module, stats, ctx)
            if ps.name == "simplify":
                stats.rounds = 1
            self._dump_module(module, ps.name)
        stats.elapsed_seconds = time.perf_counter() - start
        return module, stats

    # -- internals -----------------------------------------------------------

    def _run_module_pass(self, module, ps, stats, pctx, ctx):
        methods_before = len(module.methods)
        if ps.checkpoint and ctx.limits is not None:
            ctx.limits.check(f"pass:{ps.name}")
        start = time.perf_counter()
        if ps.traced:
            with ctx.tracer.span(f"pass:{ps.name}",
                                 methods_before=methods_before):
                module, changed = ps.run(module, pctx)
        else:
            module, changed = ps.run(module, pctx)
        elapsed = time.perf_counter() - start
        removed = methods_before - len(module.methods)
        if ps.name == "inline":
            stats.inlined_methods_removed = removed
        if changed:
            # Module rewrites splice across methods: forget every verdict.
            self.verified.clear()
        if changed and ps.records:
            _note(stats, ps.name)
        if ps.records:
            self._record(stats, ps, changed, elapsed)
        self._verify(ps.name, module)
        self._dump_module(module, ps.name)
        return module

    def _apply_to_method(self, ps, method, module, stats, ctx) -> bool:
        if ps.checkpoint and ctx.limits is not None:
            ctx.limits.check(f"pass:{ps.name}")
        start = time.perf_counter()
        tracer = ctx.tracer
        if not ps.traced or not tracer.enabled:
            changed = ps.run(method)
        else:
            with tracer.span(f"pass:{ps.name}",
                             method=method.name) as span:
                before = _count_statements(method.body)
                changed = ps.run(method)
                span.set(stmts_before=before,
                         stmts_after=_count_statements(method.body),
                         changed=changed)
        elapsed = time.perf_counter() - start
        if changed:
            self.verified.discard(method.name)
        if changed and ps.records:
            _note(stats, ps.name)
        if ps.records:
            self._record(stats, ps, changed, elapsed)
        self._verify(ps.name, module, method)
        return changed

    def _record(self, stats, ps, changed, elapsed) -> None:
        if stats is None:
            return
        stat = self._stats_index.get(ps.name)
        if stat is None:
            stat = PassStat(ps.name, ps.level)
            self._stats_index[ps.name] = stat
            stats.pass_stats.append(stat)
        stat.runs += 1
        if changed:
            stat.rewrites += 1
        stat.seconds += elapsed

    # -- verification --------------------------------------------------------

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

    # -- dumps ---------------------------------------------------------------

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


def _note(stats: OptimizeStats, name: str) -> None:
    if name not in stats.passes_applied:
        stats.passes_applied.append(name)
