"""The optimization pipeline (paper Section 3.4).

``optimize`` rewrites a module through the paper's pass order: method
inlining first (the cross-optimization enabler), then the scalar
rewriting core (constants, copies, CSE and backward slicing in one
``simplify`` pass), join predicate motion and pattern-based fusion.
Automatic loop fusion itself runs in the compiler, because its result is an
execution plan rather than IR.

This module is a thin preset invocation: the pass order, spans and
statistics live in :mod:`repro.core.passes`, and ``optimize(...)`` is
exactly ``PassManager(preset("O2")).run_module(...)``.  Callers wanting
custom pipelines, inter-pass verification or IR dumps pass
``pipeline=`` / ``verify_ir=`` / ``dump_ir=`` straight through.
"""

from __future__ import annotations

from repro.core import ir
from repro.core.context import QueryContext
from repro.core.passes import (OptimizeStats, PassManager, PassStat,
                               resolve_pipeline)

__all__ = ["optimize", "OptimizeStats", "PassStat"]


def optimize(module: ir.Module, *, entry: str | None = None,
             ctx: QueryContext | None = None, pipeline=None,
             verify_ir: bool = False, dump_ir: str | None = None) \
        -> tuple[ir.Module, OptimizeStats]:
    """Optimize ``module``; returns a new module and pass statistics.

    ``ctx`` names where per-pass spans go (``ctx.tracer``) and the
    checkpoint surface checked once per pass so a deadline can cancel a
    pathological optimization (``ctx.limits``); without one the run is
    untraced and unlimited.

    ``pipeline`` overrides the ``O2`` preset (a name, a comma list of
    pass names, or a :class:`~repro.core.passes.Pipeline`).
    ``verify_ir=True`` re-verifies the IR after every pass
    (:class:`~repro.errors.PassVerificationError` on failure);
    ``dump_ir`` names a directory for per-pass IR snapshots.
    """
    if ctx is None:
        ctx = QueryContext()
    manager = PassManager(resolve_pipeline(pipeline), verify=verify_ir,
                          dump_dir=dump_ir)
    return manager.run_module(module, ctx, entry=entry)
