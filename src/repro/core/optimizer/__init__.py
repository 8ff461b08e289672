"""HorsePower's compiler optimizations (paper Section 3.4).

Passes, in pipeline order:

1. :mod:`.inline` — method inlining: the cross-optimization enabler that
   merges UDF bodies into the query body (Section 3.4.2, Figure 7);
2. :mod:`.simplify` — the scalar rewriting core: list forwarding,
   constant propagation and folding, copy propagation and
   common-subexpression elimination in one forward sweep, then dead-code
   elimination by backward slicing, which removes UDF outputs the
   enclosing query never consumes (the bs2 variant);
3. :mod:`.join_motion` — join predicate motion: filters each side of a
   join with the part of an inlined post-join predicate that reads it;
4. :mod:`.patterns` — pattern-based fusion rewrites;
5. :mod:`.fusion` — automatic loop fusion: segments the method into fused
   kernels and opaque statements for the code generator.

:func:`optimize` runs 1-4 and returns the rewritten module; segmenting
(pass 5) happens in the compiler because its output is a plan, not IR.

Passes 1-4 are named functions in :mod:`repro.core.passes`, which
defines :func:`optimize` beside the manager that runs them (``O2`` =
the list above; ``O1`` drops join motion and patterns; ``O0`` runs no
IR passes at all); this package re-exports it.  See
``docs/compiler_pipeline.md``.
"""

from repro.core.passes import OptimizeStats, PassStat, optimize  # noqa: F401

__all__ = ["optimize", "OptimizeStats", "PassStat"]
