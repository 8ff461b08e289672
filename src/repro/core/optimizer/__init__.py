"""HorsePower's compiler optimizations (paper Section 3.4).

Passes, in pipeline order:

1. :mod:`.inline` — method inlining: the cross-optimization enabler that
   merges UDF bodies into the query body (Section 3.4.2, Figure 7);
2. :mod:`.constprop` — constant propagation and folding;
3. :mod:`.copyprop` — copy propagation;
4. :mod:`.cse` — common-subexpression elimination;
5. :mod:`.dce` — dead-code elimination by backward slicing, which removes
   UDF outputs the enclosing query never consumes (the bs2 variant);
6. :mod:`.join_motion` — join predicate motion: filters each side of a
   join with the part of an inlined post-join predicate that reads it;
7. :mod:`.patterns` — pattern-based fusion rewrites;
8. :mod:`.fusion` — automatic loop fusion: segments the method into fused
   kernels and opaque statements for the code generator.

:func:`optimize` runs 1-7 and returns the rewritten module; segmenting
(pass 8) happens in the compiler because its output is a plan, not IR.

Since the pass-manager refactor, every pass above is a registered
:class:`~repro.core.passes.Pass` object and :func:`optimize` is a
preset invocation of the :class:`~repro.core.passes.PassManager`
(``O2`` = the list above; ``O1`` drops join motion and patterns;
``O0`` runs no IR passes at all).  See ``docs/compiler_pipeline.md``.
"""

from repro.core.optimizer.pipeline import (  # noqa: F401
    OptimizeStats, PassStat, optimize,
)

__all__ = ["optimize", "OptimizeStats", "PassStat"]
