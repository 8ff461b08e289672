"""``matlang`` — the MATLAB-subset frontend (paper Section 3.2).

The reproduction of the McLab pipeline in Figure 5:

* :mod:`.lexer` / :mod:`.parser` / :mod:`.ast` — parse MATLAB source
  written in the array-programming style the paper supports (functions,
  ``if``/``elseif``/``else``, ``while``, logical & numeric indexing,
  ranges, concatenation, the vector builtin library — no ``for`` loops);
* :mod:`.interp` — a tree-walking evaluator over NumPy arrays, the
  stand-in for the MATLAB interpreter baseline in Table 1;
* :mod:`.tamer` — Tamer-style type and shape inference seeded from the
  entry function's parameter types, producing typed three-address
  **TameIR** (:mod:`.tameir`);
* :mod:`.to_horseir` — the TameIR→HorseIR generator HorsePower adds to
  the McLab framework.

:func:`matlab_to_module` translates MATLAB source to HorseIR; the
session compiles and runs it
(:meth:`repro.engine.session.EngineSession.compile_matlab`).
"""

from repro.matlang.frontend import matlab_to_module  # noqa: F401

__all__ = ["matlab_to_module"]
