"""Static analysis over HorseIR (types, shapes, lint).

The package has two modules:

* :mod:`~repro.core.analysis.typeshape` — type-and-shape inference
  assigning every statement a ``(HorseType, Shape)`` lattice value,
  driven by each builtin's one record in
  :mod:`repro.core.builtins`, and the one rule for what a declared
  slot may hold; in strict mode (how :mod:`repro.core.verify` runs it
  at ``full=True``) the first ill-typed or shape-incompatible statement
  raises a :class:`~repro.errors.HorseTypeError` naming it;
* :mod:`~repro.core.analysis.lint` — the rule registry and drivers
  behind the ``lint`` CLI subcommand, spanning HorseIR, SQL plans, and
  MATLAB sources.

The optimizer's def/use facts live in :mod:`repro.core.depgraph` and
:mod:`repro.core.optimizer.analysis`.
"""

from repro.core.analysis.lint import (LINT_JSON_VERSION, RULES, Finding,
                                      Rule, default_rule_ids,
                                      findings_to_json, lint_matlab,
                                      lint_module, lint_plan)
from repro.core.analysis.typeshape import (SCALAR, UNKNOWN, Shape,
                                           TypeShape, broadcast_shapes,
                                           infer_method)

__all__ = [
    "Shape", "TypeShape", "SCALAR", "UNKNOWN", "broadcast_shapes",
    "infer_method",
    "Rule", "Finding", "RULES", "LINT_JSON_VERSION", "default_rule_ids",
    "lint_module", "lint_plan", "lint_matlab", "findings_to_json",
]
