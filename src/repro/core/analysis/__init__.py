"""Static analysis over HorseIR (dataflow, types, shapes, lint).

The package splits into layers, each built on the one below:

* :mod:`~repro.core.analysis.cfg` — a control-flow graph over the
  structured IR (``if``/``while`` lower to branch blocks);
* :mod:`~repro.core.analysis.dataflow` — a generic forward/backward
  worklist solver plus the standard analyses: liveness, reaching
  definitions, use-def/def-use chains, constants, and intervals;
* :mod:`~repro.core.analysis.typeshape` — type-and-shape inference
  assigning every statement a ``(HorseType, Shape)`` lattice value,
  driven by the per-builtin signature table in
  :mod:`repro.core.builtins`, and the one rule for what a declared
  slot may hold; in strict mode (how :mod:`repro.core.verify` runs it
  at ``full=True``) the first ill-typed or shape-incompatible statement
  raises a :class:`~repro.errors.HorseTypeError` naming it;
* :mod:`~repro.core.analysis.lint` — the rule registry and drivers
  behind the ``lint`` CLI subcommand, spanning HorseIR, SQL plans, and
  MATLAB sources.
"""

from repro.core.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.core.analysis.dataflow import (constant_facts, def_use_chains,
                                          interval_facts, liveness,
                                          reaching_definitions, solve,
                                          use_def_chains)
from repro.core.analysis.lint import (LINT_JSON_VERSION, RULES, Finding,
                                      Rule, default_rule_ids,
                                      findings_to_json, lint_matlab,
                                      lint_module, lint_plan)
from repro.core.analysis.typeshape import (SCALAR, UNKNOWN, Shape,
                                           TypeShape, broadcast_shapes,
                                           infer_method)

__all__ = [
    "CFG", "BasicBlock", "build_cfg",
    "solve", "liveness", "reaching_definitions", "use_def_chains",
    "def_use_chains", "constant_facts", "interval_facts",
    "Shape", "TypeShape", "SCALAR", "UNKNOWN", "broadcast_shapes",
    "infer_method",
    "Rule", "Finding", "RULES", "LINT_JSON_VERSION", "default_rule_ids",
    "lint_module", "lint_plan", "lint_matlab", "findings_to_json",
]
