"""The lint rule registry and drivers behind ``repro lint``.

Rules span the three layers one HorsePower compilation crosses:

========  =======================  ========  ==========================
rule id   name                     layer     on by default
========  =======================  ========  ==========================
H001      unused-parameter         hir       yes
H002      dead-method              hir       yes
H003      redundant-cast           hir       yes
H004      fusion-blocker           hir       no (report, not a defect)
P001      filter-no-columns        plan      yes
P002      cross-join-no-filter     plan      yes
P003      sort-without-limit       plan      no (perf advisory)
M001      shadowed-builtin         matlab    yes
M002      unreachable-code         matlab    yes
========  =======================  ========  ==========================

Rule IDs are stable — CI and editor integrations key on them.  Findings
serialize to JSON schema version :data:`LINT_JSON_VERSION`:

.. code-block:: json

    {"version": 1,
     "findings": [{"rule": "H001", "name": "unused-parameter",
                   "layer": "hir", "severity": "warning",
                   "location": "method 'scale'",
                   "message": "..."}],
     "counts": {"warning": 1}}

The off-by-default rules fire only under ``--select`` or ``--all``:
``H004`` explains *why* adjacent statements did not fuse (a report on
working code, not a defect), and ``P003`` flags LIMIT-less full sorts
(legitimate SQL — TPC-H q1 orders without limiting — but worth knowing
when chasing a regression).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core import builtins as hb
from repro.core import ir
from repro.core.depgraph import block_uses

__all__ = ["Rule", "Finding", "RULES", "LINT_JSON_VERSION",
           "default_rule_ids", "lint_module", "lint_plan",
           "lint_matlab", "findings_to_json"]

LINT_JSON_VERSION = 1

SEVERITIES = ("warning", "perf", "info")


class Rule(NamedTuple):
    id: str
    name: str
    layer: str       # "hir" | "plan" | "matlab"
    severity: str
    default_on: bool
    summary: str


class Finding(NamedTuple):
    rule: str
    name: str
    layer: str
    severity: str
    location: str
    message: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "name": self.name,
                "layer": self.layer, "severity": self.severity,
                "location": self.location, "message": self.message}


RULES: dict[str, Rule] = {
    "H001": Rule("H001", "unused-parameter", "hir", "warning", True,
                 "a method parameter is never read"),
    "H002": Rule("H002", "dead-method", "hir", "warning", True,
                 "a method is unreachable from the entry method"),
    "H003": Rule("H003", "redundant-cast", "hir", "warning", True,
                 "check_cast to the type the operand already has"),
    "H004": Rule("H004", "fusion-blocker", "hir", "info", False,
                 "why adjacent statements did not fuse"),
    "P001": Rule("P001", "filter-no-columns", "plan", "warning", True,
                 "a filter references no column of its input"),
    "P002": Rule("P002", "cross-join-no-filter", "plan", "warning",
                 True, "a cross join with no follow-up predicate"),
    "P003": Rule("P003", "sort-without-limit", "plan", "perf", False,
                 "a full sort with no LIMIT above it"),
    "M001": Rule("M001", "shadowed-builtin", "matlab", "warning", True,
                 "a variable or parameter shadows a MATLAB builtin"),
    "M002": Rule("M002", "unreachable-code", "matlab", "warning", True,
                 "statements after return can never execute"),
}


def default_rule_ids() -> tuple[str, ...]:
    """Rule IDs enabled when no ``--select`` is given."""
    return tuple(rule_id for rule_id, rule in RULES.items()
                 if rule.default_on)


def _selected(rules, layer: str) -> list[Rule]:
    if rules is None:
        ids = default_rule_ids()
    else:
        ids = tuple(rules)
    out = []
    for rule_id in ids:
        rule = RULES.get(rule_id)
        if rule is not None and rule.layer == layer:
            out.append(rule)
    return out


def _finding(rule: Rule, location: str, message: str) -> Finding:
    return Finding(rule.id, rule.name, rule.layer, rule.severity,
                   location, message)


# ---------------------------------------------------------------------------
# HorseIR rules
# ---------------------------------------------------------------------------

def lint_module(module: ir.Module, rules=None) -> list[Finding]:
    """Run the selected HorseIR rules over every method."""
    selected = {rule.id: rule for rule in _selected(rules, "hir")}
    findings: list[Finding] = []
    if "H001" in selected:
        findings.extend(_unused_parameters(module, selected["H001"]))
    if "H002" in selected:
        findings.extend(_dead_methods(module, selected["H002"]))
    if "H003" in selected:
        findings.extend(_redundant_casts(module, selected["H003"]))
    if "H004" in selected:
        findings.extend(_fusion_blockers(module, selected["H004"]))
    return findings


def _unused_parameters(module: ir.Module, rule: Rule):
    for method in module.methods.values():
        used = block_uses(method.body)
        for param in method.params:
            if param.name not in used:
                yield _finding(
                    rule, f"method {method.name!r}",
                    f"parameter {param.name!r} is never read")


def _dead_methods(module: ir.Module, rule: Rule):
    if not module.methods:
        return
    entry = module.entry.name
    reachable = {entry}
    frontier = [entry]
    while frontier:
        method = module.methods.get(frontier.pop())
        if method is None:
            continue
        for stmt in method.walk_stmts():
            expr = getattr(stmt, "expr", None)
            for callee in _called_methods(expr):
                if callee in module.methods and callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
    for name in module.methods:
        if name not in reachable:
            yield _finding(
                rule, f"method {name!r}",
                f"never called from entry method {entry!r}")


def _called_methods(expr):
    if expr is None:
        return
    if isinstance(expr, ir.MethodCall):
        yield expr.name
    for child in expr.children():
        yield from _called_methods(child)


def _redundant_casts(module: ir.Module, rule: Rule):
    # A cast is redundant only when the operand's type is *proven* —
    # inferred by the type checker, not merely declared.  Declared
    # types on opaque results (``@column_value``, method calls) are
    # assumptions the cast exists to enforce, so those never fire.
    from repro.core.analysis.typeshape import (consistent_types,
                                               infer_method,
                                               redundant_casts)

    for method in module.methods.values():
        facts = infer_method(method, module).stmt_facts

        def inferred(stmt):
            fact = facts.get(id(stmt))
            if fact is None or fact.type.is_wildcard:
                return None
            return fact.type

        for stmt in redundant_casts(
                method, consistent_types(method, inferred)):
            cast = stmt.expr
            yield _finding(
                rule, f"method {method.name!r}",
                f"check_cast({cast.expr.name}, {cast.type}) is "
                f"redundant: the operand already has type "
                f"{cast.type} ({stmt.target} = ...)")


def _fusion_blockers(module: ir.Module, rule: Rule):
    from repro.core.optimizer import fusion

    for method in module.methods.values():
        plan = fusion.segment_method(method, module)
        for item in fusion.walk_plan(plan):
            if not isinstance(item, fusion.OpaqueItem):
                continue
            stmt = item.stmt
            if not isinstance(stmt, ir.Assign):
                continue
            reason = _blocker_reason(stmt)
            if reason is None:
                continue
            yield _finding(
                rule, f"method {method.name!r}",
                f"{stmt.target} = {stmt.expr} did not fuse: {reason}")


def _blocker_reason(stmt: ir.Assign) -> str | None:
    from repro.core.optimizer.fusion import _classify

    expr = stmt.expr
    kind = _classify(stmt)
    if kind in ("const", "alias"):
        return None  # free either way; nothing to report
    if kind is None:
        if isinstance(expr, ir.BuiltinCall):
            builtin = hb.BUILTINS.get(expr.name)
            if builtin is None:
                return f"@{expr.name} is unknown"
            if builtin.kind in ("opaque", "source", "scan"):
                return (f"@{expr.name} is {builtin.kind} "
                        f"(never fuses)")
            if builtin.template is None:
                return (f"@{expr.name} has no kernel template")
            return (f"@{expr.name} arguments are not simple "
                    f"variables/literals")
        if isinstance(expr, ir.MethodCall):
            return f"@{expr.name} is an uninlined method call"
        if isinstance(expr, ir.Cast):
            return "cast form is not fusable (non-numeric or nested)"
        return "statement form is not fusable"
    return ("fusable but isolated: no adjacent statement shares its "
            "iteration domain (or its segment had fewer than two "
            "working statements)")


# ---------------------------------------------------------------------------
# SQL plan rules
# ---------------------------------------------------------------------------

def lint_plan(plan, rules=None) -> list[Finding]:
    """Run the selected plan rules over a planned query tree."""
    from repro.sql.plan_passes import (find_filters_without_columns,
                                       find_unfiltered_cross_joins,
                                       find_unlimited_sorts)

    selected = {rule.id: rule for rule in _selected(rules, "plan")}
    detectors = {
        "P001": find_filters_without_columns,
        "P002": find_unfiltered_cross_joins,
        "P003": find_unlimited_sorts,
    }
    findings: list[Finding] = []
    for rule_id, detect in detectors.items():
        rule = selected.get(rule_id)
        if rule is None:
            continue
        for location, message in detect(plan):
            findings.append(_finding(rule, location, message))
    return findings


# ---------------------------------------------------------------------------
# MATLAB frontend rules
# ---------------------------------------------------------------------------

def lint_matlab(program, rules=None) -> list[Finding]:
    """Run the selected MATLAB rules over a parsed
    :class:`~repro.matlang.ast.Program`."""
    from repro.matlang.tamer import (find_shadowed_builtins,
                                     find_unreachable_statements)

    selected = {rule.id: rule for rule in _selected(rules, "matlab")}
    detectors = {
        "M001": find_shadowed_builtins,
        "M002": find_unreachable_statements,
    }
    findings: list[Finding] = []
    for rule_id, detect in detectors.items():
        rule = selected.get(rule_id)
        if rule is None:
            continue
        for function, message in detect(program):
            findings.append(
                _finding(rule, f"function {function!r}", message))
    return findings


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def findings_to_json(findings: list[Finding]) -> dict:
    """The documented machine-readable form (schema version
    :data:`LINT_JSON_VERSION`)."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return {
        "version": LINT_JSON_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "counts": counts,
    }
