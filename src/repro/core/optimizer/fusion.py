"""Automatic loop fusion (paper Section 3.4.1, Figure 3).

This pass segments each method body into *fused segments* — maximal runs of
fusable statements that the code generator turns into one kernel executing
a single (chunked, parallelizable) loop — and *opaque* statements executed
as individual vectorized calls.

Fusable statement forms:

* elementwise builtins with a code template (``@geq``, ``@mul``, ...);
* ``@compress`` (becomes a mask application inside the loop);
* reductions (``@sum``, ``@min``, ...) as segment *tails*: their result is
  a cross-chunk total, so no statement in the same segment may consume it;
* ``check_cast`` between numeric vector types;
* literal and symbol assignments (inlined as constants) and aliases, of
  the declared type: any other is a coercion, and runs alone.

Fusion never crosses control flow, and takes every length fact from one
:func:`~repro.core.analysis.typeshape.infer_method` run over the method —
the shape analysis side of the paper's dependence-graph-driven fusion:

* a value whose shape is scalar is a broadcast input;
* a segment's external vector inputs share its base length, so two
  inputs whose shape tokens provably differ — rows of two tables,
  compressions under two masks, pairs of two joins — never share a
  segment, even when their statements are independent and adjacent
  (join predicate motion emits the filters of both join sides back to
  back); any other token constrains nothing;
* a value compressed inside the segment lives in its mask's compressed
  *domain*, named by its ``("compress", mask)`` token, and an
  elementwise operation only fuses when its vector operands share a
  domain (scalars broadcast into any).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.analysis.typeshape import MethodTypeShapes, infer_method
from repro.core.depgraph import block_uses

__all__ = ["Segment", "FusedItem", "OpaqueItem", "ReturnItem", "IfItem",
           "WhileItem", "domain_masks", "segment_method", "walk_plan"]

#: Domain marker for values in the block's base iteration space.
BASE = ("base",)
#: Domain marker for scalar / broadcastable values.
ANY = ("any",)

_CASTABLE = (ht.BOOL, ht.I8, ht.I16, ht.I32, ht.I64, ht.F32, ht.F64)


def domain_masks(domain: tuple) -> tuple[str, ...]:
    """The mask variables of a domain, outermost first (none for the
    base and broadcast domains)."""
    return tuple(part[2:] for part in domain[1:])


@dataclass
class Segment:
    """A run of fusable statements compiled into one kernel."""

    stmts: list[ir.Assign] = field(default_factory=list)
    #: external vector/scalar inputs, in first-use order.
    inputs: list[str] = field(default_factory=list)
    #: variables the rest of the program needs, with their roles:
    #: ``"vector"`` (each chunk writes its rows) or ``"reduce:<combine>"``.
    outputs: list[tuple[str, str]] = field(default_factory=list)
    #: domain of each input and defined variable: ``BASE``, ``ANY`` or
    #: a compressed domain ``BASE + ("m:<mask>", ...)``.
    domains: dict[str, tuple] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable summary (used by examples and tests)."""
        ins = ", ".join(self.inputs)
        outs = ", ".join(name for name, _ in self.outputs)
        ops = " ; ".join(str(s.expr) for s in self.stmts)
        return f"fuse[{len(self.stmts)} stmts] ({ins}) -> ({outs}): {ops}"


@dataclass
class FusedItem:
    segment: Segment


@dataclass
class OpaqueItem:
    stmt: ir.Stmt  # Assign


@dataclass
class ReturnItem:
    expr: ir.Expr


@dataclass
class IfItem:
    cond: ir.Expr
    then_plan: list
    else_plan: list


@dataclass
class WhileItem:
    cond: ir.Expr
    body_plan: list


def segment_method(method: ir.Method, module: ir.Module | None = None, *,
                   opaque: frozenset = frozenset()) -> list:
    """Build the fused execution plan for a method (HorsePower-Opt;
    HorsePower-Naive runs the method body itself, unsegmented).

    Assignments to a name in ``opaque`` never fuse (the string
    lowering's uncovered statements).  ``module`` types the method's
    calls.
    """
    facts = infer_method(method, module)
    return _segment_body(method.body, _use_sets(method.body, set()), facts,
                         opaque)


def walk_plan(plan: list):
    """Every item of ``plan``, the plans nested in if / while items
    included, in program order."""
    for item in plan:
        yield item
        if isinstance(item, IfItem):
            yield from walk_plan(item.then_plan)
            yield from walk_plan(item.else_plan)
        elif isinstance(item, WhileItem):
            yield from walk_plan(item.body_plan)


# ---------------------------------------------------------------------------
# liveness bookkeeping: which variables are needed after each statement
# ---------------------------------------------------------------------------

def _use_sets(body: list[ir.Stmt],
              live_after: set[str]) -> dict[int, set[str]]:
    """Map id(stmt) -> variables used strictly after that statement.

    Conservative across control flow: a variable used anywhere in a later
    sibling or ancestor region counts as used-after.
    """
    result: dict[int, set[str]] = {}
    live = set(live_after)
    for stmt in reversed(body):
        result[id(stmt)] = set(live)
        if isinstance(stmt, (ir.Assign, ir.Return)):
            live.update(ir.expr_vars(stmt.expr))
        elif isinstance(stmt, ir.If):
            live.update(ir.expr_vars(stmt.cond))
            result.update(_use_sets(stmt.then_body, live))
            result.update(_use_sets(stmt.else_body, live))
            inner = block_uses(stmt.then_body) | block_uses(stmt.else_body)
            live.update(inner)
        elif isinstance(stmt, ir.While):
            live.update(ir.expr_vars(stmt.cond))
            inner = block_uses(stmt.body)
            result.update(_use_sets(stmt.body, live | inner))
            live.update(inner)
    return result


# ---------------------------------------------------------------------------
# the segmenter
# ---------------------------------------------------------------------------

def _segment_body(body: list[ir.Stmt], used_later: dict[int, set[str]],
                  facts: MethodTypeShapes, opaque: frozenset) -> list:
    plan: list = []
    builder = _SegmentBuilder(facts, used_later)
    for stmt in body:
        if isinstance(stmt, ir.Assign) and stmt.target not in opaque:
            if builder.try_add(stmt):
                continue
            if _classify(stmt) is not None:
                # Fusable but incompatible with the open segment: close
                # it and start a new one.
                plan.extend(builder.finish())
                if builder.try_add(stmt):
                    continue
        plan.extend(builder.finish())
        if isinstance(stmt, ir.Return):
            plan.append(ReturnItem(stmt.expr))
        elif isinstance(stmt, ir.If):
            plan.append(IfItem(
                stmt.cond,
                _segment_body(stmt.then_body, used_later, facts, opaque),
                _segment_body(stmt.else_body, used_later, facts, opaque)))
        elif isinstance(stmt, ir.While):
            plan.append(WhileItem(
                stmt.cond,
                _segment_body(stmt.body, used_later, facts, opaque)))
        else:
            plan.append(OpaqueItem(stmt))
    plan.extend(builder.finish())
    return plan


def _classify(stmt: ir.Assign) -> str | None:
    """Kind of a fusable statement, or None.  A statement whose type
    stays unknown after compilation resolved it (it reads a ``?``
    parameter) has no dtype for a kernel to produce: it runs alone."""
    if stmt.type.is_wildcard:
        return None
    expr = stmt.expr
    if isinstance(expr, (ir.Literal, ir.SymbolLit)):
        return "const"
    if isinstance(expr, ir.Cast):
        if isinstance(expr.expr, ir.Var) and expr.type in _CASTABLE:
            return "cast"
        return None
    if isinstance(expr, ir.Var):
        return "alias"
    if not isinstance(expr, ir.BuiltinCall):
        return None
    builtin = hb.BUILTINS.get(expr.name)
    if builtin is None:
        return None
    if builtin.kind == "elementwise" and builtin.template is not None:
        if all(isinstance(a, (ir.Var, ir.Literal, ir.SymbolLit))
               for a in expr.args):
            return "elementwise"
        return None
    if builtin.kind == "compress":
        if all(isinstance(a, ir.Var) for a in expr.args):
            return "compress"
        return None
    if builtin.kind == "reduction" and builtin.template is not None \
            and builtin.combine is not None:
        if isinstance(expr.args[0], ir.Var):
            return "reduction"
        return None
    return None


def _operands(stmt: ir.Assign) -> list[tuple[str, bool]]:
    """``(variable, whole)`` per variable operand of a fusable
    statement; ``whole`` marks a builtin's broadcast argument."""
    expr = stmt.expr
    if isinstance(expr, ir.BuiltinCall):
        whole = hb.get(expr.name).broadcast_args
        return [(arg.name, position in whole)
                for position, arg in enumerate(expr.args)
                if isinstance(arg, ir.Var)]
    if isinstance(expr, ir.Cast):
        expr = expr.expr
    return [(expr.name, False)] if isinstance(expr, ir.Var) else []


def _length_class(shape) -> tuple | None:
    """The shape token of a vector whose length provably differs from
    that of any other token of its kind: one table's rows, one mask's
    compression, one join's pairs."""
    token = shape.token
    if shape.kind != "vector" or token is None:
        return None
    if token[0] in ("compress", "join") \
            or (token[0] == "rows" and token[1][0] == "table"):
        return token
    return None


class _SegmentBuilder:
    """Grows one segment statement by statement, reading every length
    fact from the method's inference result."""

    def __init__(self, facts: MethodTypeShapes,
                 used_later: dict[int, set[str]]):
        self._facts = facts
        self._used_later = used_later
        self._reset()

    def _reset(self) -> None:
        self._stmts: list[ir.Assign] = []
        self._defined: set[str] = set()
        self._reduced: set[str] = set()
        #: ``("compress", mask)`` token -> the domain it names, for the
        #: segment's compressions.
        self._masks: dict[tuple, tuple] = {}
        #: the length class of the segment's base inputs, once one of
        #: them has one.
        self._base_class: tuple | None = None

    def _domain(self, shape) -> tuple:
        """The domain of a value defined in the segment."""
        if shape.kind == "scalar":
            return ANY
        return self._masks.get(shape.token, BASE)

    def try_add(self, stmt: ir.Assign) -> bool:
        kind = _classify(stmt)
        value = self._facts.stmt_facts[id(stmt)]
        if kind is None or kind in ("const", "alias") \
                and value.type != stmt.type:
            return False  # a coercion, which a kernel would skip
        reads = self._facts.operand_facts[id(stmt)]
        base_class = self._base_class
        domains = set()
        for name, whole in _operands(stmt):
            # A value produced by a reduction in this segment is a
            # cross-chunk total; nothing in the same kernel may read it.
            if name in self._reduced:
                return False
            shape = reads[name].shape
            if whole or shape.kind == "scalar":
                continue
            if name in self._defined:
                domains.add(self._domain(shape))
                continue
            domains.add(BASE)
            found = _length_class(shape)
            if found is not None and base_class not in (None, found):
                return False  # a base input of another length
            base_class = base_class or found
        domains.discard(ANY)
        if len(domains) > 1:
            return False  # operands in different domains
        domain = domains.pop() if domains else ANY
        target = value.shape
        if kind == "compress":
            if domain == ANY or target.token is None:
                return False
            self._masks[target.token] = domain \
                + (f"m:{stmt.expr.args[0].name}",)
        elif kind == "reduction":
            if domain == ANY:
                return False  # reducing a constant: legal, pointless
            self._reduced.add(stmt.target)
        elif kind != "const" and self._domain(target) != domain:
            return False  # inference lost track of the operands' domain
        self._base_class = base_class
        self._stmts.append(stmt)
        self._defined.add(stmt.target)
        return True

    def finish(self) -> list:
        """Close the segment; returns the plan items it contributes."""
        stmts = self._stmts
        if not stmts:
            return []
        # The segment is a contiguous run, so the set of variables needed
        # after its *last* statement is exactly what must materialize.
        needed = self._used_later.get(id(stmts[-1]), set())
        outputs: list[tuple[str, str]] = []
        for stmt in stmts:
            if stmt.target in needed \
                    and all(name != stmt.target for name, _ in outputs):
                outputs.append((stmt.target, self._output_role(stmt)))
        # Count statements doing real work (consts are free).
        real = [s for s in stmts if _classify(s) not in ("const", "alias")]
        if len(real) < 2:
            items = [OpaqueItem(s) for s in stmts]
        else:
            items = [FusedItem(self._segment(outputs))]
        self._reset()
        return items

    def _segment(self, outputs: list[tuple[str, str]]) -> Segment:
        facts = self._facts
        inputs: list[str] = []
        domains: dict[str, tuple] = {}
        for stmt in self._stmts:
            reads = facts.operand_facts[id(stmt)]
            for name, whole in _operands(stmt):
                if name not in domains:
                    inputs.append(name)
                    domains[name] = ANY if whole \
                        or reads[name].shape.kind == "scalar" else BASE
            domains[stmt.target] = self._domain(
                facts.stmt_facts[id(stmt)].shape)
        return Segment(list(self._stmts), inputs, outputs, domains)

    def _output_role(self, stmt: ir.Assign) -> str:
        if stmt.target in self._reduced:
            builtin = hb.get(stmt.expr.name)
            return f"reduce:{builtin.combine}"
        return "vector"
