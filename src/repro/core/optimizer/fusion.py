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
* literal and symbol assignments (inlined as constants).

Fusion never crosses control flow, and respects *domains*: a value produced
under a compress mask lives in that mask's compressed domain, and an
elementwise operation only fuses when all its vector operands share a
domain (scalars and literals broadcast into any domain).  This is the
shape-analysis side of the paper's dependence-graph-driven fusion.

A segment's external vector inputs all share the base domain, so they
must have one length.  Two inputs whose lengths come from different
sources — columns of two tables, compressions under two masks — are not
known to agree and never share a segment, even when their statements
are independent and adjacent (join predicate motion emits the filters
of both join sides back to back).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.depgraph import block_uses

__all__ = ["Segment", "FusedItem", "OpaqueItem", "ReturnItem", "IfItem",
           "WhileItem", "segment_method", "segment_block"]

#: Domain marker for values in the block's base iteration space.
BASE = ("base",)
#: Domain marker for scalar / broadcastable values.
ANY = ("any",)

_CASTABLE = (ht.BOOL, ht.I8, ht.I16, ht.I32, ht.I64, ht.F32, ht.F64)


@dataclass
class Segment:
    """A run of fusable statements compiled into one kernel."""

    stmts: list[ir.Assign] = field(default_factory=list)
    #: external vector/scalar inputs, in first-use order.
    inputs: list[str] = field(default_factory=list)
    #: variables the rest of the program needs, with their roles:
    #: ``"vector"`` (each chunk writes its rows) or ``"reduce:<combine>"``.
    outputs: list[tuple[str, str]] = field(default_factory=list)
    #: domain of each defined variable (for codegen validation).
    domains: dict[str, tuple] = field(default_factory=dict)

    @property
    def defined(self) -> set[str]:
        return {stmt.target for stmt in self.stmts}

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


def segment_method(method: ir.Method, *, enabled: bool = True,
                   opaque: frozenset = frozenset()) -> list:
    """Build the execution plan for a method.

    With ``enabled=False`` every assignment becomes an opaque item — the
    HorsePower-Naive configuration.  Assignments to a name in
    ``opaque`` never fuse (the string lowering's uncovered statements).
    """
    used_later = _use_sets(method)
    return _segment_body(method.body, used_later, enabled, opaque,
                         _length_classes(method.body))


def segment_block(body: list[ir.Stmt], live_after: set[str]) -> list:
    """Segment a straight-line block given the variables needed after it."""
    return _segment_body(body, _block_use_sets(body, live_after), True,
                         frozenset(), _length_classes(body))


# ---------------------------------------------------------------------------
# length classes: where a vector's length comes from
# ---------------------------------------------------------------------------

def _length_classes(body: list[ir.Stmt]) -> dict[str, tuple]:
    """``variable -> length class`` for the top-level, single-assignment
    vectors of ``body`` whose class is known: a table's rows, a
    compression under one mask variable or one join's pairs, carried
    through elementwise ops, casts and string codes.  Two base inputs of
    different classes are not known to have one length, so they do not
    share a segment; a vector without a class constrains nothing."""
    counts: dict[str, int] = {}
    for stmt in ir.walk_body(body):
        if isinstance(stmt, ir.Assign):
            counts[stmt.target] = counts.get(stmt.target, 0) + 1
    classes: dict[str, tuple] = {}
    for stmt in body:
        if not (isinstance(stmt, ir.Assign) and counts[stmt.target] == 1):
            continue
        if isinstance(stmt.expr, ir.BuiltinCall) \
                and stmt.expr.name == "join_index":
            # Both index vectors of one join have its pair count.
            found = ("join", stmt.target)
        else:
            found = _class_of(stmt.expr, classes, counts)
        if found is not None:
            classes[stmt.target] = found
    return classes


def _class_of(expr: ir.Expr, classes: dict, counts: dict) -> tuple | None:
    while isinstance(expr, ir.Cast):
        expr = expr.expr
    if isinstance(expr, ir.Var):
        return classes.get(expr.name)
    if not (isinstance(expr, ir.BuiltinCall) and expr.args):
        return None
    name, first = expr.name, expr.args[0]
    if name == "load_table":
        return ("table", first.name) \
            if isinstance(first, ir.SymbolLit) else None
    first = first.name if isinstance(first, ir.Var) else None
    if name == "column_value":
        table = classes.get(first)
        return None if table is None else ("rows", table)
    if name == "str_codes":
        return classes.get(first)
    if name == "compress":
        return ("compress", first) if counts.get(first) == 1 else None
    if name == "index" and len(expr.args) == 2 \
            and isinstance(expr.args[1], ir.Var):
        return classes.get(expr.args[1].name)
    if name == "list_item":
        join = ("join", first)
        return join if classes.get(first) == join else None
    builtin = hb.BUILTINS.get(name)
    if builtin is None or builtin.kind != "elementwise":
        return None
    found = None
    for position, arg in enumerate(expr.args):
        if isinstance(arg, ir.Var) \
                and position not in builtin.broadcast_args:
            operand = classes.get(arg.name)
            if found is None:
                found = operand
            elif operand is not None and operand != found:
                return None  # operands of provably different lengths
    return found


# ---------------------------------------------------------------------------
# liveness bookkeeping: which variables are needed after each statement
# ---------------------------------------------------------------------------

def _use_sets(method: ir.Method) -> dict[int, set[str]]:
    """Map id(stmt) -> variables used strictly after that statement.

    Conservative across control flow: a variable used anywhere in a later
    sibling or ancestor region counts as used-after.
    """
    return _block_use_sets(method.body, set())


def _block_use_sets(body: list[ir.Stmt],
                    live_after: set[str]) -> dict[int, set[str]]:
    result: dict[int, set[str]] = {}
    live = set(live_after)
    for stmt in reversed(body):
        result[id(stmt)] = set(live)
        if isinstance(stmt, (ir.Assign, ir.Return)):
            live.update(ir.expr_vars(stmt.expr))
        elif isinstance(stmt, ir.If):
            live.update(ir.expr_vars(stmt.cond))
            result.update(_block_use_sets(stmt.then_body, live))
            result.update(_block_use_sets(stmt.else_body, live))
            inner = block_uses(stmt.then_body) | block_uses(stmt.else_body)
            live.update(inner)
        elif isinstance(stmt, ir.While):
            live.update(ir.expr_vars(stmt.cond))
            inner = block_uses(stmt.body)
            result.update(_block_use_sets(stmt.body, live | inner))
            live.update(inner)
    return result


# ---------------------------------------------------------------------------
# the segmenter
# ---------------------------------------------------------------------------

#: builtins whose result is always a scalar (length-one) vector.
_SCALAR_RESULT_BUILTINS = ("sum", "prod", "avg", "min", "max", "count",
                           "any", "all", "len", "sum_masked",
                           "dot_masked", "str_find")


def _produces_scalar(stmt: ir.Stmt) -> bool:
    if not isinstance(stmt, ir.Assign):
        return False
    expr = stmt.expr
    if isinstance(expr, (ir.Literal, ir.SymbolLit)):
        return True
    return (isinstance(expr, ir.BuiltinCall)
            and expr.name in _SCALAR_RESULT_BUILTINS)


def _segment_body(body: list[ir.Stmt], used_later: dict[int, set[str]],
                  enabled: bool, opaque: frozenset, classes: dict) -> list:
    plan: list = []
    # Variables known to hold scalars at the current program point: a
    # later segment must treat them as broadcast (ANY) inputs, not as
    # base-length streams, or buffer-backed kernels would blow them up
    # to full length.
    scalar_vars: set[str] = set()
    builder = _SegmentBuilder(scalar_vars, classes)

    def flush() -> None:
        for item in builder.finish(used_later):
            plan.append(item)

    for stmt in body:
        if isinstance(stmt, ir.Return):
            flush()
            plan.append(ReturnItem(stmt.expr))
        elif isinstance(stmt, ir.If):
            flush()
            plan.append(IfItem(stmt.cond,
                               _segment_body(stmt.then_body, used_later,
                                             enabled, opaque, classes),
                               _segment_body(stmt.else_body, used_later,
                                             enabled, opaque, classes)))
        elif isinstance(stmt, ir.While):
            flush()
            plan.append(WhileItem(stmt.cond,
                                  _segment_body(stmt.body, used_later,
                                                enabled, opaque, classes)))
        elif isinstance(stmt, ir.Assign):
            if _produces_scalar(stmt):
                scalar_vars.add(stmt.target)
            elif stmt.target in scalar_vars:
                scalar_vars.discard(stmt.target)
            fuses = enabled and stmt.target not in opaque
            if fuses and builder.try_add(stmt, used_later):
                # Scalar-ness propagates through broadcast-only chains
                # (e.g. arithmetic over two reduction results).
                if builder.domain_of_target(stmt.target) == ANY:
                    scalar_vars.add(stmt.target)
                continue
            if fuses and _fusable(stmt):
                # Fusable but incompatible with the open segment: flush and
                # start a new one.
                flush()
                if builder.try_add(stmt, used_later):
                    continue
            flush()
            plan.append(OpaqueItem(stmt))
        else:
            flush()
            plan.append(OpaqueItem(stmt))
    flush()
    return plan


def _fusable(stmt: ir.Assign) -> bool:
    return _classify(stmt) is not None


def _classify(stmt: ir.Assign) -> str | None:
    """Kind of a fusable statement, or None."""
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
            and builtin.combine is not None and builtin.name != "avg":
        if isinstance(expr.args[0], ir.Var):
            return "reduction"
        return None
    return None


class _SegmentBuilder:
    """Grows one segment statement by statement, tracking domains."""

    def __init__(self, scalar_vars: set[str] | None = None,
                 classes: dict | None = None):
        self._stmts: list[ir.Assign] = []
        self._domains: dict[str, tuple] = {}
        self._inputs: list[str] = []
        self._reduced: set[str] = set()
        #: the length class of the segment's base-domain inputs, once
        #: one of them has a known class.
        self._base_class: tuple | None = None
        #: block-level set of variables known to be scalars (shared with
        #: the segmenter; consulted when labelling external inputs).
        self._scalar_vars = scalar_vars if scalar_vars is not None \
            else set()
        self._classes = classes if classes is not None else {}

    def try_add(self, stmt: ir.Assign,
                used_later: dict[int, set[str]]) -> bool:
        kind = _classify(stmt)
        if kind is None:
            return False
        expr = stmt.expr

        if kind == "const":
            self._domains[stmt.target] = ANY
            self._stmts.append(stmt)
            return True

        broadcast_positions: tuple = ()
        if isinstance(expr, ir.BuiltinCall):
            builtin = hb.BUILTINS.get(expr.name)
            if builtin is not None:
                broadcast_positions = builtin.broadcast_args

        arg_vars: list[str] = []
        broadcast_vars: set[str] = set()
        if isinstance(expr, ir.BuiltinCall):
            for position, arg in enumerate(expr.args):
                if isinstance(arg, ir.Var):
                    arg_vars.append(arg.name)
                    if position in broadcast_positions:
                        broadcast_vars.add(arg.name)
        else:
            arg_vars = [a.name for a in _expr_var_args(expr)]

        # A value produced by a reduction in this segment is a cross-chunk
        # total; nothing in the same kernel may read it.
        if any(name in self._reduced for name in arg_vars):
            return False

        domains = [ANY if name in broadcast_vars else self._domain_of(name)
                   for name in arg_vars]
        base_class = self._base_class
        for name in arg_vars:
            found = self._classes.get(name)
            if found is None or name in self._domains \
                    or name in broadcast_vars or name in self._scalar_vars:
                continue
            if base_class is None:
                base_class = found
            elif found != base_class:
                return False  # a base input of another length

        if kind in ("elementwise", "cast", "alias"):
            merged = _merge_domains(domains)
            if merged is None:
                return False
            self._admit(stmt, arg_vars, broadcast_vars, base_class)
            self._domains[stmt.target] = merged
            return True

        if kind == "compress":
            mask, data = arg_vars
            mask_domain = self._domain_of(mask)
            data_domain = self._domain_of(data)
            merged = _merge_domains([mask_domain, data_domain])
            if merged is None or merged == ANY:
                return False
            self._admit(stmt, arg_vars, broadcast_vars, base_class)
            self._domains[stmt.target] = merged + (f"m:{mask}",)
            return True

        if kind == "reduction":
            if domains[0] == ANY and self._domain_of(arg_vars[0]) == ANY:
                # Reducing a constant is legal but pointless to fuse.
                return False
            self._admit(stmt, arg_vars, broadcast_vars, base_class)
            self._domains[stmt.target] = ANY
            self._reduced.add(stmt.target)
            return True
        return False

    def domain_of_target(self, name: str) -> tuple:
        """Domain recorded for a variable defined in the open segment."""
        return self._domains.get(name, BASE)

    def _domain_of(self, name: str) -> tuple:
        domain = self._domains.get(name)
        if domain is not None:
            return domain
        return ANY if name in self._scalar_vars else BASE

    def _admit(self, stmt: ir.Assign, arg_vars: list[str],
               broadcast_vars: set[str] = frozenset(),
               base_class: tuple | None = None) -> None:
        self._base_class = base_class
        for name in arg_vars:
            if name not in self._domains and name not in self._inputs:
                self._inputs.append(name)
                if name in broadcast_vars or name in self._scalar_vars:
                    self._domains[name] = ANY
                else:
                    self._domains[name] = BASE
        self._stmts.append(stmt)

    def finish(self, used_later: dict[int, set[str]]) -> list:
        """Close the segment; returns the plan items it contributes."""
        stmts = self._stmts
        if not stmts:
            self._reset()
            return []
        # The segment is a contiguous run, so the set of variables needed
        # after its *last* statement is exactly what must materialize.
        needed = used_later.get(id(stmts[-1]), set())
        outputs: list[tuple[str, str]] = []
        for stmt in stmts:
            if stmt.target in needed:
                role = self._output_role(stmt)
                if all(name != stmt.target for name, _ in outputs):
                    outputs.append((stmt.target, role))
        # Count statements doing real work (consts are free).
        real = [s for s in stmts if _classify(s) not in ("const", "alias")]
        if len(real) < 2:
            items = [OpaqueItem(s) for s in stmts]
            self._reset()
            return items
        segment = Segment(stmts, list(self._inputs), outputs,
                          dict(self._domains))
        self._reset()
        return [FusedItem(segment)]

    def _output_role(self, stmt: ir.Assign) -> str:
        if stmt.target in self._reduced:
            builtin = hb.get(stmt.expr.name)
            return f"reduce:{builtin.combine}"
        return "vector"

    def _reset(self) -> None:
        self._stmts = []
        self._domains = {}
        self._inputs = []
        self._reduced = set()
        self._base_class = None


def _expr_var_args(expr: ir.Expr) -> list[ir.Var]:
    if isinstance(expr, ir.BuiltinCall):
        return [a for a in expr.args if isinstance(a, ir.Var)]
    if isinstance(expr, ir.Cast):
        return [expr.expr] if isinstance(expr.expr, ir.Var) else []
    if isinstance(expr, ir.Var):
        return [expr]
    return []


def _merge_domains(domains: list[tuple]) -> tuple | None:
    """Unify operand domains; None when they conflict (no fusion)."""
    merged = ANY
    for domain in domains:
        if domain == ANY:
            continue
        if merged == ANY:
            merged = domain
        elif merged != domain:
            return None
    return merged
