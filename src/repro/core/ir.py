"""HorseIR abstract syntax: modules, methods, statements, expressions.

The IR is a flat, three-address style language, following the paper's
examples (Figures 2b and 6):

* a :class:`Module` holds named :class:`Method` definitions;
* a method body is a list of statements — assignments of a single
  expression to a typed local, structured ``if``/``while`` blocks, and a
  ``return``;
* expressions are at most one call deep: a builtin call ``@geq(t2, 0.05:f64)``,
  a user-method call ``@calcRevenue(t4, t5)``, a ``check_cast``, a variable
  reference, or a literal.

Keeping statements flat makes def/use facts (``depgraph``) and the
fusion optimizer straightforward, exactly as in the HorseIR compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core import types as ht

__all__ = [
    "Expr", "Var", "Literal", "SymbolLit", "BuiltinCall", "MethodCall",
    "Cast", "Stmt", "Assign", "Return", "If", "While", "Param",
    "Method", "Module",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for HorseIR expressions."""

    def children(self) -> "list[Expr]":
        return []


@dataclass
class Var(Expr):
    """Reference to a local variable or parameter."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class Literal(Expr):
    """A typed literal, e.g. ``0.05:f64`` or ``1:i64``.

    ``value`` is a plain Python object (bool/int/float/str or a
    ``numpy.datetime64`` for dates).
    """

    value: object
    type: ht.HorseType

    def __str__(self) -> str:
        if self.type == ht.STR:
            return f"\"{self.value}\":str"
        if self.type == ht.BOOL:
            return f"{1 if self.value else 0}:bool"
        return f"{self.value}:{self.type}"


@dataclass
class SymbolLit(Expr):
    """A symbol literal, e.g. ```lineitem:sym``."""

    name: str

    def __str__(self) -> str:
        return f"`{self.name}:sym"


@dataclass
class BuiltinCall(Expr):
    """A call to a built-in function, e.g. ``@compress(t3, t1)``."""

    name: str
    args: list[Expr]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"@{self.name}({args})"

    def children(self) -> list[Expr]:
        return list(self.args)


@dataclass
class MethodCall(Expr):
    """A call to a user-defined method in the same module.

    This is how UDF invocations appear after the SQL plan translation
    (Section 3.3); the inlining pass removes them.
    """

    name: str
    args: list[Expr]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"@{self.name}({args})"

    def children(self) -> list[Expr]:
        return list(self.args)


@dataclass
class Cast(Expr):
    """``check_cast(expr, type)`` — runtime checked conversion."""

    expr: Expr
    type: ht.HorseType

    def __str__(self) -> str:
        return f"check_cast({self.expr}, {self.type})"

    def children(self) -> list[Expr]:
        return [self.expr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class for HorseIR statements."""


@dataclass
class Assign(Stmt):
    """``target:type = expr;``"""

    target: str
    type: ht.HorseType
    expr: Expr

    def __str__(self) -> str:
        return f"{self.target}:{self.type} = {self.expr};"


@dataclass
class Return(Stmt):
    """``return expr;``"""

    expr: Expr

    def __str__(self) -> str:
        return f"return {self.expr};"


@dataclass
class If(Stmt):
    """Structured conditional; the condition must be a scalar bool.

    HorseIR proper lowers control flow to basic blocks; the structured form
    is sufficient for the MATLAB subset the paper supports and keeps fusion
    segments (which never span control flow) easy to delimit.
    """

    cond: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    """Structured loop; the condition must be a scalar bool."""

    cond: Expr
    body: list[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Methods and modules
# ---------------------------------------------------------------------------

@dataclass
class Param:
    """A typed method parameter."""

    name: str
    type: ht.HorseType

    def __str__(self) -> str:
        return f"{self.name}:{self.type}"


@dataclass
class Method:
    """A HorseIR method: parameters, return type and a statement body."""

    name: str
    params: list[Param]
    ret_type: ht.HorseType
    body: list[Stmt]

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    def walk_stmts(self) -> Iterator[Stmt]:
        """All statements, recursing into if/while bodies (pre-order)."""
        yield from walk_body(self.body)


def walk_body(body: list[Stmt]) -> Iterator[Stmt]:
    """The statements of ``body``, recursing into if/while bodies
    (pre-order)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_body(stmt.then_body)
            yield from walk_body(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_body(stmt.body)


@dataclass
class Module:
    """A HorseIR module: an ordered set of uniquely-named methods."""

    name: str
    methods: dict[str, Method] = field(default_factory=dict)

    def add(self, method: Method) -> None:
        if method.name in self.methods:
            raise ValueError(f"duplicate method {method.name!r} "
                             f"in module {self.name!r}")
        self.methods[method.name] = method

    def method(self, name: str) -> Method:
        return self.methods[name]

    @property
    def entry(self) -> Method:
        """The entry method: ``main`` if present, else the first method."""
        if "main" in self.methods:
            return self.methods["main"]
        return next(iter(self.methods.values()))


# ---------------------------------------------------------------------------
# Traversal / rewriting helpers used by the optimizer passes
# ---------------------------------------------------------------------------

def expr_vars(expr: Expr) -> list[str]:
    """Names of all variables referenced by ``expr`` (with duplicates)."""
    names: list[str] = []
    _collect_vars(expr, names)
    return names


def _collect_vars(expr: Expr, out: list[str]) -> None:
    if isinstance(expr, Var):
        out.append(expr.name)
    elif isinstance(expr, (BuiltinCall, MethodCall)):
        for arg in expr.args:
            _collect_vars(arg, out)
    elif isinstance(expr, Cast):
        _collect_vars(expr.expr, out)


def map_expr(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been rewritten and
    returns the (possibly new) node.  A node none of whose children
    changed is passed on as is, so ``map_expr(e, fn) is e`` exactly when
    ``fn`` rewrote nothing: callers detect a change by identity.
    Expressions are therefore shared, never mutated in place.
    """
    if isinstance(expr, (BuiltinCall, MethodCall)):
        expr = _rebuilt(expr, [map_expr(a, fn) for a in expr.args])
    elif isinstance(expr, Cast):
        inner = map_expr(expr.expr, fn)
        if inner is not expr.expr:
            expr = Cast(inner, expr.type)
    return fn(expr)


def _rebuilt(call: Expr, args: list[Expr]) -> Expr:
    """``call`` over ``args``: ``call`` itself when no argument changed."""
    for new, old in zip(args, call.args):
        if new is not old:
            return type(call)(call.name, args)
    return call


def rewrite_exprs(body: list[Stmt], fn) -> bool:
    """Replace every statement's expression (an ``if``/``while``'s
    condition) in ``body``, nested bodies included, by ``fn`` of it;
    True when ``fn`` returned a new node anywhere."""
    changed = False
    for stmt in body:
        if isinstance(stmt, (Assign, Return)):
            new = fn(stmt.expr)
            if new is not stmt.expr:
                stmt.expr = new
                changed = True
            continue
        new = fn(stmt.cond)
        if new is not stmt.cond:
            stmt.cond = new
            changed = True
        if isinstance(stmt, If):
            changed |= rewrite_exprs(stmt.then_body, fn)
            changed |= rewrite_exprs(stmt.else_body, fn)
        else:
            changed |= rewrite_exprs(stmt.body, fn)
    return changed


def copy_body(body: list[Stmt], fn=None) -> list[Stmt]:
    """A statement-level copy of ``body``, nested bodies included, with
    ``fn`` applied to every expression (when given).  Expressions are
    shared: rewrites replace them, never mutate them."""
    out: list[Stmt] = []
    for stmt in body:
        if isinstance(stmt, Assign):
            out.append(Assign(stmt.target, stmt.type,
                              fn(stmt.expr) if fn else stmt.expr))
        elif isinstance(stmt, Return):
            out.append(Return(fn(stmt.expr) if fn else stmt.expr))
        elif isinstance(stmt, If):
            out.append(If(fn(stmt.cond) if fn else stmt.cond,
                          copy_body(stmt.then_body, fn),
                          copy_body(stmt.else_body, fn)))
        else:
            out.append(While(fn(stmt.cond) if fn else stmt.cond,
                             copy_body(stmt.body, fn)))
    return out


def rename_expr(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite variable references through ``mapping`` (missing = keep);
    as :func:`map_expr`, ``expr`` itself when nothing was renamed."""
    if isinstance(expr, Var):
        name = mapping.get(expr.name)
        if name is None or name == expr.name:
            return expr
        return Var(name)
    if isinstance(expr, (BuiltinCall, MethodCall)):
        return _rebuilt(expr, [rename_expr(a, mapping) for a in expr.args])
    if isinstance(expr, Cast):
        inner = rename_expr(expr.expr, mapping)
        return expr if inner is expr.expr else Cast(inner, expr.type)
    return expr


def substitute_expr(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variable references with whole expressions."""
    def substitute(node: Expr) -> Expr:
        if isinstance(node, Var) and node.name in mapping:
            return mapping[node.name]
        return node
    return map_expr(expr, substitute)
