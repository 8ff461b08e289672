"""Lower string statements to dictionary codes, just before segmentation.

A ``str`` vector is physically int32 codes into a sorted dictionary
(:mod:`repro.core.strings`).  This pass rewrites an optimized method so
the row-level half of every string predicate is an integer op the fusion
pass can put in a kernel, and the dictionary-sized half runs once, as an
opaque statement placed right after the definition of the string it
reads:

* ``@eq`` / ``@neq`` against a constant string become an integer compare
  with that string's code, found by ``@str_find`` (-1 when absent);
* ``@lt`` ``@leq`` ``@gt`` ``@geq`` ``@member`` ``@like`` ``@startswith``
  with constant (or whole-value) other operands run once over
  ``@str_dict`` — the dictionary as a vector — and the row-level op
  becomes ``@gather(table, codes)``;
* ``@compress`` of a string compresses its codes (``@str_codes``); the
  string itself is rebuilt by ``@str_decode`` right before the first
  statement that needs it as a string.

Nothing data-dependent is baked in: codes, dictionaries and tables are
runtime values.  Statements the rewrite does not cover (two row-level
string operands, string-producing ops, anything inside control flow)
keep their string operands and are reported back as opaque, so they run
as single builtin calls on the decoded or encoded vector and no fused
kernel ever receives a string.

It runs after the optimizer, so ``--dump-ir``, lint and EXPLAIN show
the logical ``str`` program, and only where fusion is on (the naive
configuration runs each builtin on its own, which is already per
dictionary entry).
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht

__all__ = ["lower_strings"]

#: Predicates lowered to codes when their string operand is the only
#: row-level one.
_PREDICATES = frozenset({"eq", "neq", "lt", "leq", "gt", "geq",
                         "member", "like", "startswith"})
#: ... of which these compare codes with a constant string's code.
_BY_CODE = frozenset({"eq", "neq"})


def lower_strings(method: ir.Method) -> tuple[ir.Method, frozenset]:
    """``(lowered method, targets that must not fuse)``.  A method with
    no string values comes back as it is.  Types are read from the
    declarations, which compilation has already resolved."""
    types = {param.name: param.type for param in method.params}
    counts: dict[str, int] = {}
    for stmt in method.walk_stmts():
        if isinstance(stmt, ir.Assign):
            counts[stmt.target] = counts.get(stmt.target, 0) + 1
            types[stmt.target] = stmt.type
    if ht.STR not in types.values():
        return method, frozenset()
    lowering = _Lowering(method, types, counts)
    body = lowering.run(method.body)
    lowered = ir.Method(method.name, method.params, method.ret_type, body)
    return lowered, frozenset(lowering.opaque)


class _Lowering:
    """One linear walk over a method's top-level block."""

    def __init__(self, method: ir.Method, types: dict, counts: dict):
        self.types = types
        self.counts = counts
        self.params = {param.name for param in method.params}
        self.taken = set(types)
        #: single-assigned top-level variable -> (index, statement)
        self.defs: dict[str, tuple[int, ir.Assign]] = {}
        #: statements to emit right after top-level statement ``index``
        #: (-1: at the start of the body)
        self.after: dict[int, list[ir.Assign]] = {}
        #: string variable -> the variable whose vector carries its
        #: dictionary (itself for a string held as a vector)
        self.root: dict[str, str] = {}
        #: string variable -> variable holding its codes
        self.codes: dict[str, str] = {}
        #: strings so far held only as codes
        self.pending: set[str] = set()
        self.memo: dict[tuple, str] = {}
        self.opaque: set[str] = set()
        for name in self.params:
            if types[name] is ht.STR and name not in counts:
                self.root[name] = name

    # -- the walk -------------------------------------------------------------

    def run(self, body: list[ir.Stmt]) -> list[ir.Stmt]:
        rewritten: list[list[ir.Stmt]] = []
        for index, stmt in enumerate(body):
            before: list[ir.Stmt] = []
            if isinstance(stmt, ir.Assign):
                new = self._lower(stmt)
                if new is None:
                    before = self._materialize(ir.expr_vars(stmt.expr))
                    new = self._keep(index, stmt)
            else:
                before = self._materialize(_uses(stmt))
                self._keep_nested(stmt)
                new = stmt
            rewritten.append(before + [new])
        out: list[ir.Stmt] = list(self.after.get(-1, []))
        for index, stmts in enumerate(rewritten):
            out.extend(stmts)
            out.extend(self.after.get(index, []))
        return out

    def _keep(self, index: int, stmt: ir.Assign) -> ir.Assign:
        """A statement left as it is: opaque if it touches a string; a
        string it defines (once) becomes a dictionary root."""
        if self._touches_string(stmt):
            self.opaque.add(stmt.target)
        if self.counts.get(stmt.target) == 1:
            self.defs[stmt.target] = (index, stmt)
            if self.types[stmt.target] is ht.STR:
                self.root[stmt.target] = stmt.target
        return stmt

    def _keep_nested(self, stmt: ir.Stmt) -> None:
        for inner in _walk(stmt):
            if isinstance(inner, ir.Assign) and self._touches_string(inner):
                self.opaque.add(inner.target)

    def _touches_string(self, stmt: ir.Assign) -> bool:
        return any(self.types.get(name) is ht.STR
                   for name in [stmt.target, *ir.expr_vars(stmt.expr)])

    def _materialize(self, names: list[str]) -> list[ir.Stmt]:
        """``@str_decode`` for each string used here that is so far
        held only as codes."""
        stmts = []
        for name in dict.fromkeys(names):
            if name in self.pending:
                self.pending.discard(name)
                stmts.append(ir.Assign(name, ht.STR, ir.BuiltinCall(
                    "str_decode", [ir.Var(self.codes[name]),
                                   ir.Var(self.root[name])])))
                self.opaque.add(name)
        return stmts

    # -- rewrites ---------------------------------------------------------------

    def _lower(self, stmt: ir.Assign) -> ir.Assign | None:
        expr = stmt.expr
        if not isinstance(expr, ir.BuiltinCall) \
                or self.counts.get(stmt.target) != 1:
            return None
        if expr.name == "compress":
            return self._lower_compress(stmt)
        if expr.name in _PREDICATES:
            return self._lower_predicate(stmt)
        return None

    def _lower_compress(self, stmt: ir.Assign) -> ir.Assign | None:
        mask, data = stmt.expr.args
        if not (isinstance(mask, ir.Var) and isinstance(data, ir.Var)
                and data.name in self.root):
            return None
        codes = self._fresh(stmt.target + "__c", ht.I32)
        self.root[stmt.target] = self.root[data.name]
        self.codes[stmt.target] = codes
        self.pending.add(stmt.target)
        return ir.Assign(codes, ht.I32, ir.BuiltinCall(
            "compress", [mask, ir.Var(self._codes_of(data.name))]))

    def _lower_predicate(self, stmt: ir.Assign) -> ir.Assign | None:
        expr = stmt.expr
        whole = hb.get(expr.name).broadcast_args
        strings = [position for position, arg in enumerate(expr.args)
                   if position not in whole and isinstance(arg, ir.Var)
                   and arg.name in self.root]
        if len(strings) != 1:
            return None
        [position] = strings
        name = expr.args[position].name
        root = self.root[name]
        others: dict[int, tuple[ir.Expr, int]] = {}
        for other, arg in enumerate(expr.args):
            if other == position:
                continue
            placed = self._placed(arg, constant_only=other not in whole)
            if placed is None:
                return None
            others[other] = placed
        codes = ir.Var(self._codes_of(name))
        if expr.name in _BY_CODE:
            [(constant, _)] = others.values()
            if isinstance(constant, ir.Literal) and constant.type is ht.STR:
                code = self._emit(("find", root, constant.value),
                                  self._slot(root), root + "__k", ht.I32,
                                  ir.BuiltinCall("str_find",
                                                 [ir.Var(root), constant]))
                return ir.Assign(stmt.target, stmt.type, ir.BuiltinCall(
                    expr.name, [codes, ir.Var(code)]))
        entries = ir.Var(self._dict_of(root))
        args = [entries if other == position else others[other][0]
                for other in range(len(expr.args))]
        slot = max([self._slot(root)]
                   + [placed_at for _, placed_at in others.values()])
        table = self._emit(("table", expr.name, *map(str, args)), slot,
                           root + "__t", stmt.type,
                           ir.BuiltinCall(expr.name, args))
        self.opaque.add(table)
        return ir.Assign(stmt.target, stmt.type, ir.BuiltinCall(
            "gather", [ir.Var(table), codes]))

    # -- helpers ------------------------------------------------------------------

    def _placed(self, arg: ir.Expr, *, constant_only: bool
                ) -> tuple[ir.Expr, int] | None:
        """``(expr, slot)`` for an operand evaluated once: a literal (or
        a variable assigned one) anywhere; otherwise, unless
        ``constant_only``, a variable defined by a statement that never
        fuses, usable right after it."""
        if isinstance(arg, ir.Literal):
            return arg, -1
        if not isinstance(arg, ir.Var):
            return None
        defined = self.defs.get(arg.name)
        if defined is not None and isinstance(defined[1].expr, ir.Literal):
            return defined[1].expr, -1
        if constant_only:
            return None
        if arg.name in self.params:
            return arg, -1
        if defined is None:
            return None
        index, stmt = defined
        if stmt.target in self.opaque or not _fusable_kind(stmt.expr):
            return arg, index
        return None

    def _slot(self, root: str) -> int:
        defined = self.defs.get(root)
        return -1 if defined is None else defined[0]

    def _codes_of(self, name: str) -> str:
        if name not in self.codes:
            self.codes[name] = self._emit(
                ("codes", name), self._slot(name), name + "__c", ht.I32,
                ir.BuiltinCall("str_codes", [ir.Var(name)]))
        return self.codes[name]

    def _dict_of(self, root: str) -> str:
        name = self._emit(("dict", root), self._slot(root), root + "__d",
                          ht.STR, ir.BuiltinCall("str_dict", [ir.Var(root)]))
        self.opaque.add(name)
        return name

    def _emit(self, key: tuple, slot: int, hint: str, type_: ht.HorseType,
              expr: ir.Expr) -> str:
        """The variable holding ``expr``, emitted once after ``slot``."""
        name = self.memo.get(key)
        if name is None:
            name = self.memo[key] = self._fresh(hint, type_)
            self.after.setdefault(slot, []).append(
                ir.Assign(name, type_, expr))
        return name

    def _fresh(self, hint: str, type_: ht.HorseType) -> str:
        name, suffix = hint, 0
        while name in self.taken:
            suffix += 1
            name = f"{hint}{suffix}"
        self.taken.add(name)
        self.types[name] = type_
        return name


def _fusable_kind(expr: ir.Expr) -> bool:
    """Could the segmenter put this statement in a kernel?"""
    if isinstance(expr, ir.BuiltinCall):
        builtin = hb.BUILTINS.get(expr.name)
        return builtin is not None and builtin.is_fusable
    return isinstance(expr, (ir.Cast, ir.Var, ir.Literal, ir.SymbolLit))


def _uses(stmt: ir.Stmt) -> list[str]:
    """Every variable a return / if / while reads, nested bodies
    included."""
    if isinstance(stmt, ir.Return):
        return ir.expr_vars(stmt.expr)
    names = []
    for inner in _walk(stmt):
        if isinstance(inner, (ir.Assign, ir.Return)):
            names.extend(ir.expr_vars(inner.expr))
        elif isinstance(inner, (ir.If, ir.While)):
            names.extend(ir.expr_vars(inner.cond))
    return names


def _walk(stmt: ir.Stmt):
    """``stmt`` and, for an if / while, every statement nested in it."""
    yield stmt
    if isinstance(stmt, ir.If):
        for inner in stmt.then_body + stmt.else_body:
            yield from _walk(inner)
    elif isinstance(stmt, ir.While):
        for inner in stmt.body:
            yield from _walk(inner)
