"""Type-and-shape inference over HorseIR methods.

Every statement gets a :class:`TypeShape` — a ``(HorseType, Shape)``
lattice value.  Element types propagate through builtins via each
builtin's record in :mod:`repro.core.builtins` (constraint kinds per
argument, a shape rule, and the ``infer`` callable); lengths propagate
through broadcast rules:

* ``scalar × n → n`` — length-one values broadcast into any length;
* ``n × n → n`` — equal concrete lengths (or equal symbolic tokens)
  pass through;
* ``n × m`` with ``n ≠ m`` concrete and neither 1 is a **shape
  error** — the only case the checker rejects.

Symbolic length tokens name where a length comes from:

* ``("rows", ("table", name))`` — a column of ``@load_table(`name)``;
* ``("compress", ("var", m))`` / ``("where", ("var", m))`` — a
  compression by (the true positions of) mask ``m``, assigned once, so
  two compressions agree only under the same mask;
* ``("join", ("var", j))`` — an index vector of the join ``j =
  @join_index(...)``, assigned once, carried through ``@index``;
* ``("param", name)`` — a parameter's length.

Tokens are deliberately coarse: distinct tokens mean "unknown
relation" (never an error).  The checker therefore only reports
*provable* conflicts and stays silent on everything it cannot decide —
all existing TPC-H and Black-Scholes modules infer clean.  Loop fusion
reads the same tokens (:mod:`repro.core.optimizer.fusion`).

Types are decided once: :func:`resolve_types`, run when compilation
starts, writes the type of every ``?`` declaration into the IR, so the
optimizer, fusion and code generation read declarations.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.printer import print_stmt
from repro.errors import HorseTypeError

__all__ = ["Shape", "TypeShape", "SCALAR", "TABLE_SHAPE", "LIST_SHAPE",
           "UNKNOWN", "vector_shape", "broadcast_shapes",
           "infer_method", "MethodTypeShapes", "consistent_types",
           "redundant_casts", "resolve_types"]


class Shape(NamedTuple):
    """Value extent: ``kind`` is ``scalar``/``vector``/``table``/
    ``list``/``unknown``; vectors carry a concrete ``length`` *or* a
    symbolic ``token`` naming their length class (both ``None`` =
    unknown length)."""

    kind: str
    length: int | None = None
    token: object = None


SCALAR = Shape("scalar", 1)
TABLE_SHAPE = Shape("table")
LIST_SHAPE = Shape("list")
UNKNOWN = Shape("unknown")


def vector_shape(length: int | None = None,
                 token: object = None) -> Shape:
    if length is not None:
        return Shape("vector", int(length), None)
    return Shape("vector", None, token)


class TypeShape(NamedTuple):
    type: ht.HorseType
    shape: Shape


def _is_lengthy(shape: Shape) -> bool:
    return shape.kind in ("scalar", "vector")


def broadcast_shapes(shapes: list[Shape], *, context: str = "") -> Shape:
    """Combine elementwise-operand shapes; raises
    :class:`HorseTypeError` on a provable concrete length conflict."""
    lengths: list[int] = []
    tokens: list[object] = []
    sized = True
    for shape in shapes:
        if not _is_lengthy(shape):
            sized = False
            continue
        if shape.kind == "scalar" or shape.length == 1:
            continue
        if shape.length is not None:
            lengths.append(shape.length)
        elif shape.token is not None:
            tokens.append(shape.token)
        else:
            sized = False
    distinct = sorted(set(lengths))
    if len(distinct) > 1:
        where = f" in {context}" if context else ""
        raise HorseTypeError(
            "broadcast length mismatch"
            f"{where}: {' vs '.join(str(n) for n in distinct)}")
    if distinct:
        if tokens or not sized:
            return vector_shape(token=None)
        return vector_shape(length=distinct[0])
    if tokens:
        first = tokens[0]
        if sized and all(t == first for t in tokens[1:]):
            return vector_shape(token=first)
        return vector_shape()
    if sized and shapes and all(s.kind == "scalar" or s.length == 1
                                for s in shapes if _is_lengthy(s)) \
            and all(_is_lengthy(s) for s in shapes):
        return SCALAR
    return vector_shape()


def _check_equal_length(a: Shape, b: Shape, context: str) -> None:
    """Reject provably-unequal concrete lengths (no broadcast)."""
    if a.kind in ("scalar", "vector") and b.kind in ("scalar", "vector"):
        if a.length is not None and b.length is not None \
                and a.length != b.length:
            raise HorseTypeError(
                f"length mismatch in {context}: "
                f"{a.length} vs {b.length}")


class MethodTypeShapes(NamedTuple):
    """Inference result for one method."""

    #: ``id(stmt) -> TypeShape`` of each Assign's right-hand side.
    stmt_facts: dict
    #: final variable environment (``var -> TypeShape``).
    var_facts: dict
    #: ``id(stmt) -> {var: TypeShape}`` of the variables each Assign
    #: reads, as it reads them.
    operand_facts: dict


def infer_method(method: ir.Method, module: ir.Module | None = None, *,
                 strict: bool = False) -> MethodTypeShapes:
    """Infer ``(type, shape)`` for every statement of ``method``.

    With ``strict=True`` the first problem raises
    :class:`HorseTypeError` naming the statement; otherwise inference
    steps over problems and recovers with ⊤.
    """
    engine = _Inference(method, module, strict)
    engine.run()
    return MethodTypeShapes(engine.stmt_facts, engine.env,
                            engine.operand_facts)


_UNKNOWN_FACT = TypeShape(ht.WILDCARD, UNKNOWN)


def resolve_types(module: ir.Module) -> ir.Module:
    """A new ``module`` in which every ``?`` declaration carries the
    type ``Builtin.infer`` or the callee's return type gives it.

    One linear walk per method; a variable two paths type differently
    (an ``if``'s branches, a loop's entry and end) is unknown after
    them, so a ``?`` survives only over unknown operands (a ``?``
    parameter).  ``list<?>`` stays.  Methods without a ``?`` are
    shared, the others rebuilt: the caller's module is not touched."""
    returns = {name: callee.ret_type
               for name, callee in module.methods.items()}
    resolved = ir.Module(module.name)
    for method in module.methods.values():
        if any(isinstance(stmt, ir.Assign) and stmt.type.is_wildcard
               for stmt in method.walk_stmts()):
            types = {param.name: param.type for param in method.params}
            method = ir.Method(method.name, method.params, method.ret_type,
                               _resolve_body(method.body, types, returns))
        resolved.add(method)
    return resolved


def _resolve_body(body: list[ir.Stmt], types: dict,
                  returns: dict) -> list[ir.Stmt]:
    """A copy of ``body`` with its ``?`` declarations resolved;
    ``types`` (variable -> type) is read and updated as the walk goes."""
    out: list[ir.Stmt] = []
    for stmt in body:
        if isinstance(stmt, ir.Assign):
            type_ = stmt.type
            if type_.is_wildcard:
                type_ = _infer(stmt.expr, types, returns)
            types[stmt.target] = type_
            out.append(ir.Assign(stmt.target, type_, stmt.expr))
        elif isinstance(stmt, ir.If):
            other = dict(types)
            then_body = _resolve_body(stmt.then_body, types, returns)
            else_body = _resolve_body(stmt.else_body, other, returns)
            _merge_types(types, other)
            out.append(ir.If(stmt.cond, then_body, else_body))
        elif isinstance(stmt, ir.While):
            while True:  # until the entry types hold at the end too
                entry = dict(types)
                loop_body = _resolve_body(stmt.body, types, returns)
                _merge_types(types, entry)
                if types == entry:
                    break
            out.append(ir.While(stmt.cond, loop_body))
        else:
            out.append(stmt)
    return out


def _merge_types(types: dict, other: dict) -> None:
    """Keep in ``types`` what ``other`` agrees with; a variable the two
    type differently is unknown."""
    for name, type_ in other.items():
        if types.setdefault(name, type_) != type_:
            types[name] = ht.WILDCARD


def _infer(expr: ir.Expr, types: dict, returns: dict) -> ht.HorseType:
    if isinstance(expr, (ir.Literal, ir.Cast)):
        return expr.type
    if isinstance(expr, ir.SymbolLit):
        return ht.SYM
    if isinstance(expr, ir.Var):
        return types.get(expr.name, ht.WILDCARD)
    if isinstance(expr, ir.MethodCall):
        return returns.get(expr.name, ht.WILDCARD)
    if isinstance(expr, ir.BuiltinCall) and hb.exists(expr.name):
        arg_types = [_infer(arg, types, returns) for arg in expr.args]
        try:
            return hb.get(expr.name).infer(arg_types)
        except Exception:  # noqa: BLE001 - an uninferable call is unknown
            return ht.WILDCARD
    return ht.WILDCARD


class _Inference:
    def __init__(self, method: ir.Method, module: ir.Module | None,
                 strict: bool):
        self.method = method
        self.module = module
        self.strict = strict
        self.stmt_facts: dict = {}
        self.operand_facts: dict = {}
        #: where the variables the current statement reads are recorded
        self._reads: dict[str, TypeShape] = {}
        self.env: dict[str, TypeShape] = {}
        #: variables currently known to hold a concrete scalar int.
        self.consts: dict[str, int] = {}
        #: definitions per variable: a variable defined once holds one
        #: value, its identity.
        self.definitions = {param.name: 1 for param in method.params}
        _count_definitions(method.body, 1, self.definitions)
        for param in method.params:
            self.env[param.name] = TypeShape(
                param.type, _shape_of_type(param.type,
                                           ("param", param.name)))

    # -- error plumbing ----------------------------------------------------

    def _problem(self, stmt: ir.Stmt, message: str) -> None:
        # Outside strict mode a problem is dropped, so the checks that
        # do nothing but report (declarations, returns, conditions,
        # argument constraints) are not run at all.
        if self.strict:
            raise HorseTypeError(
                f"{message} [method {self.method.name!r}: "
                f"{print_stmt(stmt)}]")

    # -- driver ------------------------------------------------------------

    def run(self) -> None:
        self._run_body(self.method.body)

    def _run_body(self, body: list[ir.Stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ir.Assign):
                self._run_assign(stmt)
            elif isinstance(stmt, ir.Return):
                if self.strict:
                    self._check_return(stmt, self._expr(stmt.expr, stmt))
            elif isinstance(stmt, ir.If):
                if self.strict:
                    self._check_cond(stmt, stmt.cond)
                snapshot = (dict(self.env), dict(self.consts))
                self._run_body(stmt.then_body)
                then_state = (self.env, self.consts)
                self.env, self.consts = (dict(snapshot[0]),
                                         dict(snapshot[1]))
                self._run_body(stmt.else_body)
                self._merge_state(then_state)
            elif isinstance(stmt, ir.While):
                if self.strict:
                    self._check_cond(stmt, stmt.cond)
                snapshot = (dict(self.env), dict(self.consts))
                # Two rounds: the first discovers loop-carried facts,
                # the merge weakens anything the body changes, the
                # second re-checks the body under the weakened state.
                self._run_body(stmt.body)
                self._merge_state((snapshot[0], snapshot[1]))
                self._run_body(stmt.body)
                self._merge_state((snapshot[0], snapshot[1]))

    def _merge_state(self, other) -> None:
        other_env, other_consts = other
        merged: dict[str, TypeShape] = {}
        for name, fact in self.env.items():
            if name in other_env:
                merged[name] = _join_fact(fact, other_env[name])
            else:
                merged[name] = fact
        for name, fact in other_env.items():
            merged.setdefault(name, fact)
        self.env = merged
        self.consts = {name: value
                       for name, value in self.consts.items()
                       if other_consts.get(name) == value}

    # -- statements --------------------------------------------------------

    def _run_assign(self, stmt: ir.Assign) -> None:
        self._reads = self.operand_facts[id(stmt)] = {}
        try:
            fact = self._expr(stmt.expr, stmt)
        except HorseTypeError:
            if self.strict:
                raise
            fact = _UNKNOWN_FACT
        self._reads = {}  # what a return or condition reads goes nowhere
        self.stmt_facts[id(stmt)] = fact
        if self.strict:
            self._check_declared(stmt, fact)
        final_type = fact.type
        if final_type.is_wildcard and stmt.type is not None:
            final_type = stmt.type
        self.env[stmt.target] = TypeShape(final_type, fact.shape)
        value = _literal_int(stmt.expr)
        if value is not None:
            self.consts[stmt.target] = value
        else:
            self.consts.pop(stmt.target, None)

    def _check_declared(self, stmt: ir.Assign, fact: TypeShape) -> None:
        if not _assignable(stmt.type, fact.type,
                           exact=_states_type(stmt.expr)):
            self._problem(
                stmt,
                f"type mismatch: {stmt.target!r} declares {stmt.type} "
                f"but its expression produces {fact.type}")

    def _check_return(self, stmt: ir.Return, fact: TypeShape) -> None:
        declared = self.method.ret_type
        produced, exact = fact.type, _states_type(stmt.expr)
        if isinstance(stmt.expr, ir.Var):
            stated = consistent_types(self.method).get(stmt.expr.name)
            if stated is not None:
                produced, exact = stated, True
        # A wildcard on either side of a return holds anything.
        if declared is None or declared.is_wildcard \
                or produced.is_wildcard:
            return
        if not _assignable(declared, produced, exact=exact):
            self._problem(
                stmt,
                f"return type mismatch: declares {declared} but "
                f"returns a value of type {produced}")

    def _check_cond(self, stmt: ir.Stmt, cond: ir.Expr) -> None:
        fact = self._expr(cond, stmt)
        if fact.type.kind in ("table",) or fact.type.kind == "list":
            self._problem(stmt,
                          f"condition has non-scalar type {fact.type}")

    # -- expressions -------------------------------------------------------

    def _expr(self, expr: ir.Expr, stmt: ir.Stmt) -> TypeShape:
        if isinstance(expr, ir.Var):
            fact = self._reads[expr.name] = self.env.get(expr.name,
                                                         _UNKNOWN_FACT)
            return fact
        if isinstance(expr, ir.Literal):
            lit_type = expr.type if expr.type is not None else ht.WILDCARD
            return TypeShape(lit_type, SCALAR)
        if isinstance(expr, ir.SymbolLit):
            return TypeShape(ht.SYM, SCALAR)
        if isinstance(expr, ir.Cast):
            return self._cast(expr, stmt)
        if isinstance(expr, ir.BuiltinCall):
            return self._builtin(expr, stmt)
        if isinstance(expr, ir.MethodCall):
            return self._method_call(expr, stmt)
        return TypeShape(ht.WILDCARD, UNKNOWN)

    def _cast(self, expr: ir.Cast, stmt: ir.Stmt) -> TypeShape:
        inner = self._expr(expr.expr, stmt)
        target = expr.type
        if not inner.type.is_wildcard and not target.is_wildcard:
            inner_container = _container_kind(inner.type)
            target_container = _container_kind(target)
            if inner_container != target_container:
                self._problem(
                    stmt,
                    f"cannot cast a {inner.type} value to {target} "
                    f"(runtime coercion would fail)")
        shape = inner.shape
        if target == ht.TABLE:
            shape = TABLE_SHAPE
        elif target.kind == "list":
            shape = LIST_SHAPE
        return TypeShape(target, shape)

    def _method_call(self, expr: ir.MethodCall,
                     stmt: ir.Stmt) -> TypeShape:
        facts = [self._expr(a, stmt) for a in expr.args]
        if self.module is None or expr.name not in self.module.methods:
            return TypeShape(ht.WILDCARD, UNKNOWN)
        callee = self.module.methods[expr.name]
        for position, (param, fact) in enumerate(
                zip(callee.params, facts)):
            if not _assignable(param.type, fact.type, exact=False):
                self._problem(
                    stmt,
                    f"@{expr.name} parameter {param.name!r} has type "
                    f"{param.type} but argument {position + 1} has "
                    f"type {fact.type}")
        ret = callee.ret_type
        if ret == ht.TABLE:
            shape = TABLE_SHAPE
        elif ret.kind == "list":
            shape = LIST_SHAPE
        else:
            # Scalar UDFs map elementwise over their row arguments.
            shape = broadcast_shapes([f.shape for f in facts],
                                     context=f"@{expr.name}")
        return TypeShape(ret, shape)

    def _builtin(self, expr: ir.BuiltinCall,
                 stmt: ir.Stmt) -> TypeShape:
        facts = [self._expr(a, stmt) for a in expr.args]
        arg_types = [f.type for f in facts]
        builtin = hb.BUILTINS.get(expr.name)
        if builtin is None:
            return TypeShape(ht.WILDCARD, UNKNOWN)
        if self.strict:
            self._check_constraints(expr, builtin, arg_types, stmt)
        try:
            out_type = builtin.infer(arg_types)
        except HorseTypeError as exc:
            self._problem(stmt, f"@{expr.name}: {exc}")
            out_type = ht.WILDCARD
        shape = self._result_shape(expr, builtin, facts, stmt)
        return TypeShape(out_type, shape)

    def _check_constraints(self, expr: ir.BuiltinCall, builtin,
                           arg_types, stmt: ir.Stmt) -> None:
        for position, arg_type in enumerate(arg_types):
            constraint = _constraint_at(builtin, position)
            if constraint is None:
                continue
            if not _satisfies(arg_type, constraint):
                self._problem(
                    stmt,
                    f"@{expr.name} argument {position + 1} has type "
                    f"{arg_type} where "
                    f"{hb.CONSTRAINT_KINDS[constraint]} is required")
        if expr.name in hb.COMPARISONS:
            groups = {_comparison_group(t) for t in arg_types
                      if not t.is_wildcard}
            groups.discard(None)
            if len(groups) > 1:
                self._problem(
                    stmt,
                    f"@{expr.name} compares incompatible types "
                    f"{arg_types[0]} and {arg_types[1]}")

    def _result_shape(self, expr: ir.BuiltinCall, builtin,
                      facts, stmt: ir.Stmt) -> Shape:
        shapes = [f.shape for f in facts]
        rule = builtin.shape
        name = expr.name
        if rule == "elementwise":
            skip = set(builtin.broadcast_args)
            operand_shapes = [s for i, s in enumerate(shapes)
                              if i not in skip]
            try:
                return broadcast_shapes(operand_shapes,
                                        context=f"@{name}")
            except HorseTypeError as exc:
                self._problem(stmt, str(exc))
                return vector_shape()
        if rule in ("reduction", "scalar"):
            return SCALAR
        if rule == "compress":
            if len(shapes) == 2:
                try:
                    _check_equal_length(shapes[0], shapes[1],
                                        f"@{name}")
                except HorseTypeError as exc:
                    self._problem(stmt, str(exc))
            return self._identity_shape("compress", expr.args[0])
        if rule == "index":
            return shapes[1] if len(shapes) > 1 else vector_shape()
        if rule == "where":
            return self._identity_shape("where", expr.args[0])
        if rule.startswith("same:"):
            position = int(rule.split(":", 1)[1])
            return shapes[position] if position < len(shapes) \
                else vector_shape()
        if rule == "range":
            n = self._const_arg(expr.args[0])
            if n is not None and n >= 0:
                return vector_shape(length=n)
            return vector_shape(
                token=("range", _source_token(expr.args[0], SCALAR)))
        if rule == "fill":
            n = self._const_arg(expr.args[0])
            if n is not None and n >= 0:
                return vector_shape(length=n)
            return vector_shape(
                token=("fill", _source_token(expr.args[0], SCALAR)))
        if rule == "group_agg":
            n = self._const_arg(expr.args[2]) \
                if len(expr.args) > 2 else None
            if n is not None and n >= 0:
                return vector_shape(length=n)
            return vector_shape()
        if rule == "table":
            if name == "load_table" and isinstance(expr.args[0],
                                                   ir.SymbolLit):
                return Shape("table", None, ("table", expr.args[0].name))
            return TABLE_SHAPE
        if rule == "list":
            return LIST_SHAPE
        if rule == "join":
            # Both index vectors of one join have its pair count.
            if isinstance(stmt, ir.Assign) and stmt.expr is expr:
                token = self._identity(stmt.target)
                if token is not None:
                    return Shape("list", None, ("join", token))
            return LIST_SHAPE
        if rule == "list_item":
            token = shapes[0].token if shapes else None
            if token is not None and token[0] == "join":
                return vector_shape(token=token)
            return UNKNOWN
        if rule == "column":
            table_token = shapes[0].token if shapes else None
            if table_token is None:
                table_token = _source_token(expr.args[0], shapes[0]) \
                    if expr.args else None
            return vector_shape(token=("rows", table_token))
        if rule == "vector":
            return vector_shape()
        return UNKNOWN

    def _identity(self, name: str) -> tuple | None:
        """The token of the one value a variable defined once holds."""
        return ("var", name) if self.definitions.get(name) == 1 else None

    def _identity_shape(self, kind: str, mask: ir.Expr) -> Shape:
        """A selection by ``mask``: its length is ``mask``'s own count,
        known only for a mask variable defined once."""
        token = self._identity(mask.name) \
            if isinstance(mask, ir.Var) else None
        return vector_shape(token=None if token is None else (kind, token))

    def _const_arg(self, arg: ir.Expr) -> int | None:
        value = _literal_int(arg)
        if value is not None:
            return value
        if isinstance(arg, ir.Var):
            return self.consts.get(arg.name)
        return None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _shape_of_type(t: ht.HorseType, token: object) -> Shape:
    if t == ht.TABLE:
        return Shape("table", None, token)
    if t.kind == "list":
        return LIST_SHAPE
    if t.is_wildcard:
        return UNKNOWN
    return vector_shape(token=token)


def _count_definitions(body: list[ir.Stmt], weight: int,
                       counts: dict[str, int]) -> None:
    """Add ``weight`` per assignment in ``body``; an assignment inside a
    loop counts twice, since it holds one value per iteration."""
    for stmt in body:
        if isinstance(stmt, ir.Assign):
            counts[stmt.target] = counts.get(stmt.target, 0) + weight
        elif isinstance(stmt, ir.If):
            _count_definitions(stmt.then_body, weight, counts)
            _count_definitions(stmt.else_body, weight, counts)
        elif isinstance(stmt, ir.While):
            _count_definitions(stmt.body, 2, counts)


def _literal_int(expr: ir.Expr) -> int | None:
    if isinstance(expr, ir.Literal) \
            and isinstance(expr.value, (int, bool)) \
            and not isinstance(expr.value, float):
        return int(expr.value)
    return None


def _source_token(arg: ir.Expr, shape: Shape) -> object:
    if shape is not None and getattr(shape, "token", None) is not None:
        return shape.token
    if isinstance(arg, ir.Var):
        return ("var", arg.name)
    return ("expr", id(arg))


def _container_kind(t: ht.HorseType) -> str:
    if t == ht.TABLE:
        return "table"
    if t.kind == "list":
        return "list"
    return "vector"


def _assignable(declared: ht.HorseType | None, produced: ht.HorseType,
                *, exact: bool) -> bool:
    """Can a value of ``produced`` type land in a slot declared
    ``declared``?  The one type rule: a type the program states
    (``exact`` — a typed literal, a cast, a consistently declared
    variable) must equal the declaration; an inferred one follows
    :func:`repro.core.values.coerce`, where a wildcard on either side
    fits, vector element types re-coerce freely and only
    container-kind mismatches (table/list vs anything else) fail at
    runtime."""
    if declared is None:
        return True
    if exact:
        return declared == produced
    if declared.is_wildcard or produced.is_wildcard:
        return True
    return _container_kind(declared) == _container_kind(produced)


def _states_type(expr: ir.Expr) -> bool:
    """Does ``expr`` spell its own type out (typed literal, cast)?"""
    return isinstance(expr, (ir.Literal, ir.Cast)) \
        and expr.type is not None


def consistent_types(method: ir.Method, type_of=lambda stmt: stmt.type) \
        -> dict[str, ht.HorseType | None]:
    """``variable -> its one type`` over ``method``'s parameters and
    assignments, ``None`` where two definitions disagree.  ``type_of``
    picks what an assignment contributes (its declaration by
    default)."""
    types = {p.name: p.type for p in method.params}
    for stmt in method.walk_stmts():
        if isinstance(stmt, ir.Assign):
            found = type_of(stmt)
            if types.setdefault(stmt.target, found) != found:
                types[stmt.target] = None
    return types


def redundant_casts(method: ir.Method, types: dict):
    """The assignments ``x = check_cast(v, T)`` of ``method`` whose
    operand ``types`` (a :func:`consistent_types` map) gives exactly
    ``T``."""
    for stmt in method.walk_stmts():
        if isinstance(stmt, ir.Assign) and isinstance(stmt.expr, ir.Cast) \
                and isinstance(stmt.expr.expr, ir.Var):
            source = types.get(stmt.expr.expr.name)
            if source is not None and not source.is_wildcard \
                    and source == stmt.expr.type:
                yield stmt


def _join_fact(a: TypeShape, b: TypeShape) -> TypeShape:
    if a == b:
        return a
    try:
        joined_type = ht.unify(a.type, b.type)
    except HorseTypeError:
        joined_type = ht.WILDCARD
    return TypeShape(joined_type, _join_shape(a.shape, b.shape))


def _join_shape(a: Shape, b: Shape) -> Shape:
    if a == b:
        return a
    if a.kind == b.kind == "vector":
        if a.length is not None and a.length == b.length:
            return vector_shape(length=a.length)
        if a.token is not None and a.token == b.token:
            return vector_shape(token=a.token)
        return vector_shape()
    if a.kind in ("scalar", "vector") and b.kind in ("scalar", "vector"):
        return vector_shape()
    if a.kind == b.kind:
        return Shape(a.kind)  # two tables (or lists) of unknown relation
    return UNKNOWN


def _satisfies(t: ht.HorseType, constraint: str) -> bool:
    if t.is_wildcard or constraint == "any":
        return True
    if constraint == "numeric":
        return ht.is_numeric(t)
    if constraint == "numeric_or_date":
        return ht.is_numeric(t) or t == ht.DATE
    if constraint == "bool":
        return t == ht.BOOL
    if constraint == "integer":
        return ht.is_integer(t) or t == ht.BOOL
    if constraint == "comparable":
        return ht.is_comparable(t)
    if constraint == "strlike":
        return t in (ht.STR, ht.SYM)
    if constraint == "date":
        return t == ht.DATE
    if constraint == "table":
        return t == ht.TABLE
    if constraint == "list":
        return t.kind == "list"
    if constraint == "sym":
        return t == ht.SYM
    if constraint == "vector":
        return t != ht.TABLE and t.kind != "list"
    raise ValueError(f"unknown constraint kind {constraint!r}")


def _constraint_at(builtin, position: int) -> str | None:
    if position < len(builtin.constraints):
        return builtin.constraints[position]
    if builtin.variadic:
        return builtin.constraints[-1]
    return None


def _comparison_group(t: ht.HorseType) -> str | None:
    if ht.is_numeric(t):
        return "numeric"
    if t in (ht.STR, ht.SYM):
        return "string"
    if t == ht.DATE:
        return "date"
    return None
