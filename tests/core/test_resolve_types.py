"""Types are decided once: compilation resolves every ``?`` declaration
(:func:`repro.core.analysis.typeshape.resolve_types`) before the
optimizer runs, and the optimizer, fusion and code generation read the
declarations."""

import numpy as np
import pytest

from repro.core import from_numpy
from repro.core import ir
from repro.core import types as ht
from repro.core.analysis.typeshape import resolve_types
from repro.core.codegen.cgen import c_backend_available
from repro.core.compiler import compile_module
from repro.core.interp import run_module
from repro.core.optimizer.fusion import (FusedItem, OpaqueItem,
                                         segment_method)
from repro.core.parser import parse_module
from repro.core.printer import print_module

BACKENDS = ["python",
            pytest.param("c", marks=pytest.mark.skipif(
                not c_backend_available(), reason="gcc not on PATH"))]

UNKNOWN = """
module M {
    def main(x:f64, y:f64): f64 {
        m:unknown = @gt(x, 0.5:f64);
        a:unknown = @compress(m, x);
        b:unknown = @compress(m, y);
        p:unknown = @scale(a, b);
        s:unknown = @sum(p);
        return s;
    }
    def scale(a:f64, b:f64): f64 {
        r:f64 = @mul(a, b);
        return r;
    }
}
"""


def _declared(method: ir.Method) -> dict:
    return {stmt.target: stmt.type for stmt in method.walk_stmts()
            if isinstance(stmt, ir.Assign)}


def _inputs(n: int = 5000):
    rng = np.random.default_rng(3)
    return [from_numpy(rng.uniform(0, 1, n)),
            from_numpy(rng.uniform(0, 1, n))]


def test_every_unknown_declaration_resolves_in_a_new_module():
    module = parse_module(UNKNOWN)
    before = print_module(module)
    resolved = resolve_types(module)
    assert print_module(module) == before
    assert _declared(resolved.methods["main"]) == {
        "m": ht.BOOL, "a": ht.F64, "b": ht.F64, "p": ht.F64, "s": ht.F64}
    # A method with nothing to resolve is shared, not copied.
    assert resolved.methods["scale"] is module.methods["scale"]
    assert resolved.methods["main"] is not module.methods["main"]


CONTROL_FLOW = """
    module M {
        def main(c:bool, n:i64): f64 {
            if (c) {
                x:unknown = 1:i64;
            } else {
                x:unknown = 1.5:f64;
            }
            y:unknown = @add(x, 1:i64);
            a:unknown = 0:i64;
            i:i64 = 0:i64;
            while (@lt(i, n)) {
                b:unknown = @add(a, 1:i64);
                a:unknown = @mul(b, 0.5:f64);
                i:i64 = @add(i, 1:i64);
            }
            z:unknown = @add(y, a);
            return z;
        }
    }
"""


def test_paths_that_disagree_leave_a_variable_unknown():
    declared = _declared(resolve_types(parse_module(CONTROL_FLOW)).entry)
    assert declared["y"].is_wildcard
    # a is i64 on entry to the loop and f64 after one round: b, which
    # reads it, has no one type.
    assert declared["b"].is_wildcard and declared["a"].is_wildcard
    assert declared["i"] is ht.I64
    # Typed from the linear walk alone, b would be i64 and truncate
    # 1.5 to 1 on the second round.
    for c, n in ((True, 3), (False, 2), (True, 0)):
        args = [from_numpy(np.array([c])), from_numpy(np.array([n]))]
        want = run_module(parse_module(CONTROL_FLOW), args=args)
        for level in ("naive", "opt"):
            got = compile_module(parse_module(CONTROL_FLOW),
                                 level).run(args=args)
            assert got.type is want.type
            assert got.data.tolist() == want.data.tolist()


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiling_an_unknown_module_leaves_it_as_it_was(backend):
    module = parse_module(UNKNOWN)
    before = print_module(module)
    program = compile_module(module, "opt", backend=backend)
    assert print_module(module) == before
    assert not [stmt for method in program.module.methods.values()
                for stmt in method.walk_stmts()
                if isinstance(stmt, ir.Assign) and stmt.type.is_wildcard]
    assert program.report.fused_segments == 1
    if backend == "c":
        assert program.report.c_eligible_segments == 1
    args = _inputs()
    want = run_module(parse_module(UNKNOWN), args=args)
    got = program.run(args=args, chunk_size=1000)
    assert got.type is want.type is ht.F64
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_statement_over_an_unknown_parameter_stays_opaque(backend):
    source = """
    module M {
        def main(x:unknown, y:f64): f64 {
            a:unknown = @mul(x, 2.0:f64);
            b:f64 = @add(y, 1.0:f64);
            c:f64 = @mul(b, 3.0:f64);
            d:unknown = @add(a, c);
            s:unknown = @sum(d);
            return s;
        }
    }
    """
    resolved = resolve_types(parse_module(source))
    declared = _declared(resolved.entry)
    assert [name for name, type_ in declared.items()
            if type_.is_wildcard] == ["a", "d", "s"]
    plan = segment_method(resolved.entry, resolved)
    opaque = {item.stmt.target for item in plan
              if isinstance(item, OpaqueItem)}
    fused = [[stmt.target for stmt in item.segment.stmts]
             for item in plan if isinstance(item, FusedItem)]
    assert opaque == {"a", "d", "s"}
    assert fused == [["b", "c"]]

    args = _inputs()
    program = compile_module(parse_module(source), "opt", backend=backend)
    want = run_module(parse_module(source), args=args)
    got = program.run(args=args)
    assert got.type is want.type
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12)


def test_plain_q6_masks_share_three_bool_buffers():
    """The SQL translator declares q6's predicate temporaries ``?``;
    resolved to ``bool``, they take ``out=`` buffers, and a buffer
    whose value dies at a statement takes that statement's result."""
    from repro.data.tpch import generate_tpch
    from repro.engine import EngineSession
    from repro.workloads.tpch_queries import PLAIN_QUERIES

    sql = PLAIN_QUERIES["q6"]
    with EngineSession(generate_tpch(0.01)) as session:
        compiled = session.compile_sql(sql, backend="pygen")
        [source] = compiled.kernel_sources
        assert source.count("np.empty(") == 3
        assert source.count("dtype=np.bool_") == 3
        want = session.run_sql(sql, backend="interp")
        for n_threads in (1, 2):
            got = compiled.run(n_threads=n_threads)
            for (name, column), (_, expected) in zip(got.columns(),
                                                     want.columns()):
                np.testing.assert_allclose(column.data, expected.data,
                                           rtol=1e-12, err_msg=name)
