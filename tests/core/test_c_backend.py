"""Tests for the native (emitted C + OpenMP) backend."""

import os
import platform
import re
import stat
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from repro.core import from_numpy, types as ht
from repro.core.codegen import cgen
from repro.core.codegen.cgen import CKernel, c_backend_available
from repro.core.compiler import compile_module
from repro.core.context import QueryContext
from repro.core.interp import run_module
from repro.core.optimizer.fusion import FusedItem, segment_method
from repro.core.parser import parse_method, parse_module
from repro.core.values import ListValue
from repro.obs import Tracer

pytestmark = pytest.mark.skipif(not c_backend_available(),
                                reason="gcc not available")


def _compile(source: str, backend="c"):
    return compile_module(parse_module(source), "opt", backend=backend)


def _both(source: str, args, **kwargs):
    py = compile_module(parse_module(source), "opt",
                        backend="python").run(args=args, **kwargs)
    c = compile_module(parse_module(source), "opt",
                       backend="c").run(args=args, **kwargs)
    return py, c


BLACKSCHOLES_LIKE = """
module M {
    def main(x:f64, y:f64): f64 {
        a:f64 = @mul(x, y);
        b:f64 = @add(a, 1.0:f64);
        c:f64 = @sqrt(b);
        d:f64 = @exp(c);
        e:f64 = @div(d, b);
        return e;
    }
}
"""


class TestCorrectness:
    def test_elementwise_chain_matches_python(self):
        rng = np.random.default_rng(0)
        args = [from_numpy(rng.uniform(0.1, 2, 10_000)),
                from_numpy(rng.uniform(0.1, 2, 10_000))]
        py, c = _both(BLACKSCHOLES_LIKE, args)
        np.testing.assert_allclose(c.data, py.data, rtol=1e-12)

    def test_guarded_reduction_matches_figure3(self):
        source = """
        module M {
            def main(p:f64, d:f64, q:f64): f64 {
                m1:bool = @geq(d, 0.05:f64);
                m2:bool = @lt(q, 24.0:f64);
                m:bool = @and(m1, m2);
                kp:f64 = @compress(m, p);
                kd:f64 = @compress(m, d);
                prod:f64 = @mul(kp, kd);
                s:f64 = @sum(prod);
                return s;
            }
        }
        """
        rng = np.random.default_rng(1)
        args = [from_numpy(rng.uniform(100, 1000, 50_000)),
                from_numpy(rng.uniform(0, 0.1, 50_000)),
                from_numpy(rng.uniform(1, 50, 50_000))]
        c, spans = _traced(source, args, "c", n_threads=1)
        py, _ = _traced(source, args, "python", n_threads=1)
        # The whole chain is one kernel, and it ran as emitted C.
        assert [s.attrs["backend"] for s in spans] == ["c"]
        assert c.item() == pytest.approx(py.item(), rel=1e-12)

    @pytest.mark.parametrize("reducer", ["sum", "prod", "min", "max",
                                         "count", "any", "all"])
    def test_every_reduction(self, reducer):
        ret = {"count": "i64", "any": "bool", "all": "bool"}.get(
            reducer, "f64")
        source = f"""
        module M {{
            def main(x:f64): {ret} {{
                a:f64 = @mul(x, 0.5:f64);
                b:bool = @gt(a, 0.25:f64);
                v:{'bool' if reducer in ('any', 'all') else 'f64'} =
                    {'@gt(a, 0.25:f64)' if reducer in ('any', 'all')
                     else '@add(a, 0.1:f64)'};
                r:{ret} = @{reducer}(v);
                return r;
            }}
        }}
        """.replace("\n                    ", " ")
        rng = np.random.default_rng(2)
        args = [from_numpy(rng.uniform(0.1, 1.0, 5000))]
        py, c = _both(source, args)
        assert c.item() == pytest.approx(py.item(), rel=1e-9)

    def test_vector_outputs(self):
        source = """
        module M {
            def main(x:f64): f64 {
                a:f64 = @mul(x, 2.0:f64);
                b:f64 = @add(a, 1.0:f64);
                return b;
            }
        }
        """
        data = np.arange(10_000, dtype=np.float64)
        py, c = _both(source, [from_numpy(data)])
        np.testing.assert_allclose(c.data, data * 2 + 1)

    def test_scalar_broadcast_inputs(self):
        source = """
        module M {
            def main(x:f64, k:f64): f64 {
                y:f64 = @mul(x, k);
                z:f64 = @add(y, k);
                s:f64 = @sum(z);
                return s;
            }
        }
        """
        data = np.ones(1000)
        args = [from_numpy(data), from_numpy(np.array([3.0]))]
        py, c = _both(source, args)
        assert c.item() == pytest.approx(py.item())

    def test_date_comparisons_cross_as_int64(self):
        source = """
        module M {
            def main(d:date, v:f64): f64 {
                m:bool = @geq(d, 1994-01-01:date);
                kept:f64 = @compress(m, v);
                extra:f64 = @mul(kept, 2.0:f64);
                s:f64 = @sum(extra);
                return s;
            }
        }
        """
        dates = from_numpy(np.array(
            ["1993-06-01", "1994-06-01", "1995-01-01"],
            dtype="datetime64[D]"))
        values = from_numpy(np.array([1.0, 10.0, 100.0]))
        py, c = _both(source, [dates, values])
        assert c.item() == pytest.approx(220.0)
        assert py.item() == pytest.approx(220.0)

    def test_nan_in_deselected_lane_stays_out(self):
        source = """
        module M {
            def main(x:f64, y:f64): f64 {
                bad:f64 = @sqrt(x);
                m:bool = @geq(x, 0.0:f64);
                kept:f64 = @compress(m, bad);
                doubled:f64 = @mul(kept, 2.0:f64);
                s:f64 = @sum(doubled);
                return s;
            }
        }
        """
        x = from_numpy(np.array([-1.0, 4.0]))
        y = from_numpy(np.array([0.0, 0.0]))
        py, c = _both(source, [x, y])
        assert c.item() == pytest.approx(4.0)
        assert py.item() == pytest.approx(4.0)

    def test_threads_agree(self):
        rng = np.random.default_rng(3)
        args = [from_numpy(rng.uniform(0.1, 2, 100_000)),
                from_numpy(rng.uniform(0.1, 2, 100_000))]
        program = _compile(BLACKSCHOLES_LIKE)
        t1 = program.run(args=args, n_threads=1)
        t4 = program.run(args=args, n_threads=4)
        np.testing.assert_allclose(t1.data, t4.data)


class TestFallbacks:
    def test_string_segments_fall_back_to_python(self):
        source = """
        module M {
            def main(s:str, v:f64): f64 {
                m:bool = @eq(s, "keep":str);
                kept:f64 = @compress(m, v);
                doubled:f64 = @mul(kept, 2.0:f64);
                total:f64 = @sum(doubled);
                return total;
            }
        }
        """
        strings = np.empty(3, dtype=object)
        for i, value in enumerate(["keep", "drop", "keep"]):
            strings[i] = value
        program = _compile(source)
        result = program.run(args=[from_numpy(strings),
                                   from_numpy(np.array([1.0, 10.0,
                                                        100.0]))])
        assert result.item() == pytest.approx(202.0)

    def test_builtin_without_c_template_names_the_reason(self):
        source = """
        module M {
            def main(x:i64, pool:i64): i64 {
                m:bool = @member(x, pool);
                y:i64 = @compress(m, x);
                z:i64 = @mul(y, 2:i64);
                return z;
            }
        }
        """
        args = [from_numpy(np.arange(10, dtype=np.int64)),
                from_numpy(np.array([2, 3, 5], dtype=np.int64))]
        result, kernels = _traced(source, args, "c", 1)
        assert result.data.tolist() == [4, 6, 10]
        [span] = kernels
        assert span.attrs["backend"] == "python"
        assert span.attrs["c_declined"] == "no C template for @member"

    def test_gcc_failure_names_the_reason(self, monkeypatch):
        monkeypatch.setattr(cgen, "_CFLAGS",
                            cgen._CFLAGS + ("-fno-such-option",))
        args = [from_numpy(_uniform(100)), from_numpy(np.array([0.5]))]
        result, [span] = _traced(SELECT, args, "c", 1)
        np.testing.assert_array_equal(result.data, args[0].data[
            args[0].data > 0.5] * 2)
        assert span.attrs["backend"] == "python"
        assert span.attrs["c_declined"].startswith("gcc failed:")

    def test_empty_input_falls_back(self):
        source = """
        module M {
            def main(x:f64): f64 {
                a:f64 = @mul(x, 2.0:f64);
                s:f64 = @sum(a);
                return s;
            }
        }
        """
        result, [span] = _traced(source, [from_numpy(np.empty(0))], "c", 1)
        assert result.item() == 0
        assert span.attrs["c_declined"] == "empty input"


class TestEligibility:
    def test_compressed_vector_output_is_eligible(self):
        method = parse_method("""
        def main(x:f64): f64 {
            m:bool = @gt(x, 0.5:f64);
            y:f64 = @compress(m, x);
            z:f64 = @mul(y, 2.0:f64);
            return z;
        }
        """)
        segments = [item.segment for item in segment_method(method)
                    if isinstance(item, FusedItem)]
        assert segments
        for segment in segments:
            kernel = CKernel(segment)
            assert kernel.eligible, kernel.declined

    def test_wildcard_typed_sql_predicate_is_typed_by_inference(self):
        """``_flatten`` declares ``e = @lt(c, 2.5)`` as ``?``; compilation
        resolves it to ``bool`` before the optimizer runs, so the IR the
        kernel is built from carries the type and the segment runs in C."""
        from repro.core import types as ht
        from repro.core.ir import Assign, BuiltinCall
        from repro.engine import EngineSession
        from repro.engine.storage import Database

        rng = np.random.default_rng(7)
        db = Database()
        db.create_table("t", {"a": rng.uniform(0, 10, 5000),
                              "b": rng.integers(0, 100, 5000)})
        session = EngineSession(db)
        sql = "SELECT a, b FROM t WHERE a < 2.5 OR a > 7.5"
        compiled = session.compile_sql(sql, backend="cgen")
        assigns = [stmt for stmt in compiled.program.module.entry.body
                   if isinstance(stmt, Assign)]
        assert not [stmt for stmt in assigns if stmt.type.is_wildcard]
        compares = [stmt for stmt in assigns
                    if isinstance(stmt.expr, BuiltinCall)
                    and stmt.expr.name in ("lt", "gt")]
        assert len(compares) == 2
        assert all(stmt.type is ht.BOOL for stmt in compares)
        assert compiled.program.report.c_eligible_segments == \
            compiled.program.report.fused_segments >= 1

        tracer = Tracer()
        got = session.run_sql(sql, backend="cgen",
                              ctx=replace(session.context(), tracer=tracer))
        want = session.run_sql(sql, backend="pygen")
        assert session.metrics.counter("query.retries").value == 0
        assert [s.attrs["backend"] for s in _kernel_spans(tracer)] == ["c"]
        for (name, column), (_, expected) in zip(got.columns(),
                                                 want.columns()):
            np.testing.assert_array_equal(column.data, expected.data,
                                          err_msg=name)


# ---------------------------------------------------------------------------
# compaction: compressed vector outputs written by the C loop
# ---------------------------------------------------------------------------

SELECT = """
module M {
    def main(x:f64, k:f64): f64 {
        m:bool = @gt(x, k);
        y:f64 = @compress(m, x);
        z:f64 = @mul(y, 2.0:f64);
        return z;
    }
}
"""

NESTED = """
module M {
    def main(x:f64, y:f64): f64 {
        m1:bool = @gt(x, 0.3:f64);
        a:f64 = @compress(m1, x);
        b:f64 = @compress(m1, y);
        m2:bool = @lt(b, 0.7:f64);
        c:f64 = @compress(m2, a);
        d:f64 = @add(c, 1.0:f64);
        return d;
    }
}
"""

BASE_AND_COMPRESSED = """
module M {
    def main(x:f64): list<unknown> {
        s:f64 = @mul(x, 2.0:f64);
        m:bool = @gt(x, 0.5:f64);
        y:f64 = @compress(m, s);
        out:list<unknown> = @list(s, y);
        return out;
    }
}
"""

WITH_REDUCTIONS = """
module M {
    def main(x:f64): list<unknown> {
        m:bool = @gt(x, 0.5:f64);
        y:f64 = @compress(m, x);
        z:f64 = @mul(y, 3.0:f64);
        s:f64 = @sum(z);
        lo:f64 = @min(y);
        out:list<unknown> = @list(z, s, lo);
        return out;
    }
}
"""

#: Column reads only: stored for every row, the count advances by mask.
TYPED_PLAIN = """
module M {
    def main(x:f64, a:i64, b:i32, c:bool, d:date, e:f64): list<unknown> {
        m:bool = @gt(x, 0.5:f64);
        a1:i64 = @compress(m, a);
        b1:i32 = @compress(m, b);
        c1:bool = @compress(m, c);
        d1:date = @compress(m, d);
        e1:f64 = @compress(m, e);
        out:list<unknown> = @list(a1, b1, c1, d1, e1);
        return out;
    }
}
"""

#: Computed values: stored inside the mask's ``if``.
TYPED_COMPUTED = """
module M {
    def main(x:f64, a:i64, b:i32, c:bool, d:date, e:f64): list<unknown> {
        m:bool = @gt(x, 0.5:f64);
        a1:i64 = @compress(m, a);
        b1:i32 = @compress(m, b);
        c1:bool = @compress(m, c);
        d1:date = @compress(m, d);
        e1:f64 = @compress(m, e);
        a2:i64 = @mul(a1, 3:i64);
        b2:i32 = @add(b1, b1);
        c2:bool = @not(c1);
        d2:bool = @geq(d1, 1995-01-01:date);
        e2:f64 = @sqrt(e1);
        out:list<unknown> = @list(a2, b2, c2, d1, d2, e2);
        return out;
    }
}
"""


def _uniform(n: int, seed: int = 11):
    return np.random.default_rng(seed).uniform(0, 1, n)


def _typed_args(n: int):
    rng = np.random.default_rng(12)
    days = rng.integers(8000, 10000, n).astype("datetime64[D]")
    return [from_numpy(_uniform(n)),
            from_numpy(rng.integers(-1000, 1000, n)),
            from_numpy(rng.integers(-1000, 1000, n).astype(np.int32)),
            from_numpy(rng.uniform(0, 1, n) < 0.5),
            from_numpy(days),
            from_numpy(rng.uniform(0, 100, n))]


COMPACTION_CASES = {
    "none_selected": (SELECT, lambda: [from_numpy(_uniform(5000)),
                                       from_numpy(np.array([2.0]))]),
    "all_selected": (SELECT, lambda: [from_numpy(_uniform(5000)),
                                      from_numpy(np.array([-1.0]))]),
    "half_selected": (SELECT, lambda: [from_numpy(_uniform(50_001)),
                                       from_numpy(np.array([0.5]))]),
    "fewer_rows_than_threads": (SELECT, lambda: [
        from_numpy(np.array([0.9, 0.1, 0.8])),
        from_numpy(np.array([0.5]))]),
    "one_row": (SELECT, lambda: [from_numpy(np.array([0.9])),
                                 from_numpy(np.array([0.5]))]),
    "nested_compress": (NESTED, lambda: [from_numpy(_uniform(20_000)),
                                         from_numpy(_uniform(20_000, 13))]),
    "base_and_compressed": (BASE_AND_COMPRESSED,
                            lambda: [from_numpy(_uniform(20_000))]),
    "guarded_reductions": (WITH_REDUCTIONS,
                           lambda: [from_numpy(_uniform(20_000))]),
    "typed_plain": (TYPED_PLAIN, lambda: _typed_args(20_000)),
    "typed_computed": (TYPED_COMPUTED, lambda: _typed_args(20_000)),
}


def _kernel_spans(tracer: Tracer) -> list:
    return [span for span in tracer.all_spans()
            if span.name.startswith("kernel:")]


def _traced(source: str, args, backend: str, n_threads: int):
    tracer = Tracer()
    result = _compile(source, backend).run(
        args=args, n_threads=n_threads, ctx=QueryContext(tracer=tracer))
    return result, _kernel_spans(tracer)


def _vectors(result) -> list[np.ndarray]:
    items = result.items if isinstance(result, ListValue) else [result]
    return [item.data for item in items]


def _assert_same(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        if a.dtype.kind == "f":
            np.testing.assert_allclose(a, b, rtol=1e-12)
        else:
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n_threads", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(COMPACTION_CASES))
def test_compaction_matches_interp_and_pygen(case, n_threads):
    source, make_args = COMPACTION_CASES[case]
    args = make_args()
    c, c_kernels = _traced(source, args, "c", n_threads)
    py, _ = _traced(source, args, "python", n_threads)
    interp = run_module(parse_module(source), args=args)

    assert c_kernels, "no fused kernel ran"
    assert all(span.attrs["backend"] == "c" for span in c_kernels), \
        [span.attrs for span in c_kernels]
    _assert_same(_vectors(c), _vectors(py))
    _assert_same(_vectors(py), _vectors(interp))


def test_compaction_keeps_row_order_across_threads():
    x = np.arange(100_003, dtype=np.float64)
    args = [from_numpy(x), from_numpy(np.array([-1.0]))]
    for n_threads in (1, 2, 3, 4):
        result, _ = _traced(SELECT, args, "c", n_threads)
        np.testing.assert_array_equal(result.data, x * 2)


# ---------------------------------------------------------------------------
# the on-disk kernel cache
# ---------------------------------------------------------------------------

_CACHE_SCRIPT = """
import numpy as np
from repro.core import from_numpy
from repro.core.codegen import cgen
from repro.core.compiler import compile_module
from repro.core.parser import parse_module

program = compile_module(parse_module({source!r}), "opt", backend="c")
x = np.random.default_rng(0).uniform(0, 1, 1000)
program.run(args=[from_numpy(x), from_numpy(np.array([0.5]))])
print(cgen._build_dir())
"""


class TestKernelCache:
    def _run_fresh_process(self, tmp_path) -> str:
        env = dict(os.environ, TMPDIR=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", _CACHE_SCRIPT.format(source=SELECT)],
            env=env, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def test_second_process_compiles_nothing(self, tmp_path):
        first = self._run_fresh_process(tmp_path)
        assert first == str(tmp_path / f"repro-ckernels-{os.geteuid()}")
        assert stat.S_IMODE(os.stat(first).st_mode) == 0o700
        before = {name: os.stat(os.path.join(first, name)).st_mtime_ns
                  for name in os.listdir(first)}
        assert any(name.endswith(".so") for name in before)

        assert self._run_fresh_process(tmp_path) == first
        after = {name: os.stat(os.path.join(first, name)).st_mtime_ns
                 for name in os.listdir(first)}
        assert after == before

    def test_group_writable_directory_is_refused(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        shared = tmp_path / f"repro-ckernels-{os.geteuid()}"

        monkeypatch.setattr(cgen, "_gcc_state", dict(cgen._gcc_state))
        cgen._gcc_state.pop("dir", None)
        assert cgen._build_dir() == str(shared)  # created, mode 0700

        shared.chmod(0o777)
        cgen._gcc_state.pop("dir")
        private = cgen._build_dir()
        assert private != str(shared)
        assert stat.S_IMODE(os.stat(private).st_mode) == 0o700


class TestMatlabAndSQLThroughC:
    def test_blackscholes_matlab(self):
        from repro.data.blackscholes import (calc_option_price,
                                             generate_blackscholes)
        from repro.engine import EngineSession
        from repro.workloads.matlab_sources import BLACKSCHOLES_MATLAB

        data = generate_blackscholes(20_000)
        args = [data[c] for c in ("spotPrice", "strike", "rate",
                                  "volatility", "otime", "optionType")]
        program = EngineSession().compile_matlab(BLACKSCHOLES_MATLAB,
                                                 backend="cgen")
        assert program.report.c_eligible_segments >= 1
        result = np.asarray(program(*args))
        np.testing.assert_allclose(result, calc_option_price(*args),
                                   rtol=1e-10)

    def test_sql_udf_query_through_c(self):
        from repro.engine.storage import Database
        from repro.engine import EngineSession

        rng = np.random.default_rng(4)
        db = Database()
        db.create_table("lineitem", {
            "l_extendedprice": rng.uniform(100, 1000, 20_000),
            "l_discount": np.round(rng.uniform(0, 0.1, 20_000), 2),
        })
        hp = EngineSession(db)
        hp.register_scalar_udf(
            "revUDF", "function r = f(p, d)\n    r = p .* d;\nend",
            [ht.F64, ht.F64], ht.F64)
        sql = ("SELECT SUM(revUDF(l_extendedprice, l_discount)) AS r "
               "FROM lineitem WHERE l_discount >= 0.05")
        python_result = hp.run_sql(sql, backend="pygen")
        c_result = hp.run_sql(sql, backend="cgen")
        assert c_result.column("r").data[0] == pytest.approx(
            python_result.column("r").data[0])


# ---------------------------------------------------------------------------
# vectorized row loops: omp simd, the selected-row block loop, vector math
# ---------------------------------------------------------------------------

#: The ``bs2`` shape: a selection of plain reads on an input predicate.
FILTER_ONLY = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        m1:bool = @lt(x, 0.3:f64);
        m2:bool = @gt(x, 1.2:f64);
        m:bool = @or(m1, m2);
        a:f64 = @compress(m, x);
        b:f64 = @compress(m, y);
        out:list<unknown> = @list(a, b);
        return out;
    }
}
"""

#: The ``bs3med`` shape: a selection on a mask computed with vector math,
#: storing the computed value (kept for the block in ``v_b``) too.
COMPUTED_MASK = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        l:f64 = @log(x);
        e:f64 = @exp(y);
        p:f64 = @power(x, y);
        s:f64 = @sqrt(y);
        v1:f64 = @mul(l, e);
        v2:f64 = @add(p, s);
        v:f64 = @sub(v1, v2);
        m:bool = @gt(v, -1.5:f64);
        a:f64 = @compress(m, x);
        b:f64 = @compress(m, y);
        w:f64 = @compress(m, v);
        out:list<unknown> = @list(a, b, w);
        return out;
    }
}
"""

#: The ``bs1`` shape: an input predicate, vector math computed only under
#: the mask, and the selected rows' plain reads stored beside it.
MASKED_COMPUTE = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        m1:bool = @lt(x, 0.3:f64);
        m2:bool = @gt(x, 1.2:f64);
        m:bool = @or(m1, m2);
        a:f64 = @compress(m, x);
        b:f64 = @compress(m, y);
        l:f64 = @log(a);
        e:f64 = @exp(b);
        p:f64 = @power(a, b);
        s:f64 = @sqrt(b);
        v1:f64 = @mul(l, e);
        v2:f64 = @add(p, s);
        v:f64 = @sub(v1, v2);
        out:list<unknown> = @list(a, b, v);
        return out;
    }
}
"""

#: Vector math in the base domain: each iteration writes only its row.
VECTOR_MATH = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        l:f64 = @log(x);
        e:f64 = @exp(y);
        p:f64 = @power(x, y);
        s:f64 = @sqrt(x);
        out:list<unknown> = @list(l, e, p, s);
        return out;
    }
}
"""

#: Shape -> (source, how many leading outputs are plain reads,
#: bit-identical to the interpreter's).  Every shape with a selection
#: runs the selected-row block loop.
VECTOR_SHAPES = {"filter_only": (FILTER_ONLY, 2),
                 "computed_mask": (COMPUTED_MASK, 2),
                 "masked_compute": (MASKED_COMPUTE, 2),
                 "vector_math": (VECTOR_MATH, 0)}

#: A statement between the masks of a nested selection (``m2`` is
#: computed under ``m1``): the scalar ``if`` loop.
NESTED_MASKS = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        m1:bool = @gt(x, 0.3:f64);
        a:f64 = @compress(m1, x);
        b:f64 = @compress(m1, y);
        l:f64 = @log(b);
        m2:bool = @lt(l, 0.2:f64);
        c:f64 = @compress(m2, a);
        d:f64 = @exp(c);
        out:list<unknown> = @list(c, d);
        return out;
    }
}
"""

#: A masked reduction: the scalar ``if`` loop (a vector reduction would
#: reorder the float additions).
MASKED_SUM = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        m:bool = @lt(x, 0.7:f64);
        a:f64 = @compress(m, x);
        b:f64 = @compress(m, y);
        e:f64 = @exp(b);
        s:f64 = @sum(e);
        out:list<unknown> = @list(a, s);
        return out;
    }
}
"""

#: Shape -> source, for the kernels that keep the scalar ``if`` loop.
IF_LOOP_SHAPES = {"nested_masks": NESTED_MASKS, "masked_sum": MASKED_SUM}

_IF_BLOCK = re.compile(r"\bif \(.*\) \{$", re.MULTILINE)
_SELECTED_ROW_LOOP = "long long i = idx0[r];"

_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, -2.5])


def _special_args(n: int) -> list:
    """Uniform rows with NaN, +-inf, zeros and negative ``log`` /
    ``sqrt`` operands spread over every block."""
    rng = np.random.default_rng(n + 3)  # the one row of n = 1 is selected
    x, y = rng.uniform(-0.5, 2.0, n), rng.uniform(-1.0, 1.5, n)
    for column, start in ((x, 1), (y, 3)):
        at = np.arange(start, n, 5)
        column[at] = np.resize(_SPECIALS, len(at))
    return [from_numpy(x), from_numpy(y)]


def _with_sources(monkeypatch) -> list[str]:
    """The C source of every kernel loaded from here on."""
    sources, load = [], cgen._load

    def recording(source, pointers):
        sources.append(source)
        return load(source, pointers)

    monkeypatch.setattr(cgen, "_load", recording)
    return sources


def _assert_matches_interp(source: str, args, got, plain: int) -> None:
    """Selections and the first ``plain`` outputs (plain reads)
    bit-identical to the interpreter's, computed values within 1e-12
    with NaN and inf in the same rows."""
    want = _vectors(run_module(parse_module(source), args=args))
    got = _vectors(got)
    assert [a.shape for a in got] == [b.shape for b in want]
    for position, (a, b) in enumerate(zip(got, want)):
        if position < plain:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_threads", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
@pytest.mark.parametrize("shape", sorted(VECTOR_SHAPES))
def test_vectorized_loops_match_interp(shape, n, n_threads, monkeypatch):
    source, plain = VECTOR_SHAPES[shape]
    sources = _with_sources(monkeypatch)
    args = _special_args(n)
    got, kernels = _traced(source, args, "c", n_threads)
    assert kernels and all(span.attrs["backend"] == "c"
                           for span in kernels), [s.attrs for s in kernels]
    _assert_matches_interp(source, args, got, plain)
    assert len(sources) == 1
    assert "#pragma omp simd" in sources[0]
    assert not _IF_BLOCK.search(sources[0]), sources[0]
    assert (_SELECTED_ROW_LOOP in sources[0]) == ("compress" in source)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_threads", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
@pytest.mark.parametrize("shape", sorted(IF_LOOP_SHAPES))
def test_if_loop_kernels_match_interp(shape, n, n_threads, monkeypatch):
    source = IF_LOOP_SHAPES[shape]
    sources = _with_sources(monkeypatch)
    args = _special_args(n)
    got, kernels = _traced(source, args, "c", n_threads)
    assert kernels and all(span.attrs["backend"] == "c"
                           for span in kernels), [s.attrs for s in kernels]
    _assert_matches_interp(source, args, got, 1)
    assert len(sources) == 1
    assert _IF_BLOCK.search(sources[0]), sources[0]
    assert _SELECTED_ROW_LOOP not in sources[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [3 * cgen._BLOCK + 17, 100_003])
@pytest.mark.parametrize("shape", sorted(VECTOR_SHAPES))
def test_vector_outputs_do_not_depend_on_the_thread_count(shape, n):
    """Every thread count cuts the rows into the same blocks, so each
    row takes the same vector lane or scalar remainder: the bytes are
    the same at one, two and three threads."""
    source, _ = VECTOR_SHAPES[shape]
    args = _special_args(n)
    program = _compile(source)
    t1, t2, t3 = (_vectors(program.run(args=args, n_threads=n_threads))
                  for n_threads in (1, 2, 3))
    for one, two, three in zip(t1, t2, t3):
        assert one.tobytes() == two.tobytes() == three.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", ["computed_mask", "masked_compute",
                                   "vector_math"])
def test_without_libmvec_no_vector_math_is_declared(shape, monkeypatch):
    monkeypatch.setattr(cgen, "libmvec_available", lambda: False)
    assert cgen._libs() == ("-lm",)
    source, plain = VECTOR_SHAPES[shape]
    sources = _with_sources(monkeypatch)
    args = _special_args(1025)
    got, kernels = _traced(source, args, "c", 2)
    assert [span.attrs["backend"] for span in kernels] == ["c"]
    assert "declare simd" not in sources[0]
    _assert_matches_interp(source, args, got, plain)


@pytest.mark.skipif(platform.machine() != "x86_64"
                    or not cgen.libmvec_available(),
                    reason="libmvec's vector math is declared on x86-64")
def test_black_scholes_kernels_vectorize(tmp_path, monkeypatch):
    """bs0_s and bs3med_s emit ``omp simd`` loops with vector math, and
    gcc reports each loop vectorized."""
    from repro.data.blackscholes import load_blackscholes_table
    from repro.engine import EngineSession
    from repro.engine.storage import Database
    from repro.workloads.bs_queries import SCALAR_QUERIES, register_bs_udfs

    db = Database()
    load_blackscholes_table(db, 2000, seed=1)
    session = EngineSession(db)
    register_bs_udfs(session)
    for query in ("bs0_base", "bs3_med"):
        sources = _with_sources(monkeypatch)
        session.run_sql(SCALAR_QUERIES[query], backend="cgen")
        assert session.metrics.counter("query.retries").value == 0
        assert len(sources) == 1, query
        assert "#pragma omp simd" in sources[0]
        assert "#pragma omp declare simd" in sources[0]
        path = tmp_path / f"{query}.c"
        path.write_text(sources[0])
        report = subprocess.run(
            ["gcc", *cgen._CFLAGS, "-fopt-info-vec-optimized",
             "-o", str(tmp_path / f"{query}.so"), str(path), *cgen._libs()],
            capture_output=True, text=True, check=True)
        assert "loop vectorized" in report.stderr, (query, report.stderr)
