"""Selection vectors and in-place outputs in fused kernels.

Every ``@compress`` in a generated kernel gathers through one selection
vector per mask, and every vector output is written in place into one
array allocated at the kernel's base length.  Each case runs on pygen
and cgen at one, two and four threads and three chunk sizes, and must
be bit-identical to the interpreter: values, dtypes and row order.  The
float inputs are multiples of 1/4 and each chain has one rounding step,
so sums are exact in any order and the emitted C cannot differ from
NumPy in the last place.
"""

import inspect
import re

import numpy as np
import pytest

from repro.core import builtins as hb
from repro.core import from_numpy
from repro.core.codegen import executor
from repro.core.codegen.cgen import c_backend_available
from repro.core.codegen.executor import DEFAULT_CHUNK_SIZE
from repro.core.compiler import compile_module
from repro.core.interp import run_module
from repro.core.parser import parse_module
from repro.core.values import ListValue
from repro.engine import EngineSession
from repro.engine.storage import Database
from repro.errors import BuiltinError, HorseRuntimeError

needs_gcc = pytest.mark.skipif(not c_backend_available(),
                               reason="gcc not available")
ENGINES = ["pygen", pytest.param("cgen", marks=needs_gcc)]
BACKEND = {"pygen": "python", "cgen": "c"}

SELECT = """
module M {
    def main(x:f64, k:f64): list<unknown> {
        m:bool = @lt(x, k);
        y:f64 = @compress(m, x);
        z:f64 = @mul(y, 2.0:f64);
        out:list<unknown> = @list(y, z);
        return out;
    }
}
"""

NESTED = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        m1:bool = @gt(x, 300.0:f64);
        a:f64 = @compress(m1, x);
        b:f64 = @compress(m1, y);
        m2:bool = @lt(b, 700.0:f64);
        c:f64 = @compress(m2, a);
        d:f64 = @add(c, 1.0:f64);
        out:list<unknown> = @list(a, d);
        return out;
    }
}
"""

TWO_MASKS = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        m1:bool = @lt(x, 500.0:f64);
        m2:bool = @gt(y, 300.0:f64);
        a:f64 = @compress(m1, x);
        b:f64 = @compress(m2, y);
        c:f64 = @compress(m1, y);
        out:list<unknown> = @list(a, b, c);
        return out;
    }
}
"""

#: Six columns of five types under one mask, plus a string column that
#: reaches the kernel as int32 dictionary codes.
SIX_COLUMNS = """
module M {
    def main(x:f64, a:i64, b:i32, c:bool, d:date, e:f64,
             s:str): list<unknown> {
        m:bool = @lt(x, 510.0:f64);
        x1:f64 = @compress(m, x);
        a1:i64 = @compress(m, a);
        b1:i32 = @compress(m, b);
        c1:bool = @compress(m, c);
        d1:date = @compress(m, d);
        e1:f64 = @compress(m, e);
        s1:str = @compress(m, s);
        out:list<unknown> = @list(x1, a1, b1, c1, d1, e1, s1);
        return out;
    }
}
"""

BASE_AND_COMPRESSED = """
module M {
    def main(x:f64): list<unknown> {
        s:f64 = @mul(x, 2.0:f64);
        m:bool = @gt(x, 500.0:f64);
        y:f64 = @compress(m, s);
        out:list<unknown> = @list(s, y, m);
        return out;
    }
}
"""

WITH_REDUCTIONS = """
module M {
    def main(x:f64): list<unknown> {
        m:bool = @gt(x, 500.0:f64);
        y:f64 = @compress(m, x);
        z:f64 = @mul(y, 3.0:f64);
        s:f64 = @sum(z);
        lo:f64 = @min(y);
        out:list<unknown> = @list(z, s, lo);
        return out;
    }
}
"""

#: ``?`` declarations, as the SQL frontend emits them.
WILDCARD = """
module M {
    def main(x:f64, k:f64): list<unknown> {
        m:unknown = @lt(x, k);
        y:unknown = @compress(m, x);
        w:unknown = @if_else(m, 1:i64, 0:i64);
        out:list<unknown> = @list(y, w);
        return out;
    }
}
"""

#: An alias of an input and an alias of a computed value as outputs
#: (compiled without the optimizer, whose copy propagation would remove
#: them).
ALIASES = """
module M {
    def main(x:f64, y:f64): list<unknown> {
        p:f64 = @mul(x, y);
        u:f64 = x;
        v:f64 = p;
        m:bool = @gt(p, 250000.0:f64);
        w:f64 = @compress(m, v);
        out:list<unknown> = @list(u, v, w);
        return out;
    }
}
"""


def _values(n: int, seed: int) -> np.ndarray:
    """Multiples of 1/4 in [0, 1000): exact under any summation order."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4000, n) / 4.0


def _select(n: int, k: float):
    return lambda: [from_numpy(np.floor(_values(n, 1))),
                    from_numpy(np.array([k]))]


def _six_columns(n: int):
    rng = np.random.default_rng(2)
    strings = np.array(["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"],
                       dtype=object)[rng.integers(0, 5, n)]
    return [from_numpy(_values(n, 1)),
            from_numpy(rng.integers(-1000, 1000, n)),
            from_numpy(rng.integers(-1000, 1000, n).astype(np.int32)),
            from_numpy(rng.uniform(0, 1, n) < 0.5),
            from_numpy(rng.integers(8000, 10000, n).astype("datetime64[D]")),
            from_numpy(_values(n, 3)),
            from_numpy(strings)]


def _pair(n: int):
    return lambda: [from_numpy(_values(n, 1)), from_numpy(_values(n, 2))]


N = 3001

CASES = {
    # selectivity over integral x in [0, 1000): 0 %, 0.2 %, 51 %, 100 %
    "select_0": (SELECT, _select(N, 0.0)),
    "select_0.2": (SELECT, _select(N, 2.0)),
    "select_51": (SELECT, _select(N, 510.0)),
    "select_100": (SELECT, _select(N, 1000.0)),
    "one_row": (SELECT, _select(1, 510.0)),
    "empty": (SELECT, _select(0, 510.0)),
    "fewer_rows_than_threads": (SELECT, _select(3, 510.0)),
    "nested_compress": (NESTED, _pair(N)),
    "two_masks": (TWO_MASKS, _pair(N)),
    "six_columns": (SIX_COLUMNS, lambda: _six_columns(N)),
    "base_and_compressed": (BASE_AND_COMPRESSED,
                            lambda: [from_numpy(_values(N, 1))]),
    "guarded_reductions": (WITH_REDUCTIONS,
                           lambda: [from_numpy(_values(N, 1))]),
    "wildcard_outputs": (WILDCARD, _select(N, 510.0)),
    "aliases": (ALIASES, _pair(N)),
}


def _compile(case: str, backend: str = "python"):
    pipeline = "O0" if case == "aliases" else None
    return compile_module(parse_module(CASES[case][0]), "opt",
                          backend=backend, pipeline=pipeline)


def _arrays(result) -> list[np.ndarray]:
    items = result.items if isinstance(result, ListValue) else [result]
    return [item.data for item in items]


def _assert_identical(got, want) -> None:
    got, want = _arrays(got), _arrays(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def _no_concatenate(*args, **kwargs):
    raise AssertionError("np.concatenate assembled a kernel output")


@pytest.mark.parametrize("chunk_size", [7, 1000, DEFAULT_CHUNK_SIZE])
@pytest.mark.parametrize("n_threads", [1, 2, 4])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_interpreter_bit_for_bit(case, engine, n_threads,
                                         chunk_size, monkeypatch):
    source, make_args = CASES[case]
    args = make_args()
    want = run_module(parse_module(source), args=args)
    program = _compile(case, BACKEND[engine])
    assert program.kernel_sources, "nothing fused"
    monkeypatch.setattr(np, "concatenate", _no_concatenate)
    got = program.run(args=args, n_threads=n_threads,
                      chunk_size=chunk_size)
    _assert_identical(got, want)


def _compressions(source: str) -> list[tuple[str, str]]:
    """``(mask, data)`` of every ``@compress`` in a kernel source."""
    return re.findall(r"\b(?:np\.take|_take)\((\w+), (_sel\d+)", source)


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_selection_per_mask(case):
    program = _compile(case)
    module = program.module
    for kernel_source in program.kernel_sources:
        masks = set(re.findall(r"selection\((\w+)\)", kernel_source))
        assert kernel_source.count("selection(") == len(masks)
        for mask in masks:
            assert f")[{mask}]" not in kernel_source
    # every compress is a take through a selection vector
    compresses = sum(str(stmt.expr).startswith("@compress")
                     for stmt in module.entry.body)
    taken = sum(len(_compressions(s)) for s in program.kernel_sources)
    assert taken == compresses


def test_six_columns_share_one_selection():
    [source] = _compile("six_columns").kernel_sources
    assert source.count("selection(") == 1
    assert len(_compressions(source)) == 7


def test_two_masks_two_selections():
    [source] = _compile("two_masks").kernel_sources
    assert sorted(re.findall(r"selection\((\w+)\)", source)) == \
        ["m1", "m2"]


def test_outputs_are_written_in_place():
    [source] = _compile("base_and_compressed").kernel_sources
    assert "s = np.multiply(x, 2.0, out=_out0," in source
    assert "m = np.greater(x, 500.0, out=_out1," in source
    assert "y = _take(s, _sel0, _out2)" in source
    [source] = _compile("aliases").kernel_sources
    # u passes x through; v's value is written by the multiply itself.
    assert "_out0" not in source
    assert "p = np.multiply(x, y, out=_out1," in source


def test_executor_has_no_concatenate():
    assert "concatenate" not in inspect.getsource(executor)


# ---------------------------------------------------------------------------
# a fused @compress never broadcasts a length-1 operand
# ---------------------------------------------------------------------------

BROADCAST = """
module M {
    def main(y:f64, x:f64): f64 {
        m:bool = @gt(y, 0.5:f64);
        c:f64 = @compress(m, x);
        d:f64 = @mul(c, 2.0:f64);
        return d;
    }
}
"""


def _broadcast_cases():
    rng = np.random.default_rng(5)
    y = rng.uniform(0, 1, 100_000)
    first_only = np.full(100_000, 0.1)
    first_only[0] = 0.9
    long_x = rng.uniform(0, 1, 100_000)
    return {
        # data of one row under a 100k-row mask
        "short_data": (y, np.array([3.0]), "mask 100000, data 1"),
        # ... where only row 0 is selected: a bare take returns one row
        "short_data_row0": (first_only, np.array([3.0]),
                            "mask 100000, data 1"),
        # a one-row mask over 100k rows of data, true and false
        "short_mask_true": (np.array([0.9]), long_x,
                            "mask 1, data 100000"),
        "short_mask_false": (np.array([0.1]), long_x,
                             "mask 1, data 100000"),
    }


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("engine", ["interp"] + ENGINES)
@pytest.mark.parametrize("case", sorted(_broadcast_cases()))
def test_broadcast_compress_raises_like_interp(case, engine, n_threads):
    y, x, lengths = _broadcast_cases()[case]
    args = [from_numpy(y), from_numpy(x)]
    module = parse_module(BROADCAST)
    message = re.escape(f"@compress length mismatch: {lengths}")
    with pytest.raises(BuiltinError, match=message):
        if engine == "interp":
            run_module(module, args=args)
        else:
            compile_module(module, "opt", backend=BACKEND[engine]).run(
                args=args, n_threads=n_threads)


@pytest.mark.parametrize("engine", ENGINES)
def test_compress_of_broadcasts_in_a_longer_loop_refuses(engine):
    """Mask and data both of one row beside a 1000-row input: legal, but
    a row loop would broadcast them, so the kernel raises instead of
    returning 1000 rows."""
    source = """
    module M {
        def main(y:f64, x:f64, z:f64): list<unknown> {
            m:bool = @gt(y, 0.5:f64);
            c:f64 = @compress(m, x);
            w:f64 = @mul(z, 2.0:f64);
            out:list<unknown> = @list(c, w);
            return out;
        }
    }
    """
    args = [from_numpy(np.array([0.9])), from_numpy(np.array([3.0])),
            from_numpy(np.arange(1000.0))]
    want = run_module(parse_module(source), args=args)
    assert _arrays(want)[0].tolist() == [3.0]
    program = compile_module(parse_module(source), "opt",
                             backend=BACKEND[engine])
    assert len(program.kernel_sources) == 1
    with pytest.raises(HorseRuntimeError, match="1-row operands"):
        program.run(args=args)


#: ``k`` is a scalar from an earlier kernel, compressing values of a
#: compressed domain: the lengths to check are only known in the loop.
DYNAMIC = """
module M {
    def main(x:f64): f64 {
        a:f64 = @mul(x, 1.0:f64);
        t:f64 = @sum(a);
        k:bool = @gt(t, 0.0:f64);
        m:bool = @gt(x, 500.0:f64);
        y:f64 = @compress(m, x);
        c:f64 = @compress(k, y);
        d:f64 = @mul(c, 2.0:f64);
        return d;
    }
}
"""


@pytest.mark.parametrize("n_threads", [1, 4])
@pytest.mark.parametrize("engine", ENGINES)
def test_broadcast_mask_in_compressed_domain(engine, n_threads):
    program = compile_module(parse_module(DYNAMIC), "opt",
                             backend=BACKEND[engine])
    assert any("_compress_check(k, y)" in source
               for source in program.kernel_sources)
    one = np.full(1000, 100.0)
    one[617] = 900.0
    args = [from_numpy(one)]
    got = program.run(args=args, n_threads=n_threads, chunk_size=7)
    _assert_identical(got, run_module(parse_module(DYNAMIC), args=args))

    many = [from_numpy(_values(1000, 1))]
    selected = int((many[0].data > 500).sum())
    message = re.escape(f"mask 1, data {selected}")
    with pytest.raises(BuiltinError, match=message):
        run_module(parse_module(DYNAMIC), args=many)
    with pytest.raises(BuiltinError, match=message):
        program.run(args=many, n_threads=n_threads, chunk_size=7)


# ---------------------------------------------------------------------------
# the shared primitive
# ---------------------------------------------------------------------------

def test_selection_is_the_row_ids_of_a_mask():
    mask = np.array([False, True, True, False, True])
    rows = hb.selection(mask)
    assert rows.dtype == np.int64
    assert rows.tolist() == [1, 2, 4]
    assert hb.selection(np.zeros(4, dtype=bool)).tolist() == []


def test_where_and_compress_use_the_selection():
    mask = from_numpy(np.array([True, False, True]))
    data = from_numpy(np.array([1.5, 2.5, 3.5]))
    where = hb.get("where").run([mask], hb.EvalContext())
    assert where.data.dtype == np.int64 and where.data.tolist() == [0, 2]
    compressed = hb.get("compress").run([mask, data], hb.EvalContext())
    assert compressed.data.tolist() == [1.5, 3.5]


# ---------------------------------------------------------------------------
# the baseline filter fetches every column through one candidate list
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def strings_db():
    rng = np.random.default_rng(9)
    n = 5000
    names = np.empty(n, dtype=object)
    names[:] = [f"name{i % 37}" for i in range(n)]
    values = rng.integers(0, 1000, n).astype(np.float64)
    db = Database()
    db.create_table("t", {"s": names, "v": values})
    with EngineSession(db) as session:
        yield session, names, values


@pytest.mark.parametrize("threshold", [-1.0, 500.0, 2000.0])
def test_baseline_filter_matches_boolean_indexing(strings_db, threshold):
    session, names, values = strings_db
    result = session.run_sql(f"SELECT s, v FROM t WHERE v > {threshold}",
                             backend="baseline")
    mask = values > threshold
    s = result.column("s")
    v = result.column("v")
    assert s.dtype == object and list(s) == list(names[mask])
    np.testing.assert_array_equal(v, values[mask])
