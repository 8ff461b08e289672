"""Property-based tests (hypothesis) on the core invariants.

The central property is the compiler's soundness: for arbitrary inputs,
the reference interpreter, the naive backend and the optimized/fused
backend must agree.  The rest pin algebraic invariants of the builtins
the optimizer's rewrites rely on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import F64, builtins as hb
from repro.core import types as ht
from repro.core.compiler import compile_module
from repro.core.interp import run_module
from repro.core.parser import parse_module
from repro.core.values import ListValue, Vector, from_numpy, scalar

CTX = hb.EvalContext()


def run(name, *args):
    return hb.get(name).run(list(args), CTX)


finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False,
                          width=64)
float_arrays = st.lists(finite_floats, min_size=0, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.float64))
nonempty_float_arrays = st.lists(finite_floats, min_size=1,
                                 max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.float64))


@st.composite
def array_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=150))
    elements = st.lists(finite_floats, min_size=n, max_size=n)
    a = np.asarray(draw(elements), dtype=np.float64)
    b = np.asarray(draw(elements), dtype=np.float64)
    return a, b


@st.composite
def masked_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=150))
    values = np.asarray(draw(st.lists(finite_floats, min_size=n,
                                      max_size=n)), dtype=np.float64)
    mask = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                    max_size=n)), dtype=np.bool_)
    return mask, values


def join_pairs(left: list, right: list, kind: str) -> list:
    """``@join_index``'s pairs by nested loops: by left row, then in
    right-input order; a left-outer miss pairs with ``-1``."""
    pairs = []
    for i, key in enumerate(left):
        matches = [(i, j) for j, other in enumerate(right) if key == other]
        pairs.extend(matches or ([(i, -1)] if kind == "left" else []))
    return pairs


@st.composite
def join_sides(draw):
    """``(shape, keys)``: one join side's ``i64`` keys, drawn to reach
    every path of ``@join_index`` — unique keys over a dense range (the
    direct lookup), that range with one key repeated, unique keys
    spread past the lookup's density bound, small keys with repeats,
    and no rows.  Offsets put keys below zero and outside the other
    side's range."""
    shape = draw(st.sampled_from(
        ["unique", "duplicate", "sparse", "repeats", "empty"]))
    offset = draw(st.integers(-40, 40))
    if shape == "empty":
        keys = []
    elif shape == "repeats":
        keys = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=40))
    else:
        n = draw(st.integers(2 if shape != "unique" else 1, 40))
        keys = draw(st.permutations(range(n)))
        if shape == "duplicate":
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            keys[i] = keys[j]
        elif shape == "sparse":
            keys = [key * (hb._DIRECT_SPAN_PER_ROW * n + 1) for key in keys]
    return shape, np.asarray(keys, dtype=np.int64) + offset


class TestBuiltinInvariants:
    @given(masked_pairs())
    def test_compress_keeps_exactly_masked_elements(self, pair):
        mask, values = pair
        result = run("compress", from_numpy(mask), from_numpy(values))
        assert len(result) == int(mask.sum())
        assert np.array_equal(result.data, values[mask])

    @given(nonempty_float_arrays)
    def test_avg_split_identity(self, values):
        """The pattern rewrite avg == sum / count."""
        avg = run("avg", from_numpy(values)).item()
        total = run("sum", from_numpy(values)).item()
        count = run("count", from_numpy(values)).item()
        assert np.isclose(avg, total / count)

    @given(float_arrays)
    def test_cumsum_last_equals_sum(self, values):
        if len(values) == 0:
            return
        cumulative = run("cumsum", from_numpy(values))
        total = run("sum", from_numpy(values))
        assert np.isclose(cumulative.data[-1], total.item())

    @given(st.lists(st.integers(min_value=-50, max_value=50),
                    min_size=0, max_size=120))
    def test_group_is_a_partition(self, keys):
        data = np.asarray(keys, dtype=np.int64)
        grouped = run("group", from_numpy(data))
        first, codes = grouped[0].data, grouped[1].data
        assert len(codes) == len(data)
        if len(data) == 0:
            return
        ngroups = len(first)
        # Codes are dense in [0, ngroups).
        assert set(codes.tolist()) == set(range(ngroups))
        # The representative row of each group carries the group's key.
        for gid in range(ngroups):
            members = data[codes == gid]
            assert np.all(members == data[first[gid]])
        # First-appearance numbering: first indices strictly increase.
        assert np.all(np.diff(first) > 0)

    @given(join_sides(), join_sides())
    def test_join_index_matches_bruteforce(self, left, right):
        """Pairs come out by left row, a left row's matches in
        right-input order, a left-outer miss as ``-1``, whichever
        physical path the keys select; the sort path agrees exactly."""
        lv, rv = left[1], right[1]
        for kind in ("inner", "left"):
            pair = run("join_index", from_numpy(lv), from_numpy(rv),
                       scalar(kind, ht.SYM))
            got = list(zip(pair[0].data.tolist(), pair[1].data.tolist()))
            assert got == join_pairs(lv.tolist(), rv.tolist(), kind)
            lidx, ridx = hb._join_sorted(lv, rv, kind)
            assert np.array_equal(pair[0].data, lidx)
            assert np.array_equal(pair[1].data, ridx)
            assert pair[0].data.dtype == pair[1].data.dtype == np.int64

    @given(join_sides())
    def test_direct_lookup_applies_to_unique_dense_keys_only(self, side):
        shape, keys = side
        table = hb._direct_table(keys)
        if shape == "unique":
            assert table is not None
            slots, base = table
            assert np.array_equal(slots[keys - base], np.arange(len(keys)))
        elif shape in ("duplicate", "sparse", "empty"):
            assert table is None

    def test_direct_lookup_takes_narrow_probes_of_far_keys(self):
        """An ``i32`` probe against unique ``i64`` keys far past its
        range: no overflow, every probe a miss, as on the sort path."""
        left = np.array([5, 2**31 - 1, -2**31, 3], dtype=np.int32)
        right = np.arange(2**40, 2**40 + 5, dtype=np.int64)
        assert hb._direct_table(right) is not None
        for kind in ("inner", "left"):
            got = hb._join_single_numeric(left, right, kind)
            want = hb._join_sorted(left, right, kind)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @given(st.lists(st.tuples(st.integers(-3, 3),
                              st.sampled_from(["a", "b", "c"])),
                    max_size=30),
           st.lists(st.tuples(st.integers(-3, 3),
                              st.sampled_from(["b", "c", "d"])),
                    max_size=30))
    def test_composite_and_string_keys_match_bruteforce(self, left, right):
        def side(rows):
            words = np.empty(len(rows), dtype=object)
            words[:] = [word for _, word in rows]
            return [Vector(ht.I64, np.asarray([n for n, _ in rows],
                                              dtype=np.int64)),
                    Vector(ht.STR, words)]

        lkeys, rkeys = side(left), side(right)
        codes = hb._join_key_codes(lkeys, rkeys)
        for kind in ("inner", "left"):
            for pick in (slice(None), slice(1, 2)):  # composite, string
                pair = run("join_index", ListValue(lkeys[pick]),
                           ListValue(rkeys[pick]), scalar(kind, ht.SYM))
                got = list(zip(pair[0].data.tolist(),
                               pair[1].data.tolist()))
                want = join_pairs([row[pick] for row in left],
                                  [row[pick] for row in right], kind)
                assert got == want
            lidx, ridx = hb._join_sorted(*codes, kind)
            pair = run("join_index", ListValue(lkeys), ListValue(rkeys),
                       scalar(kind, ht.SYM))
            assert np.array_equal(pair[0].data, lidx)
            assert np.array_equal(pair[1].data, ridx)

    @given(nonempty_float_arrays)
    def test_order_produces_sorted_permutation(self, values):
        order = run("order", from_numpy(values),
                    Vector(ht.BOOL, np.array([True]))).data
        assert sorted(order.tolist()) == list(range(len(values)))
        assert np.all(np.diff(values[order]) >= 0)

    @given(st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=0,
                    max_size=100))
    def test_unique_first_appearance(self, values):
        array = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            array[i] = v
        result = run("unique", Vector(ht.STR, array)).data.tolist()
        expected = list(dict.fromkeys(values))
        assert result == expected

    @given(masked_pairs())
    def test_group_sum_totals_to_global_sum(self, pair):
        _, values = pair
        if len(values) == 0:
            return
        codes = from_numpy((np.arange(len(values)) % 3).astype(np.int64))
        partial = run("group_sum", from_numpy(values), codes,
                      scalar(3, ht.I64))
        assert np.isclose(partial.data.sum(), values.sum())


PIPELINE = """
module P {
    def main(x:f64, y:f64): f64 {
        a:f64 = @mul(x, y);
        b:f64 = @add(a, 1.0:f64);
        c:f64 = @abs(b);
        d:f64 = @sqrt(c);
        m:bool = @geq(d, 1.0:f64);
        e:f64 = @compress(m, d);
        f:f64 = @compress(m, x);
        g:f64 = @mul(e, f);
        s:f64 = @sum(g);
        return s;
    }
}
"""


class TestBackendEquivalence:
    """Interpreter == naive backend == optimized backend."""

    @settings(max_examples=30, deadline=None)
    @given(array_pairs(), st.integers(min_value=7, max_value=64))
    def test_three_executions_agree(self, pair, chunk):
        x, y = pair
        args = [from_numpy(x), from_numpy(y)]
        interpreted = run_module(parse_module(PIPELINE), args=args)
        naive = compile_module(parse_module(PIPELINE), "naive").run(
            args=args)
        opt = compile_module(parse_module(PIPELINE), "opt").run(
            args=args, chunk_size=chunk)
        assert np.isclose(interpreted.item(), naive.item())
        assert np.isclose(interpreted.item(), opt.item())

    @settings(max_examples=20, deadline=None)
    @given(nonempty_float_arrays, st.integers(min_value=2, max_value=4))
    def test_threading_is_deterministic(self, values, threads):
        source = """
        module T {
            def main(x:f64): f64 {
                a:f64 = @mul(x, x);
                b:f64 = @add(a, 0.5:f64);
                s:f64 = @sum(b);
                return s;
            }
        }
        """
        program = compile_module(parse_module(source), "opt")
        single = program.run(args=[from_numpy(values)], n_threads=1,
                             chunk_size=16)
        multi = program.run(args=[from_numpy(values)], n_threads=threads,
                            chunk_size=16)
        assert np.isclose(single.item(), multi.item())


class TestMatlangEquivalence:
    """MATLAB interpreter == compiled HorseIR, property-style."""

    @settings(max_examples=25, deadline=None)
    @given(nonempty_float_arrays)
    def test_filter_sum_kernel(self, values):
        from repro.engine import EngineSession
        from repro.matlang.interp import run_matlab
        source = """
        function y = f(x)
            m = x(x > 0);
            y = sum(m .* m) + sum(x);
        end
        """
        expected = run_matlab(source, values)
        program = EngineSession().compile_matlab(source)
        assert np.isclose(float(program(values)),
                          float(np.asarray(expected).reshape(-1)[0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=10),
           st.lists(finite_floats, min_size=10, max_size=60))
    def test_msum_window(self, window, values):
        from repro.engine import EngineSession
        data = np.asarray(values, dtype=np.float64)
        source = """
        function s = msum(x, n)
            c = cumsum(x);
            s = c(n:end) - [0, c(1:end-n)];
        end
        """
        program = EngineSession().compile_matlab(
            source, param_specs=[("f64", "vector"), ("f64", "scalar")])
        result = np.atleast_1d(np.asarray(
            program(data, float(window)), dtype=np.float64))
        expected = np.convolve(data, np.ones(window), mode="valid")
        assert np.allclose(result, expected, atol=1e-6)
