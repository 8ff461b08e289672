"""Unit tests for the HorseIR builtin library."""

import re

import numpy as np
import pytest

from repro.core import builtins as hb
from repro.core.analysis import typeshape
from repro.core import types as ht
from repro.core.values import ListValue, TableValue, Vector, from_numpy, \
    scalar, vector
from repro.errors import BuiltinError

CTX = hb.EvalContext()


def run(name, *args):
    return hb.get(name).run(list(args), CTX)


def vec(values, type_=ht.F64):
    return vector(list(values), type_)


class TestArithmetic:
    def test_add_promotes_int_and_float(self):
        result = run("add", vec([1, 2], ht.I64), vec([0.5, 0.5]))
        assert result.type == ht.F64
        assert np.allclose(result.data, [1.5, 2.5])

    def test_div_always_float(self):
        result = run("div", vec([3, 1], ht.I64), vec([2, 2], ht.I64))
        assert result.type == ht.F64
        assert np.allclose(result.data, [1.5, 0.5])

    def test_scalar_broadcast(self):
        result = run("mul", vec([1.0, 2.0, 3.0]), scalar(2.0))
        assert np.allclose(result.data, [2.0, 4.0, 6.0])

    def test_neg_abs_sign(self):
        data = vec([-2.0, 0.0, 3.0])
        assert np.allclose(run("neg", data).data, [2.0, 0.0, -3.0])
        assert np.allclose(run("abs", data).data, [2.0, 0.0, 3.0])
        assert np.allclose(run("sign", data).data, [-1.0, 0.0, 1.0])

    def test_unary_math(self):
        x = vec([1.0, 4.0])
        assert np.allclose(run("sqrt", x).data, [1.0, 2.0])
        assert np.allclose(run("exp", vec([0.0])).data, [1.0])
        assert np.allclose(run("log", vec([1.0])).data, [0.0])

    def test_floor_ceil_round(self):
        x = vec([1.4, 2.6, -1.5])
        assert np.allclose(run("floor", x).data, [1.0, 2.0, -2.0])
        assert np.allclose(run("ceil", x).data, [2.0, 3.0, -1.0])

    def test_mod_and_power(self):
        assert np.allclose(
            run("mod", vec([7, 8], ht.I64), vec([3, 3], ht.I64)).data,
            [1, 2])
        assert np.allclose(
            run("power", vec([2.0, 3.0]), vec([3.0, 2.0])).data, [8, 9])

    def test_wrong_arity_rejected(self):
        with pytest.raises(BuiltinError, match="expects 2"):
            run("add", vec([1.0]))
        # Opaque builtins and reductions are checked from the record too.
        with pytest.raises(BuiltinError) as info:
            run("index", vec([1.0]))
        assert str(info.value) == "@index expects 2 argument(s), got 1"
        with pytest.raises(BuiltinError) as info:
            run("sum", vec([1.0]), vec([2.0]))
        assert str(info.value) == "@sum expects 1 argument(s), got 2"


class TestRecord:
    """A builtin's signature is part of its one registration."""

    @staticmethod
    def _run(args, _):
        return args[0]

    def test_builtin_without_constraints_is_refused(self):
        with pytest.raises(BuiltinError,
                           match="@probe states no argument constraints"):
            hb.Builtin("probe", "opaque", (), lambda _: ht.I64, self._run)

    def test_opaque_builtin_without_shape_rule_is_refused(self):
        with pytest.raises(BuiltinError, match="@probe states no shape rule"):
            hb.Builtin("probe", "opaque", ("any",), lambda _: ht.I64,
                       self._run)

    def test_unknown_constraint_kind_is_refused(self):
        with pytest.raises(BuiltinError,
                           match="@probe names unknown constraint kind "
                                 "'numric'"):
            hb.Builtin("probe", "elementwise", ("numric", "numric"),
                       lambda _: ht.I64, self._run)

    def test_the_checker_knows_every_constraint_kind(self):
        # Each kind in the vocabulary is decided by the type checker;
        # a kind outside it raises instead of passing everything.
        for kind in hb.CONSTRAINT_KINDS:
            typeshape._satisfies(ht.TABLE, kind)
        with pytest.raises(ValueError, match="unknown constraint kind"):
            typeshape._satisfies(ht.TABLE, "numric")

    def test_shape_and_arity_follow_from_the_record(self):
        builtin = hb.Builtin("probe", "elementwise", ("numeric", "any"),
                             lambda _: ht.I64, self._run)
        assert (builtin.shape, builtin.arity) == ("elementwise", 2)
        variadic = hb.Builtin("probe", "opaque", ("any",),
                              lambda _: ht.I64, self._run, shape="list",
                              variadic=True)
        assert variadic.arity is None
        assert variadic.run([vector([1.0, 2.0], ht.F64)] * 3, CTX) \
            .data.tolist() == [1.0, 2.0]

    def test_concat_still_needs_one_argument(self):
        with pytest.raises(BuiltinError,
                           match="@concat expects at least one argument"):
            run("concat")


class TestComparisonsAndLogic:
    def test_comparisons_yield_bool(self):
        result = run("geq", vec([1.0, 2.0, 3.0]), scalar(2.0))
        assert result.type == ht.BOOL
        assert result.data.tolist() == [False, True, True]

    def test_string_equality(self):
        strings = vec(["a", "b", "a"], ht.STR)
        result = run("eq", strings, scalar("a"))
        assert result.data.tolist() == [True, False, True]

    def test_date_comparison(self):
        dates = from_numpy(np.array(["2020-01-01", "2021-06-15"],
                                    dtype="datetime64[D]"))
        pivot = scalar(np.datetime64("2020-12-31"), ht.DATE)
        assert run("lt", dates, pivot).data.tolist() == [True, False]

    def test_boolean_connectives(self):
        a = vec([True, True, False], ht.BOOL)
        b = vec([True, False, False], ht.BOOL)
        assert run("and", a, b).data.tolist() == [True, False, False]
        assert run("or", a, b).data.tolist() == [True, True, False]
        assert run("not", a).data.tolist() == [False, False, True]

    def test_if_else_elementwise(self):
        mask = vec([True, False], ht.BOOL)
        result = run("if_else", mask, vec([1.0, 1.0]), vec([9.0, 9.0]))
        assert np.allclose(result.data, [1.0, 9.0])

    def test_min2_max2(self):
        a, b = vec([1.0, 5.0]), vec([3.0, 2.0])
        assert np.allclose(run("min2", a, b).data, [1.0, 2.0])
        assert np.allclose(run("max2", a, b).data, [3.0, 5.0])


class TestReductions:
    def test_sum_int_widens_to_i64(self):
        result = run("sum", vec([1, 2, 3], ht.I32))
        assert result.type == ht.I64
        assert result.item() == 6

    def test_avg_min_max_count(self):
        x = vec([2.0, 4.0, 9.0])
        assert run("avg", x).item() == pytest.approx(5.0)
        assert run("min", x).item() == 2.0
        assert run("max", x).item() == 9.0
        assert run("count", x).item() == 3

    def test_any_all(self):
        assert run("any", vec([False, True], ht.BOOL)).item() is True
        assert run("all", vec([False, True], ht.BOOL)).item() is False

    def test_sum_of_empty_is_zero(self):
        assert run("sum", vec([], ht.F64)).item() == 0

    def test_min_of_empty_raises(self):
        with pytest.raises(BuiltinError, match="empty"):
            run("min", vec([], ht.F64))

    def test_cumsum(self):
        result = run("cumsum", vec([1.0, 2.0, 3.0]))
        assert np.allclose(result.data, [1.0, 3.0, 6.0])


class TestCompressIndexSlice:
    def test_compress(self):
        mask = vec([True, False, True], ht.BOOL)
        result = run("compress", mask, vec([10.0, 20.0, 30.0]))
        assert np.allclose(result.data, [10.0, 30.0])

    def test_compress_length_mismatch(self):
        with pytest.raises(BuiltinError, match="length mismatch"):
            run("compress", vec([True], ht.BOOL), vec([1.0, 2.0]))

    def test_compress_requires_bool_mask(self):
        with pytest.raises(BuiltinError, match="bool"):
            run("compress", vec([1, 0], ht.I64), vec([1.0, 2.0]))

    def test_index(self):
        result = run("index", vec([10.0, 20.0, 30.0]),
                     vec([2, 0], ht.I64))
        assert np.allclose(result.data, [30.0, 10.0])

    def test_where(self):
        result = run("where", vec([False, True, True], ht.BOOL))
        assert result.data.tolist() == [1, 2]

    def test_subseq_is_one_based_inclusive_view(self):
        base = vec([1.0, 2.0, 3.0, 4.0, 5.0])
        result = run("subseq", base, scalar(2, ht.I64),
                     scalar(4, ht.I64))
        assert np.allclose(result.data, [2.0, 3.0, 4.0])
        # Zero-copy: the view shares memory with the base vector.
        assert result.data.base is base.data

    def test_subseq_bounds_checked(self):
        with pytest.raises(BuiltinError, match="out of range"):
            run("subseq", vec([1.0, 2.0]), scalar(0, ht.I64),
                scalar(2, ht.I64))

    def test_take_and_reverse(self):
        x = vec([1.0, 2.0, 3.0])
        assert np.allclose(run("take", x, scalar(2, ht.I64)).data,
                           [1.0, 2.0])
        assert np.allclose(run("reverse", x).data, [3.0, 2.0, 1.0])


class TestVectorConstructors:
    def test_range(self):
        assert run("range", scalar(4, ht.I64)).data.tolist() == [0, 1, 2,
                                                                 3]

    def test_fill(self):
        result = run("fill", scalar(3, ht.I64), scalar(7.5))
        assert np.allclose(result.data, [7.5, 7.5, 7.5])

    def test_concat_promotes(self):
        result = run("concat", vec([1], ht.I64), vec([2.5]))
        assert result.type == ht.F64
        assert np.allclose(result.data, [1.0, 2.5])

    def test_unique_preserves_first_appearance(self):
        result = run("unique", vec(["b", "a", "b", "c"], ht.STR))
        assert result.data.tolist() == ["b", "a", "c"]

    def test_len_of_vector_list_table(self):
        assert run("len", vec([1.0, 2.0])).item() == 2
        assert run("len", ListValue([vec([1.0])])).item() == 1
        table = TableValue([("x", vec([1.0, 2.0, 3.0]))])
        assert run("len", table).item() == 3


class TestStringPredicates:
    def test_like_translates_sql_wildcards(self):
        values = vec(["PROMO TIN", "LARGE TIN", "PRO"], ht.STR)
        assert run("like", values,
                   scalar("PROMO%")).data.tolist() == [True, False,
                                                       False]
        assert run("like", values,
                   scalar("%TIN")).data.tolist() == [True, True, False]
        assert run("like", vec(["ab", "ax"], ht.STR),
                   scalar("a_")).data.tolist() == [True, True]

    def test_like_escapes_regex_metacharacters(self):
        values = vec(["a.b", "axb"], ht.STR)
        assert run("like", values,
                   scalar("a.b")).data.tolist() == [True, False]

    def test_startswith(self):
        values = vec(["PROMO X", "ECONOMY"], ht.STR)
        assert run("startswith", values,
                   scalar("PROMO")).data.tolist() == [True, False]

    def test_member(self):
        values = vec(["MAIL", "AIR", "SHIP"], ht.STR)
        pool = vec(["MAIL", "SHIP"], ht.STR)
        assert run("member", values, pool).data.tolist() == [True, False,
                                                             True]


class TestGrouping:
    def test_group_single_key(self):
        keys = vec(["b", "a", "b", "a", "c"], ht.STR)
        grouped = run("group", keys)
        first, codes = grouped[0], grouped[1]
        # Groups numbered by first appearance: b=0, a=1, c=2.
        assert codes.data.tolist() == [0, 1, 0, 1, 2]
        assert first.data.tolist() == [0, 1, 4]

    def test_group_multi_key(self):
        k1 = vec(["x", "x", "y", "y"], ht.STR)
        k2 = vec([1, 2, 1, 1], ht.I64)
        grouped = run("group", k1, k2)
        codes = grouped[1].data
        assert codes[2] == codes[3]  # (y,1) == (y,1)
        assert len(set(codes.tolist())) == 3

    def test_group_aggregates(self):
        codes = vec([0, 1, 0, 1], ht.I64)
        ngroups = scalar(2, ht.I64)
        values = vec([1.0, 10.0, 2.0, 20.0])
        assert run("group_sum", values, codes,
                   ngroups).data.tolist() == [3.0, 30.0]
        assert run("group_count", values, codes,
                   ngroups).data.tolist() == [2, 2]
        # A grouped average is a grouped sum over a grouped count.
        assert run("div", run("group_sum", values, codes, ngroups),
                   run("group_count", codes, codes,
                       ngroups)).data.tolist() == [1.5, 15.0]
        assert sorted(name for name in hb.BUILTINS
                      if name.startswith("group_")) == [
            "group_count", "group_max", "group_min", "group_sum"]
        assert run("group_min", values, codes,
                   ngroups).data.tolist() == [1.0, 10.0]
        assert run("group_max", values, codes,
                   ngroups).data.tolist() == [2.0, 20.0]

    def test_group_sum_of_integers_is_i64(self):
        ints = run("group_sum", vec([1, 2, 3], ht.I64),
                   vec([0, 0, 1], ht.I64), scalar(2, ht.I64))
        assert ints.type == ht.I64 and ints.data.tolist() == [3, 3]

    @pytest.mark.parametrize("name", ["group_sum", "group_count",
                                      "group_min", "group_max"])
    @pytest.mark.parametrize("values, codes, ngroups, message", [
        ([1.0, 2.0, 3.0], [0, 1], 2, "3 values for 2 group ids"),
        ([1.0], [0, 0, 1], 2, "1 values for 3 group ids"),
        ([1.0, 2.0], [0, 2], 2, "group ids outside [0, 2)"),
        ([1.0, 2.0], [0, 5], 1, "group ids outside [0, 1)"),
        ([1.0, 2.0], [0, -1], 2, "group ids outside [0, 2)"),
    ], ids=["long-values", "short-values", "id-eq-ng", "id-gt-ng",
            "negative-id"])
    def test_grouped_refuses_bad_arguments(self, name, values, codes,
                                           ngroups, message):
        with pytest.raises(BuiltinError,
                           match=re.escape(f"@{name}: {message}")):
            run(name, vec(values), vec(codes, ht.I64),
                scalar(ngroups, ht.I64))


class TestJoinAndOrder:
    def test_inner_join_single_numeric_key(self):
        left = vec([1, 2, 3, 2], ht.I64)
        right = vec([2, 3, 4], ht.I64)
        pair = run("join_index", left, right, scalar("inner", ht.SYM))
        lidx, ridx = pair[0].data, pair[1].data
        matches = sorted(zip(lidx.tolist(), ridx.tolist()))
        assert matches == [(1, 0), (2, 1), (3, 0)]

    def test_inner_join_multi_key(self):
        left = ListValue([vec([1, 1, 2], ht.I64),
                          vec(["a", "b", "a"], ht.STR)])
        right = ListValue([vec([1, 2], ht.I64),
                           vec(["b", "a"], ht.STR)])
        pair = run("join_index", left, right, scalar("inner", ht.SYM))
        matches = sorted(zip(pair[0].data.tolist(),
                             pair[1].data.tolist()))
        assert matches == [(1, 0), (2, 1)]

    def test_left_join_emits_minus_one(self):
        left = vec([1, 9], ht.I64)
        right = vec([1], ht.I64)
        pair = run("join_index", left, right, scalar("left", ht.SYM))
        assert pair[1].data.tolist() == [0, -1]

    def test_order_single_key_desc(self):
        keys = vec([3.0, 1.0, 2.0])
        asc = vec([False], ht.BOOL)
        assert run("order", keys, asc).data.tolist() == [0, 2, 1]

    def test_order_multi_key_mixed_direction(self):
        major = vec(["b", "a", "a"], ht.STR)
        minor = vec([1.0, 2.0, 1.0])
        keys = ListValue([major, minor])
        asc = vec([True, False], ht.BOOL)
        order = run("order", keys, asc).data.tolist()
        # a-group first (major asc), within it minor desc: 2.0 before 1.0.
        assert order == [1, 2, 0]

    def test_order_is_stable(self):
        keys = vec([1.0, 1.0, 1.0])
        asc = vec([True], ht.BOOL)
        assert run("order", keys, asc).data.tolist() == [0, 1, 2]


class TestTablesAndLists:
    def test_table_construction(self):
        names = vec(["a", "b"], ht.SYM)
        cols = ListValue([vec([1.0]), vec([2.0])])
        table = run("table", names, cols)
        assert table.column_names == ["a", "b"]

    def test_table_name_count_mismatch(self):
        names = vec(["a"], ht.SYM)
        cols = ListValue([vec([1.0]), vec([2.0])])
        with pytest.raises(BuiltinError, match="names"):
            run("table", names, cols)

    def test_load_table_uses_context(self):
        table = TableValue([("x", vec([1.0]))])
        ctx = hb.EvalContext({"t": table})
        loaded = hb.get("load_table").run([scalar("t", ht.SYM)], ctx)
        assert loaded is table

    def test_load_table_unknown(self):
        with pytest.raises(BuiltinError, match="unknown table"):
            run("load_table", scalar("missing", ht.SYM))

    def test_column_value(self):
        table = TableValue([("x", vec([7.0]))])
        result = run("column_value", table, scalar("x", ht.SYM))
        assert result.data.tolist() == [7.0]

    def test_list_item_bounds(self):
        lst = ListValue([vec([1.0])])
        with pytest.raises(BuiltinError, match="out of range"):
            run("list_item", lst, scalar(3, ht.I64))


class TestDateBuiltins:
    def test_date_parts(self):
        dates = from_numpy(np.array(["1998-09-02"], dtype="datetime64[D]"))
        assert run("date_year", dates).item() == 1998
        assert run("date_month", dates).item() == 9
        assert run("date_day", dates).item() == 2

    def test_date_to_i64_matches_numpy_epoch(self):
        dates = from_numpy(np.array(["1970-01-02"], dtype="datetime64[D]"))
        assert run("date_to_i64", dates).item() == 1

    def test_unknown_builtin(self):
        with pytest.raises(BuiltinError, match="unknown builtin"):
            hb.get("definitely_not_a_builtin")
