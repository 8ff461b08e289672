"""The shape lattice of type/shape inference: broadcasting, length
agreement, and the length tokens loop fusion reads (tables, masks,
joins)."""

import pytest

from repro.core import ir
from repro.core.analysis import SCALAR, broadcast_shapes, infer_method
from repro.core.analysis.typeshape import vector_shape
from repro.core.parser import parse_module
from repro.errors import HorseTypeError


class TestShapeLattice:
    def test_scalar_broadcasts_with_anything(self):
        shape = broadcast_shapes([SCALAR, vector_shape(length=7)])
        assert shape.length == 7

    def test_equal_lengths_merge(self):
        shape = broadcast_shapes([vector_shape(length=7),
                                  vector_shape(length=7)])
        assert shape.length == 7

    def test_unequal_lengths_raise(self):
        with pytest.raises(HorseTypeError, match="3 vs 7"):
            broadcast_shapes([vector_shape(length=3),
                              vector_shape(length=7)],
                             context="@add")

    def test_matching_tokens_flow_through(self):
        a = vector_shape(token=("rows", "t"))
        b = vector_shape(token=("rows", "t"))
        assert broadcast_shapes([a, b]).token == ("rows", "t")

    def test_compressed_vectors_share_mask_token(self):
        # The Q6 fact: two compressions by the same mask agree.
        module = parse_module("""
        module M {
            def main(x:f64, y:f64): f64 {
                m:bool = @gt(x, 1.0:f64);
                a:f64 = @compress(m, x);
                b:f64 = @compress(m, y);
                p:f64 = @mul(a, b);
                s:f64 = @sum(p);
                return s;
            }
        }
        """)
        facts = infer_method(module.methods["main"], module,
                             strict=True)  # must not report a mismatch
        body = module.methods["main"].body
        shape_a = facts.stmt_facts[id(body[1])].shape
        shape_b = facts.stmt_facts[id(body[2])].shape
        assert shape_a.token == shape_b.token == ("compress", ("var", "m"))


def _shapes(source: str) -> dict:
    """``target -> shape`` of every assignment of ``main``."""
    module = parse_module(source)
    method = module.methods["main"]
    facts = infer_method(method, module, strict=True)
    return {stmt.target: facts.stmt_facts[id(stmt)].shape
            for stmt in method.body if isinstance(stmt, ir.Assign)}


class TestLengthTokens:
    def test_two_masks_over_one_source_do_not_agree(self):
        # Both masks derive from x; their compressions keep different
        # rows, so neither their tokens nor their product's agree.
        shapes = _shapes("""
        module M {
            def main(x:f64, y:f64): f64 {
                m:bool = @gt(x, 1.0:f64);
                n:bool = @lt(x, 5.0:f64);
                a:f64 = @compress(m, x);
                b:f64 = @compress(n, y);
                p:f64 = @mul(a, b);
                return p;
            }
        }
        """)
        assert shapes["a"].token == ("compress", ("var", "m"))
        assert shapes["b"].token == ("compress", ("var", "n"))
        assert shapes["p"].token is None

    def test_a_reassigned_mask_names_no_length(self):
        shapes = _shapes("""
        module M {
            def main(x:f64): f64 {
                m:bool = @gt(x, 1.0:f64);
                m:bool = @lt(x, 5.0:f64);
                a:f64 = @compress(m, x);
                w:i64 = @where(m);
                return a;
            }
        }
        """)
        assert shapes["a"].token is None
        assert shapes["w"].token is None

    def test_columns_of_one_table_share_its_rows_token(self):
        shapes = _shapes("""
        module M {
            def main(): f64 {
                t:table = @load_table(`lineitem:sym);
                u:table = @load_table(`lineitem:sym);
                x:f64 = check_cast(@column_value(t, `a:sym), f64);
                y:f64 = check_cast(@column_value(u, `b:sym), f64);
                p:f64 = @mul(x, y);
                return p;
            }
        }
        """)
        rows = ("rows", ("table", "lineitem"))
        assert shapes["x"].token == shapes["y"].token == rows
        assert shapes["p"].token == rows

    def test_both_index_vectors_of_a_join_have_its_pair_count(self):
        shapes = _shapes("""
        module M {
            def main(k:i64, v:f64, w:f64): f64 {
                j:list<i64> = @join_index(k, k, `inner:sym);
                li:i64 = @list_item(j, 0:i64);
                ri:i64 = @list_item(j, 1:i64);
                a:f64 = @index(v, li);
                b:f64 = @index(w, ri);
                p:f64 = @mul(a, b);
                return p;
            }
        }
        """)
        pairs = ("join", ("var", "j"))
        assert shapes["j"].kind == "list"
        assert shapes["a"].token == shapes["b"].token == pairs
        assert shapes["p"].token == pairs

    def test_lowering_builtins_have_shapes(self):
        shapes = _shapes("""
        module M {
            def main(s:str, x:f64): f64 {
                c:i32 = @str_codes(s);
                d:str = @str_dict(s);
                k:i32 = @str_find(s, "a":str);
                e:bool = @eq(d, "a":str);
                g:bool = @gather(e, c);
                r:str = @str_decode(c, s);
                return x;
            }
        }
        """)
        param = ("param", "s")
        assert shapes["c"].token == param
        assert shapes["k"] == SCALAR
        assert shapes["g"].token == param
        assert shapes["r"].token == param
