"""The shape lattice of type/shape inference: broadcasting, length
agreement, and the tokens that let compressed vectors line up."""

import pytest

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
        assert shape_a.token == shape_b.token
