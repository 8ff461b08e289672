"""Printer and parser behaviours not covered elsewhere (the verifier's
own table is ``test_verify.py``)."""

import pytest

from repro.core import ir
from repro.core import types as ht
from repro.core.parser import parse_method, parse_module
from repro.core.printer import print_method, print_module, print_stmt
from repro.errors import HorseSyntaxError


ROUND_TRIP_SOURCES = [
    """
    module A {
        def main(x:f64, y:i64): table {
            a:f64 = @add(x, 1.5:f64);
            b:bool = @geq(a, 0:i64);
            c:f64 = @compress(b, a);
            s:sym = `col:sym;
            l:list<f64> = @list(c);
            t:table = @table(s, l);
            return t;
        }
    }
    """,
    """
    module B {
        def f(s:str, d:date): bool {
            m1:bool = @eq(s, "it's":str);
            m2:bool = @lt(d, 1998-09-02:date);
            m:bool = @and(m1, m2);
            r:bool = @any(m);
            return r;
        }
        def main(s:str, d:date): bool {
            r:bool = @f(s, d);
            return r;
        }
    }
    """,
    """
    module C {
        def main(n:i64): i64 {
            total:i64 = 0:i64;
            i:i64 = 0:i64;
            c:bool = @lt(i, n);
            while (c) {
                p:bool = @gt(i, 3:i64);
                if (p) {
                    total:i64 = @add(total, i);
                } else {
                    total:i64 = @sub(total, i);
                }
                i:i64 = @add(i, 1:i64);
                c:bool = @lt(i, n);
            }
            return total;
        }
    }
    """,
]


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_print_parse_print_fixpoint(self, source):
        module = parse_module(source)
        printed = print_module(module)
        reparsed = parse_module(printed)
        assert print_module(reparsed) == printed

    def test_print_stmt_variants(self):
        method = parse_method("""
        def m(c:bool): i64 {
            if (c) {
                x:i64 = 1:i64;
            } else {
                x:i64 = 2:i64;
            }
            return x;
        }
        """)
        text = print_stmt(method.body[0])
        assert text.startswith("if (c)")
        assert "} else {" in text

    def test_wildcard_type_round_trips(self):
        method = ir.Method("m", [ir.Param("x", ht.F64)], ht.F64, [
            ir.Assign("a", ht.WILDCARD,
                      ir.BuiltinCall("mul", [ir.Var("x"), ir.Var("x")])),
            ir.Return(ir.Var("a")),
        ])
        text = print_method(method)
        assert "a:unknown" in text
        reparsed = parse_method(text)
        assert reparsed.body[0].type is ht.WILDCARD


class TestParserErrors:
    def test_unknown_character(self):
        with pytest.raises(HorseSyntaxError, match="unexpected"):
            parse_module("module M { def main(): i64 { § } }")

    def test_symbol_without_sym_suffix(self):
        with pytest.raises(HorseSyntaxError, match="sym"):
            parse_module("""
            module M {
                def main(): table {
                    t:table = @load_table(`x:f64);
                    return t;
                }
            }
            """)

    def test_date_literal_wrong_annotation(self):
        with pytest.raises(HorseSyntaxError, match="date"):
            parse_module("""
            module M {
                def main(): f64 {
                    a:f64 = 1998-09-02:f64;
                    return a;
                }
            }
            """)

    def test_duplicate_method_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_module("""
            module M {
                def f(): i64 { return 1:i64; }
                def f(): i64 { return 2:i64; }
            }
            """)
