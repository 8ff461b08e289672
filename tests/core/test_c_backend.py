"""Tests for the native (emitted C + OpenMP) backend."""

import numpy as np
import pytest

from repro.core import from_numpy, types as ht
from repro.core.codegen.cgen import CKernel, c_backend_available
from repro.core.compiler import compile_module
from repro.core.optimizer.fusion import FusedItem, segment_method
from repro.core.parser import parse_method, parse_module

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
                extra:f64 = @abs(prod);
                s:f64 = @sum(extra);
                return s;
            }
        }
        """
        rng = np.random.default_rng(1)
        args = [from_numpy(rng.uniform(100, 1000, 50_000)),
                from_numpy(rng.uniform(0, 0.1, 50_000)),
                from_numpy(rng.uniform(1, 50, 50_000))]
        py, c = _both(source, args)
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

    def test_compressed_vector_output_falls_back(self):
        method = parse_method("""
        def main(x:f64): f64 {
            m:bool = @gt(x, 0.5:f64);
            y:f64 = @compress(m, x);
            z:f64 = @mul(y, 2.0:f64);
            return z;
        }
        """)
        plan = segment_method(method)
        for item in plan:
            if isinstance(item, FusedItem):
                kernel = CKernel(item.segment)
                assert not kernel.eligible  # compressed vector output

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
        program = _compile(source)
        result = program.run(args=[from_numpy(np.empty(0))])
        assert result.item() == 0


class TestMatlabAndSQLThroughC:
    def test_blackscholes_matlab(self):
        from repro.data.blackscholes import (calc_option_price,
                                             generate_blackscholes)
        from repro.matlang import compile_matlab
        from repro.workloads.matlab_sources import BLACKSCHOLES_MATLAB

        data = generate_blackscholes(20_000)
        args = [data[c] for c in ("spotPrice", "strike", "rate",
                                  "volatility", "otime", "optionType")]
        program = compile_matlab(BLACKSCHOLES_MATLAB, backend="c")
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
        python_result = hp.run_sql(sql, backend="python")
        c_result = hp.run_sql(sql, backend="c")
        assert c_result.column("r").data[0] == pytest.approx(
            python_result.column("r").data[0])
