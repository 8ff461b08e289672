"""Threads are the C backend's: ``n_threads`` is the OpenMP thread count
of its emitted kernels.  The NumPy kernels and the baseline run on the
caller's thread, and a thread count below one is refused on every
engine."""

import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.codegen.cgen import c_backend_available
from repro.core.compiler import compile_module
from repro.core.parser import parse_module
from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.obs import Tracer
from repro.workloads.tpch_queries import PLAIN_QUERIES

ENGINES = ["interp", "pygen",
           pytest.param("cgen", marks=pytest.mark.skipif(
               not c_backend_available(), reason="gcc not on PATH")),
           "baseline"]

COUNT_SQL = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 25"


@pytest.fixture(scope="module")
def small_tpch():
    return generate_tpch(0.002, seed=1)


@pytest.fixture(scope="module")
def tpch_001():
    return generate_tpch(0.01, seed=1)


class TestThreadCountBelowOne:
    @pytest.mark.parametrize("n_threads", [0, -1])
    @pytest.mark.parametrize("backend", ENGINES)
    def test_run_sql_refuses_and_the_session_stays_usable(
            self, small_tpch, backend, n_threads):
        with EngineSession(small_tpch) as session:
            expected = session.run_sql(COUNT_SQL, backend=backend)
            with pytest.raises(ValueError, match="n_threads"):
                session.run_sql(COUNT_SQL, backend=backend,
                                n_threads=n_threads)
            again = session.run_sql(COUNT_SQL, backend=backend)
            assert again.column("n").data.tolist() == \
                expected.column("n").data.tolist()
            assert session.metrics.counter("query.retries").value == 0

    @pytest.mark.parametrize("n_threads", [0, -1])
    def test_compiled_program_refuses(self, n_threads):
        module = parse_module("""
        module M {
            def main(x:f64): f64 {
                y:f64 = @mul(x, x);
                return y;
            }
        }
        """)
        program = compile_module(module, "opt")
        with pytest.raises(ValueError, match="n_threads"):
            program.run(args=[], n_threads=n_threads)

    def test_matlab_program_refuses(self):
        with EngineSession() as session:
            program = session.compile_matlab(
                "function y = f(x)\n  y = sum(x .* x);\nend")
            with pytest.raises(ValueError, match="n_threads"):
                program(np.array([1.0, 2.0]), n_threads=0)
            assert program(np.array([1.0, 2.0])) == pytest.approx(5.0)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cli_refuses(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run-sql", "--tpch", "0.001", "--threads", value,
                  "SELECT COUNT(*) AS n FROM lineitem"])
        assert exit_info.value.code == 2
        assert "thread count must be at least 1" in \
            capsys.readouterr().err


class TestTwoThreadsStartNoThread:
    @pytest.mark.parametrize("backend", ["pygen", "baseline"])
    def test_no_new_thread(self, tpch_001, backend):
        with EngineSession(tpch_001) as session:
            before = set(threading.enumerate())
            one = session.run_sql(PLAIN_QUERIES["q6"], backend=backend)
            two = session.run_sql(PLAIN_QUERIES["q6"], backend=backend,
                                  n_threads=2)
            assert set(threading.enumerate()) <= before
        assert two.column("revenue").data.tolist() == \
            one.column("revenue").data.tolist()

    def test_chunk_spans_are_children_of_their_kernel(self, tpch_001):
        tracer = Tracer()
        with EngineSession(tpch_001, tracer=tracer) as session:
            session.run_sql(PLAIN_QUERIES["q6"], n_threads=2)
        chunks = [span for span in tracer.all_spans()
                  if span.name == "chunk"]
        assert len(chunks) > 1
        for chunk in chunks:
            assert chunk.parent.name.startswith("kernel:")
            assert chunk in chunk.parent.children
