"""Unit tests for the SQL+UDF module merger (paper Section 3.3)."""

import numpy as np
import pytest

from repro.core import types as ht
from repro.core.printer import print_module
from repro.core.verify import verify_module
from repro.engine.storage import Database
from repro.errors import UDFError
from repro.engine import EngineSession
from repro.horsepower.translate import build_query_module, referenced_udfs
from repro.sql.udf import ScalarUDF, UDFRegistry


@pytest.fixture
def system():
    db = Database()
    rng = np.random.default_rng(9)
    db.create_table("t", {
        "x": rng.uniform(0, 1, 100),
        "y": rng.uniform(0, 1, 100),
    })
    return EngineSession(db)


MATLAB_WITH_HELPER = """
function r = outer(a, b)
    r = helper(a) .* b;
end
function h = helper(v)
    h = v + 1;
end
"""


class TestReferencedUDFs:
    def test_scalar_udf_found_in_select(self, system):
        system.register_scalar_udf("myUDF", "function r = f(a)\n"
                                            "    r = a;\nend",
                                   [ht.F64], ht.F64)
        _, plan = system.plan_sql("SELECT SUM(myUDF(x)) AS s FROM t")
        assert referenced_udfs(plan, system.udfs) == ["myUDF"]

    def test_udf_found_in_where(self, system):
        system.register_scalar_udf("predUDF", "function r = f(a)\n"
                                              "    r = a;\nend",
                                   [ht.F64], ht.F64)
        _, plan = system.plan_sql(
            "SELECT COUNT(*) AS n FROM t WHERE predUDF(x) > 0.5")
        assert referenced_udfs(plan, system.udfs) == ["predUDF"]

    def test_no_udfs(self, system):
        _, plan = system.plan_sql("SELECT SUM(x) AS s FROM t")
        assert referenced_udfs(plan, system.udfs) == []


class TestMerging:
    def test_helper_functions_carried_over(self, system):
        system.register_scalar_udf("outerUDF", MATLAB_WITH_HELPER,
                                   [ht.F64, ht.F64], ht.F64)
        _, plan = system.plan_sql("SELECT SUM(outerUDF(x, y)) AS s FROM t")
        module = build_query_module(plan, system.udfs)
        verify_module(module)
        names = list(module.methods)
        assert "main" in names
        assert "outerUDF" in names
        assert any(name.startswith("helper") for name in names)

    def test_entry_method_renamed_to_registered_name(self, system):
        # The MATLAB function is called `outer`; the UDF is `outerUDF`.
        system.register_scalar_udf("outerUDF", MATLAB_WITH_HELPER,
                                   [ht.F64, ht.F64], ht.F64)
        _, plan = system.plan_sql("SELECT SUM(outerUDF(x, y)) AS s FROM t")
        module = build_query_module(plan, system.udfs)
        text = print_module(module)
        assert "@outerUDF(" in text

    def test_missing_matlab_source_is_an_error(self, system):
        registry = UDFRegistry()
        registry.register(ScalarUDF("noSrc", [ht.F64], ht.F64,
                                    python_impl=lambda x: x))
        hp = EngineSession(system.db, registry)
        _, plan = hp.plan_sql("SELECT SUM(noSrc(x)) AS s FROM t")
        with pytest.raises(UDFError, match="no MATLAB source"):
            build_query_module(plan, registry)

    def test_same_udf_called_twice_merges_once(self, system):
        system.register_scalar_udf("twiceUDF", "function r = f(a)\n"
                                               "    r = a .* 2;\nend",
                                   [ht.F64], ht.F64)
        _, plan = system.plan_sql(
            "SELECT SUM(twiceUDF(x)) AS a, SUM(twiceUDF(y)) AS b FROM t")
        module = build_query_module(plan, system.udfs)
        assert list(module.methods).count("twiceUDF") == 1
        verify_module(module)

    def test_merged_module_optimizes_to_single_method(self, system):
        system.register_scalar_udf("outerUDF", MATLAB_WITH_HELPER,
                                   [ht.F64, ht.F64], ht.F64)
        compiled = system.compile_sql(
            "SELECT SUM(outerUDF(x, y)) AS s FROM t")
        assert list(compiled.program.module.methods) == ["main"]
        result = compiled.run()
        table = system.db.table("t")
        expected = np.sum((table.column("x") + 1) * table.column("y"))
        assert result.column("s").data[0] == pytest.approx(expected)

    def test_registry_rejects_duplicate_names(self, system):
        system.register_scalar_udf("dupUDF", "function r = f(a)\n"
                                             "    r = a;\nend",
                                   [ht.F64], ht.F64)
        with pytest.raises(UDFError, match="already registered"):
            system.register_scalar_udf("dupUDF", "function r = f(a)\n"
                                                 "    r = a;\nend",
                                       [ht.F64], ht.F64)

    def test_udf_lookup_is_case_insensitive(self, system):
        system.register_scalar_udf("MixedCase", "function r = f(a)\n"
                                                "    r = a;\nend",
                                   [ht.F64], ht.F64)
        assert system.udfs.is_scalar("mixedcase")
        assert system.udfs.get("MIXEDCASE").name == "MixedCase"
