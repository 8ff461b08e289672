"""HorsePower reproduction — a unified array-IR execution environment for
SQL, MATLAB-style analytics, and SQL queries with MATLAB UDFs.

Reproduces Chen, D'silva, Hendren & Kemme, *Accelerating Database Queries
for Advanced Data Analytics: A New Approach* (HorsePower), EDBT 2021.

Quick tour of the public API::

    from repro import Database, EngineSession

    db = Database()
    db.create_table("t", {"x": some_numpy_array})

    session = EngineSession(db)          # the system: one front door
    result = session.run_sql("SELECT SUM(x) AS s FROM t")

    # the MonetDB-like engine it is compared to is a backend choice
    baseline = session.run_sql("SELECT SUM(x) AS s FROM t",
                               backend="baseline")

    program = session.compile_matlab(matlab_source)       # MATLAB path
    answer = program(numpy_inputs)

Subpackages: :mod:`repro.core` (HorseIR + compiler), :mod:`repro.sql`
(frontend/planner), :mod:`repro.matlang` (MATLAB-subset frontend),
:mod:`repro.engine` (the session, its backends and the column-store
baseline), :mod:`repro.horsepower` (plan cache + SQL/UDF merger),
:mod:`repro.data` / :mod:`repro.workloads` (benchmark inputs).
"""

from repro.engine.session import CompiledQuery, EngineSession  # noqa: F401
from repro.engine.storage import Database  # noqa: F401
from repro.engine.table import ColumnTable  # noqa: F401
from repro.matlang import matlab_to_module  # noqa: F401
from repro.sql.udf import ScalarUDF, TableUDFDef, UDFRegistry  # noqa: F401

__version__ = "1.0.0"

__all__ = [
    "Database", "ColumnTable", "EngineSession", "CompiledQuery",
    "matlab_to_module",
    "ScalarUDF", "TableUDFDef", "UDFRegistry", "__version__",
]
