"""HorsePower's SQL-side glue around the engine session: the
prepared-query cache (:mod:`repro.horsepower.cache`) and the SQL+UDF
merger that turns plan JSON plus MATLAB UDF methods into one HorseIR
module (:mod:`repro.horsepower.translate`, the paper's §3.3).

The system itself — the object that runs a query on any backend,
including the MonetDB-like baseline — is
:class:`repro.engine.session.EngineSession`.
"""

from repro.horsepower.cache import CacheStats, PlanCache  # noqa: F401

__all__ = ["PlanCache", "CacheStats"]
