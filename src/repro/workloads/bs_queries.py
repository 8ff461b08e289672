"""The Black-Scholes SQL benchmark: bs0–bs3 variants (paper Section 4.4).

Ten queries per UDF style (scalar / table):

* ``bs0_base`` — compute option prices for every row;
* ``bs1_{high,med,low}`` — a predicate on the *input* column ``spotPrice``
  (can the system filter before pricing?);
* ``bs2_{high,med,low}`` — same predicate, but ``optionPrice`` is *not in
  the result* (can the system avoid pricing entirely?);
* ``bs3_{high,med,low}`` — a predicate on the *computed* ``optionPrice``
  (no avoidance possible).

Thresholds are chosen against the uniform-[2,200] ``spotPrice`` and the
empirical ``optionPrice`` distribution so the selectivities approximate
the paper's 0.2 % / 50.9 % / 99.8 % (bs1/bs2) and 10 % / 49.5 % / 90 %
(bs3) columns.
"""

from __future__ import annotations

from repro.core import types as ht
from repro.data.blackscholes import calc_option_price
from repro.workloads.matlab_sources import (BLACKSCHOLES_MATLAB,
                                            BLACKSCHOLES_TABLE_MATLAB)

__all__ = ["SCALAR_QUERIES", "TABLE_QUERIES", "BS_VARIANT_NAMES",
           "PAPER_SELECTIVITY", "register_bs_udfs"]

BS_VARIANT_NAMES = ("bs0_base", "bs1_high", "bs1_med", "bs1_low",
                    "bs2_high", "bs2_med", "bs2_low",
                    "bs3_high", "bs3_med", "bs3_low")

#: The paper's Table 4 selectivity column, for the report.
PAPER_SELECTIVITY = {
    "bs0_base": 1.000, "bs1_high": 0.002, "bs1_med": 0.509,
    "bs1_low": 0.998, "bs2_high": 0.002, "bs2_med": 0.509,
    "bs2_low": 0.998, "bs3_high": 0.100, "bs3_med": 0.495,
    "bs3_low": 0.900,
}

# spotPrice ~ U[2, 200]: "< a OR > b" predicates tuned per selectivity.
_SPOT_PRED = {
    "high": "spotPrice < 2.2 OR spotPrice > 199.8",   # ≈ 0.2 %
    "med": "spotPrice < 50 OR spotPrice > 150",       # ≈ 49.5 %
    "low": "spotPrice < 100 OR spotPrice > 101",      # ≈ 99.5 %
}
# optionPrice thresholds (empirical quantiles of the generated data).
_PRICE_PRED = {
    "high": "optionPrice > 106",       # ≈ 10 %
    "med": "optionPrice > 20",         # ≈ 50 %
    "low": "optionPrice > 0.000001",   # ≈ 90 %
}

_UDF_ARGS = "spotPrice, strike, rate, volatility, otime, optionType"


def _scalar_queries() -> dict[str, str]:
    queries = {
        "bs0_base": f"""
            SELECT spotPrice, optionType,
                   bScholesUDF({_UDF_ARGS}) AS optionPrice
            FROM blackScholesData
        """,
    }
    for level, pred in _SPOT_PRED.items():
        queries[f"bs1_{level}"] = f"""
            SELECT spotPrice, optionType,
                   bScholesUDF({_UDF_ARGS}) AS optionPrice
            FROM blackScholesData
            WHERE {pred}
        """
        queries[f"bs2_{level}"] = f"""
            SELECT spotPrice, optionType
            FROM (SELECT spotPrice, optionType,
                         bScholesUDF({_UDF_ARGS}) AS optionPrice
                  FROM blackScholesData) AS tableBS
            WHERE {pred}
        """
    for level, pred in _PRICE_PRED.items():
        queries[f"bs3_{level}"] = f"""
            SELECT spotPrice, optionType
            FROM (SELECT spotPrice, optionType,
                         bScholesUDF({_UDF_ARGS}) AS optionPrice
                  FROM blackScholesData) AS tableBS
            WHERE {pred}
        """
    return queries


def _table_queries() -> dict[str, str]:
    from_udf = f"""bScholesTblUDF((SELECT {_UDF_ARGS}
                       FROM blackScholesData))"""
    queries = {
        "bs0_base": f"""
            SELECT spotPrice, optionType, optionPrice
            FROM {from_udf}
        """,
    }
    for level, pred in _SPOT_PRED.items():
        queries[f"bs1_{level}"] = f"""
            SELECT spotPrice, optionType, optionPrice
            FROM {from_udf}
            WHERE {pred}
        """
        queries[f"bs2_{level}"] = f"""
            SELECT spotPrice, optionType
            FROM {from_udf}
            WHERE {pred}
        """
    for level, pred in _PRICE_PRED.items():
        queries[f"bs3_{level}"] = f"""
            SELECT spotPrice, optionType
            FROM {from_udf}
            WHERE {pred}
        """
    return queries


SCALAR_QUERIES = _scalar_queries()
TABLE_QUERIES = _table_queries()

_F64x6 = [ht.F64] * 6


def _bscholes_table_py(spot, strike, rate, volatility, otime, otype):
    price = calc_option_price(spot, strike, rate, volatility, otime,
                              otype)
    return [spot, otype, price]


def register_bs_udfs(session) -> None:
    """Register the scalar and table Black-Scholes UDFs on an
    :class:`~repro.engine.session.EngineSession` (every backend, the
    baseline included, reads the session's one registry)."""
    session.register_scalar_udf(
        "bScholesUDF", BLACKSCHOLES_MATLAB, list(_F64x6), ht.F64,
        python_impl=calc_option_price)
    session.register_table_udf(
        "bScholesTblUDF", BLACKSCHOLES_TABLE_MATLAB, list(_F64x6),
        [("spotPrice", ht.F64), ("optionType", ht.F64),
         ("optionPrice", ht.F64)],
        python_impl=_bscholes_table_py)
