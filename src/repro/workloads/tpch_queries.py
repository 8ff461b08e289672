"""TPC-H queries q1, q6, q12, q14, q19 — plain and Froid-style UDF forms.

The UDF variants follow Froid's rewrites (paper Section 4.3): parts of the
SELECT or WHERE clause move into scalar UDFs.  Each UDF is defined twice
with matching semantics — MATLAB source for HorsePower and a NumPy
function for the MonetDB-like baseline — and registered through
:func:`register_tpch_udfs`.

Dates cross the UDF boundary as int64 day counts (epoch 1970-01-01); the
MATLAB sources embed the day-count constants, computed below from the
query's date literals.
"""

from __future__ import annotations

import numpy as np

from repro.core import types as ht

__all__ = ["PLAIN_QUERIES", "UDF_QUERIES", "EXTENDED_PLAIN_QUERIES",
           "register_tpch_udfs", "TPCH_UDF_QUERY_NAMES"]

TPCH_UDF_QUERY_NAMES = ("q1", "q6", "q12", "q14", "q19")


def _days(date: str) -> int:
    return int(np.datetime64(date, "D").astype(np.int64))


_Q6_LO = _days("1994-01-01")
_Q6_HI = _days("1995-01-01")
_Q12_LO = _days("1994-01-01")
_Q12_HI = _days("1995-01-01")


# ---------------------------------------------------------------------------
# plain SQL
# ---------------------------------------------------------------------------

PLAIN_QUERIES: dict[str, str] = {
    "q1": """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax))
                   AS sum_charge,
               AVG(l_quantity) AS avg_qty,
               AVG(l_extendedprice) AS avg_price,
               AVG(l_discount) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "q6": """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '1994-01-01'
          AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
    "q12": """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority = '1-URGENT'
                          OR o_orderpriority = '2-HIGH'
                        THEN 1 ELSE 0 END) AS high_line_count,
               SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                         AND o_orderpriority <> '2-HIGH'
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey
          AND l_shipmode IN ('MAIL', 'SHIP')
          AND l_commitdate < l_receiptdate
          AND l_shipdate < l_commitdate
          AND l_receiptdate >= DATE '1994-01-01'
          AND l_receiptdate < DATE '1994-01-01' + INTERVAL '1' YEAR
        GROUP BY l_shipmode
        ORDER BY l_shipmode
    """,
    "q14": """
        SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                                 THEN l_extendedprice * (1 - l_discount)
                                 ELSE 0.0 END)
               / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= DATE '1995-09-01'
          AND l_shipdate < DATE '1995-09-01' + INTERVAL '1' MONTH
    """,
    "q19": """
        SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem, part
        WHERE p_partkey = l_partkey
          AND l_shipmode IN ('AIR', 'REG AIR')
          AND l_shipinstruct = 'DELIVER IN PERSON'
          AND ((p_brand = 'Brand#12'
                AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK',
                                    'SM PKG')
                AND l_quantity BETWEEN 1 AND 11
                AND p_size BETWEEN 1 AND 5)
            OR (p_brand = 'Brand#23'
                AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG',
                                    'MED PACK')
                AND l_quantity BETWEEN 10 AND 20
                AND p_size BETWEEN 1 AND 10)
            OR (p_brand = 'Brand#34'
                AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK',
                                    'LG PKG')
                AND l_quantity BETWEEN 20 AND 30
                AND p_size BETWEEN 1 AND 15))
    """,
}


# ---------------------------------------------------------------------------
# UDF-modified SQL (Froid-style rewrites)
# ---------------------------------------------------------------------------

UDF_QUERIES: dict[str, str] = {
    "q1": """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(q1DiscPriceUDF(l_extendedprice, l_discount))
                   AS sum_disc_price,
               SUM(q1ChargeUDF(l_extendedprice, l_discount, l_tax))
                   AS sum_charge,
               AVG(l_quantity) AS avg_qty,
               AVG(l_extendedprice) AS avg_price,
               AVG(l_discount) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "q6": """
        SELECT SUM(q6RevenueUDF(l_extendedprice, l_discount)) AS revenue
        FROM lineitem
        WHERE q6PredUDF(l_shipdate, l_discount, l_quantity) > 0
    """,
    "q12": """
        SELECT l_shipmode,
               SUM(q12HighUDF(o_orderpriority)) AS high_line_count,
               SUM(q12LowUDF(o_orderpriority)) AS low_line_count
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey
          AND q12PredUDF(l_shipmode, l_shipdate, l_commitdate,
                         l_receiptdate) > 0
        GROUP BY l_shipmode
        ORDER BY l_shipmode
    """,
    "q14": """
        SELECT 100.00
               * SUM(q14PromoRevUDF(p_type, l_extendedprice, l_discount))
               / SUM(q1DiscPriceUDF(l_extendedprice, l_discount))
               AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= DATE '1995-09-01'
          AND l_shipdate < DATE '1995-09-01' + INTERVAL '1' MONTH
    """,
    "q19": """
        SELECT SUM(q1DiscPriceUDF(l_extendedprice, l_discount)) AS revenue
        FROM lineitem, part
        WHERE p_partkey = l_partkey
          AND q19MatchUDF(p_brand, p_container, l_quantity, p_size,
                          l_shipmode, l_shipinstruct) > 0
    """,
}


# ---------------------------------------------------------------------------
# UDF definitions — MATLAB source (HorsePower) + NumPy impl (baseline)
# ---------------------------------------------------------------------------

Q1_DISC_PRICE_MATLAB = """
function r = discPrice(price, discount)
    r = price .* (1 - discount);
end
"""


def q1_disc_price_py(price, discount):
    return price * (1.0 - discount)


Q1_CHARGE_MATLAB = """
function r = charge(price, discount, tax)
    r = price .* (1 - discount) .* (1 + tax);
end
"""


def q1_charge_py(price, discount, tax):
    return price * (1.0 - discount) * (1.0 + tax)


Q6_REVENUE_MATLAB = """
function r = q6revenue(price, discount)
    r = price .* discount;
end
"""


def q6_revenue_py(price, discount):
    return price * discount


Q6_PRED_MATLAB = f"""
function m = q6pred(shipdate, discount, qty)
    m = 1.0 .* ((shipdate >= {_Q6_LO}) & (shipdate < {_Q6_HI}) ...
        & (discount >= 0.05) & (discount <= 0.07) & (qty < 24));
end
"""


def q6_pred_py(shipdate_days, discount, qty):
    mask = ((shipdate_days >= _Q6_LO) & (shipdate_days < _Q6_HI)
            & (discount >= 0.05) & (discount <= 0.07) & (qty < 24))
    return mask.astype(np.float64)


Q12_PRED_MATLAB = f"""
function m = q12pred(shipmode, shipdate, commitdate, receiptdate)
    sm = strcmp(shipmode, 'MAIL') | strcmp(shipmode, 'SHIP');
    m = 1.0 .* (sm & (commitdate < receiptdate) ...
        & (shipdate < commitdate) ...
        & (receiptdate >= {_Q12_LO}) & (receiptdate < {_Q12_HI}));
end
"""


def q12_pred_py(shipmode, shipdate_days, commitdate_days,
                receiptdate_days):
    mask = (((shipmode == "MAIL") | (shipmode == "SHIP"))
            & (commitdate_days < receiptdate_days)
            & (shipdate_days < commitdate_days)
            & (receiptdate_days >= _Q12_LO)
            & (receiptdate_days < _Q12_HI))
    return mask.astype(np.float64)


Q12_HIGH_MATLAB = """
function h = q12high(prio)
    h = 1.0 .* (strcmp(prio, '1-URGENT') | strcmp(prio, '2-HIGH'));
end
"""


def q12_high_py(prio):
    mask = (prio == "1-URGENT") | (prio == "2-HIGH")
    return np.asarray(mask, dtype=np.float64)


Q12_LOW_MATLAB = """
function l = q12low(prio)
    l = 1.0 .* (~(strcmp(prio, '1-URGENT') | strcmp(prio, '2-HIGH')));
end
"""


def q12_low_py(prio):
    mask = ~((prio == "1-URGENT") | (prio == "2-HIGH"))
    return np.asarray(mask, dtype=np.float64)


Q14_PROMO_REV_MATLAB = """
function r = q14promo(ptype, price, discount)
    r = startsWith(ptype, 'PROMO') .* (price .* (1 - discount));
end
"""


def q14_promo_rev_py(ptype, price, discount):
    promo = np.fromiter((t.startswith("PROMO") for t in ptype),
                        dtype=np.float64, count=len(ptype))
    return promo * (price * (1.0 - discount))


Q19_MATCH_MATLAB = """
function m = q19match(brand, container, qty, size, shipmode, shipinstruct)
    b1 = strcmp(brand, 'Brand#12');
    c1 = strcmp(container, 'SM CASE') | strcmp(container, 'SM BOX') ...
       | strcmp(container, 'SM PACK') | strcmp(container, 'SM PKG');
    m1 = b1 & c1 & (qty >= 1) & (qty <= 11) & (size >= 1) & (size <= 5);
    b2 = strcmp(brand, 'Brand#23');
    c2 = strcmp(container, 'MED BAG') | strcmp(container, 'MED BOX') ...
       | strcmp(container, 'MED PKG') | strcmp(container, 'MED PACK');
    m2 = b2 & c2 & (qty >= 10) & (qty <= 20) & (size >= 1) & (size <= 10);
    b3 = strcmp(brand, 'Brand#34');
    c3 = strcmp(container, 'LG CASE') | strcmp(container, 'LG BOX') ...
       | strcmp(container, 'LG PACK') | strcmp(container, 'LG PKG');
    m3 = b3 & c3 & (qty >= 20) & (qty <= 30) & (size >= 1) & (size <= 15);
    sm = strcmp(shipmode, 'AIR') | strcmp(shipmode, 'REG AIR');
    si = strcmp(shipinstruct, 'DELIVER IN PERSON');
    m = 1.0 .* ((m1 | m2 | m3) & sm & si);
end
"""

_Q19_CONTAINERS = {
    "Brand#12": {"SM CASE", "SM BOX", "SM PACK", "SM PKG"},
    "Brand#23": {"MED BAG", "MED BOX", "MED PKG", "MED PACK"},
    "Brand#34": {"LG CASE", "LG BOX", "LG PACK", "LG PKG"},
}


def q19_match_py(brand, container, qty, size, shipmode, shipinstruct):
    def clause(brand_name, qlo, qhi, shi):
        pool = _Q19_CONTAINERS[brand_name]
        in_pool = np.fromiter((c in pool for c in container),
                              dtype=np.bool_, count=len(container))
        return ((brand == brand_name) & in_pool
                & (qty >= qlo) & (qty <= qhi)
                & (size >= 1) & (size <= shi))

    mask = (clause("Brand#12", 1, 11, 5)
            | clause("Brand#23", 10, 20, 10)
            | clause("Brand#34", 20, 30, 15))
    mask &= (shipmode == "AIR") | (shipmode == "REG AIR")
    mask &= shipinstruct == "DELIVER IN PERSON"
    return mask.astype(np.float64)


def register_tpch_udfs(session) -> None:
    """Register every TPC-H UDF on an
    :class:`~repro.engine.session.EngineSession` (every backend, the
    baseline included, reads the session's one registry)."""
    session.register_scalar_udf(
        "q1DiscPriceUDF", Q1_DISC_PRICE_MATLAB, [ht.F64, ht.F64],
        ht.F64, python_impl=q1_disc_price_py)
    session.register_scalar_udf(
        "q1ChargeUDF", Q1_CHARGE_MATLAB, [ht.F64, ht.F64, ht.F64],
        ht.F64, python_impl=q1_charge_py)
    session.register_scalar_udf(
        "q6RevenueUDF", Q6_REVENUE_MATLAB, [ht.F64, ht.F64],
        ht.F64, python_impl=q6_revenue_py)
    session.register_scalar_udf(
        "q6PredUDF", Q6_PRED_MATLAB, [ht.DATE, ht.F64, ht.F64],
        ht.F64, python_impl=q6_pred_py)
    session.register_scalar_udf(
        "q12PredUDF", Q12_PRED_MATLAB,
        [ht.STR, ht.DATE, ht.DATE, ht.DATE], ht.F64,
        python_impl=q12_pred_py)
    session.register_scalar_udf(
        "q12HighUDF", Q12_HIGH_MATLAB, [ht.STR], ht.F64,
        python_impl=q12_high_py)
    session.register_scalar_udf(
        "q12LowUDF", Q12_LOW_MATLAB, [ht.STR], ht.F64,
        python_impl=q12_low_py)
    session.register_scalar_udf(
        "q14PromoRevUDF", Q14_PROMO_REV_MATLAB, [ht.STR, ht.F64, ht.F64],
        ht.F64, python_impl=q14_promo_rev_py)
    session.register_scalar_udf(
        "q19MatchUDF", Q19_MATCH_MATLAB,
        [ht.STR, ht.STR, ht.F64, ht.I64, ht.STR, ht.STR],
        ht.F64, python_impl=q19_match_py)


# ---------------------------------------------------------------------------
# Additional plain TPC-H queries (coverage beyond the five modified ones;
# the paper reports HorsePower executes the full benchmark)
# ---------------------------------------------------------------------------

EXTENDED_PLAIN_QUERIES: dict[str, str] = {
    "q3": """
        SELECT l_orderkey,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue,
               o_orderdate, o_shippriority
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < DATE '1995-03-15'
          AND l_shipdate > DATE '1995-03-15'
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate
        LIMIT 10
    """,
    "q5": """
        SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey
          AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey
          AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND o_orderdate >= DATE '1994-01-01'
          AND o_orderdate < DATE '1994-01-01' + INTERVAL '1' YEAR
        GROUP BY n_name
        ORDER BY revenue DESC
    """,
    "q10": """
        SELECT c_custkey, c_name,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue,
               c_acctbal, n_name, c_address, c_phone, c_comment
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate >= DATE '1993-10-01'
          AND o_orderdate < DATE '1993-10-01' + INTERVAL '3' MONTH
          AND l_returnflag = 'R'
          AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name,
                 c_address, c_comment
        ORDER BY revenue DESC
        LIMIT 20
    """,
}
