"""TPC-H data generator (dbgen subset).

Generates all eight TPC-H tables with the value domains and cardinalities
of the specification (scaled by ``scale_factor``): at SF 1, ``lineitem``
holds ≈6 M rows.  Distributions follow the spec closely enough that the
evaluation queries keep their standard selectivities (e.g. q6 selects
≈2 % of lineitem; q14's one-month shipdate window selects ≈1.3 %).

Strings are generated as object arrays of Python strings (queries see
them dictionary-encoded, built per column on first use — see
:class:`~repro.engine.table.ColumnTable`), dates are ``datetime64[D]``,
money columns are plain f64 (the paper's HorseIR also treats decimals as
doubles).
"""

from __future__ import annotations

import numpy as np

from repro.engine.storage import Database

__all__ = ["generate_tpch", "TPCH_TABLE_NAMES"]

TPCH_TABLE_NAMES = ("region", "nation", "supplier", "customer", "part",
                    "partsupp", "orders", "lineitem")

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

_TYPE_SYLLABLE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                    "PROMO"]
_TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                    "BRUSHED"]
_TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
_CONTAINER_1 = ["SM", "MED", "LG", "JUMBO", "WRAP"]
_CONTAINER_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
             "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
               "5-LOW"]
_SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_SHIP_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE",
                      "TAKE BACK RETURN"]

_START_DATE = np.datetime64("1992-01-01", "D")
_CURRENT_DATE = np.datetime64("1995-06-17", "D")
_END_DATE = np.datetime64("1998-12-01", "D")


def _strings(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        out[index] = str(value)
    return out


def _choice_strings(rng, pool: list[str], n: int) -> np.ndarray:
    picks = rng.integers(0, len(pool), n)
    out = np.empty(n, dtype=object)
    for index, pick in enumerate(picks):
        out[index] = pool[pick]
    return out


def generate_tpch(scale_factor: float = 0.01, seed: int = 20210215,
                  db: Database | None = None,
                  tables: tuple[str, ...] = TPCH_TABLE_NAMES) -> Database:
    """Populate (or create) a database with TPC-H tables at
    ``scale_factor``."""
    rng = np.random.default_rng(seed)
    database = db if db is not None else Database()
    generators = {
        "region": _gen_region,
        "nation": _gen_nation,
        "supplier": _gen_supplier,
        "customer": _gen_customer,
        "part": _gen_part,
        "partsupp": _gen_partsupp,
        "orders": _gen_orders,
        "lineitem": _gen_lineitem,
    }
    state: dict = {"sf": scale_factor}
    for name in TPCH_TABLE_NAMES:
        if name not in tables:
            # Some generators feed later ones (orders -> lineitem); run
            # them anyway but skip registration.
            if name in ("orders",) and "lineitem" in tables:
                generators[name](rng, state, database, register=False)
            continue
        generators[name](rng, state, database, register=True)
    return database


def _register(db: Database, register: bool, name: str, columns: dict,
              types: dict | None = None):
    if register:
        db.create_table(name, columns, types)


def _gen_region(rng, state, db, register=True):
    _register(db, register, "region", {
        "r_regionkey": np.arange(5, dtype=np.int64),
        "r_name": _strings(_REGIONS),
        "r_comment": _strings([f"region comment {i}" for i in range(5)]),
    })


def _gen_nation(rng, state, db, register=True):
    _register(db, register, "nation", {
        "n_nationkey": np.arange(len(_NATIONS), dtype=np.int64),
        "n_name": _strings([name for name, _ in _NATIONS]),
        "n_regionkey": np.array([region for _, region in _NATIONS],
                                dtype=np.int64),
        "n_comment": _strings([f"nation comment {i}"
                               for i in range(len(_NATIONS))]),
    })


def _gen_supplier(rng, state, db, register=True):
    n = max(1, int(10_000 * state["sf"]))
    state["n_supplier"] = n
    _register(db, register, "supplier", {
        "s_suppkey": np.arange(1, n + 1, dtype=np.int64),
        "s_name": _strings([f"Supplier#{i:09d}" for i in range(1, n + 1)]),
        "s_address": _strings([f"address {i}" for i in range(n)]),
        "s_nationkey": rng.integers(0, len(_NATIONS), n).astype(np.int64),
        "s_phone": _strings([f"{rng.integers(10, 35)}-"
                             f"{i % 1000:03d}-{i % 10000:04d}"
                             for i in range(n)]),
        "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
        "s_comment": _strings([f"supplier comment {i}" for i in range(n)]),
    })


def _gen_customer(rng, state, db, register=True):
    n = max(1, int(150_000 * state["sf"]))
    state["n_customer"] = n
    _register(db, register, "customer", {
        "c_custkey": np.arange(1, n + 1, dtype=np.int64),
        "c_name": _strings([f"Customer#{i:09d}"
                            for i in range(1, n + 1)]),
        "c_address": _strings([f"address {i}" for i in range(n)]),
        "c_nationkey": rng.integers(0, len(_NATIONS), n).astype(np.int64),
        "c_phone": _strings([f"{rng.integers(10, 35)}-"
                             f"{i % 1000:03d}-{i % 10000:04d}"
                             for i in range(n)]),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
        "c_mktsegment": _choice_strings(rng, _SEGMENTS, n),
        "c_comment": _strings([f"customer comment {i}"
                               for i in range(n)]),
    })


def _gen_part(rng, state, db, register=True):
    n = max(1, int(200_000 * state["sf"]))
    state["n_part"] = n
    brand_m = rng.integers(1, 6, n)
    brand_n = rng.integers(1, 6, n)
    brands = np.empty(n, dtype=object)
    for index in range(n):
        brands[index] = f"Brand#{brand_m[index]}{brand_n[index]}"
    s1 = rng.integers(0, len(_TYPE_SYLLABLE_1), n)
    s2 = rng.integers(0, len(_TYPE_SYLLABLE_2), n)
    s3 = rng.integers(0, len(_TYPE_SYLLABLE_3), n)
    types = np.empty(n, dtype=object)
    for index in range(n):
        types[index] = (f"{_TYPE_SYLLABLE_1[s1[index]]} "
                        f"{_TYPE_SYLLABLE_2[s2[index]]} "
                        f"{_TYPE_SYLLABLE_3[s3[index]]}")
    c1 = rng.integers(0, len(_CONTAINER_1), n)
    c2 = rng.integers(0, len(_CONTAINER_2), n)
    containers = np.empty(n, dtype=object)
    for index in range(n):
        containers[index] = (f"{_CONTAINER_1[c1[index]]} "
                             f"{_CONTAINER_2[c2[index]]}")
    _register(db, register, "part", {
        "p_partkey": np.arange(1, n + 1, dtype=np.int64),
        "p_name": _strings([f"part name {i}" for i in range(n)]),
        "p_mfgr": _strings([f"Manufacturer#{1 + i % 5}"
                            for i in range(n)]),
        "p_brand": brands,
        "p_type": types,
        "p_size": rng.integers(1, 51, n).astype(np.int64),
        "p_container": containers,
        "p_retailprice": np.round(900 + rng.uniform(0, 200, n), 2),
        "p_comment": _strings([f"part comment {i}" for i in range(n)]),
    })


def _gen_partsupp(rng, state, db, register=True):
    n_part = state.get("n_part", max(1, int(200_000 * state["sf"])))
    n_supp = state.get("n_supplier", max(1, int(10_000 * state["sf"])))
    n = n_part * 4
    _register(db, register, "partsupp", {
        "ps_partkey": np.repeat(np.arange(1, n_part + 1, dtype=np.int64),
                                4),
        "ps_suppkey": (rng.integers(0, n_supp, n) + 1).astype(np.int64),
        "ps_availqty": rng.integers(1, 10_000, n).astype(np.int64),
        "ps_supplycost": np.round(rng.uniform(1.0, 1000.0, n), 2),
        "ps_comment": _strings([f"partsupp comment {i}"
                                for i in range(n)]),
    })


def _gen_orders(rng, state, db, register=True):
    n = max(1, int(1_500_000 * state["sf"]))
    state["n_orders"] = n
    n_customer = state.get("n_customer",
                           max(1, int(150_000 * state["sf"])))
    order_span = int((_END_DATE - _START_DATE).astype(int))
    order_dates = (_START_DATE
                   + rng.integers(0, order_span - 151, n)
                   .astype("timedelta64[D]"))
    state["order_dates"] = order_dates
    status = np.where(order_dates < _CURRENT_DATE, "F", "O")
    _register(db, register, "orders", {
        "o_orderkey": np.arange(1, n + 1, dtype=np.int64),
        "o_custkey": (rng.integers(0, n_customer, n) + 1)
        .astype(np.int64),
        "o_orderstatus": _strings(status),
        "o_totalprice": np.round(rng.uniform(850.0, 560_000.0, n), 2),
        "o_orderdate": order_dates,
        "o_orderpriority": _choice_strings(rng, _PRIORITIES, n),
        "o_clerk": _strings([f"Clerk#{i % 1000:09d}" for i in range(n)]),
        "o_shippriority": np.zeros(n, dtype=np.int64),
        "o_comment": _strings([f"order comment {i}" for i in range(n)]),
    })


def _gen_lineitem(rng, state, db, register=True):
    n_orders = state.get("n_orders", max(1, int(1_500_000 * state["sf"])))
    n_part = state.get("n_part", max(1, int(200_000 * state["sf"])))
    n_supp = state.get("n_supplier", max(1, int(10_000 * state["sf"])))
    order_dates = state.get("order_dates")
    if order_dates is None:
        span = int((_END_DATE - _START_DATE).astype(int))
        order_dates = (_START_DATE
                       + rng.integers(0, span - 151, n_orders)
                       .astype("timedelta64[D]"))

    lines_per_order = rng.integers(1, 8, n_orders)
    n = int(lines_per_order.sum())
    orderkey = np.repeat(np.arange(1, n_orders + 1, dtype=np.int64),
                         lines_per_order)
    base_date = np.repeat(order_dates, lines_per_order)

    ship_delay = rng.integers(1, 122, n).astype("timedelta64[D]")
    commit_delay = rng.integers(30, 91, n).astype("timedelta64[D]")
    receipt_delay = rng.integers(1, 31, n).astype("timedelta64[D]")
    shipdate = base_date + ship_delay
    commitdate = base_date + commit_delay
    receiptdate = shipdate + receipt_delay

    quantity = rng.integers(1, 51, n).astype(np.float64)
    retail = 900 + rng.uniform(0, 200, n)
    extendedprice = np.round(quantity * retail / 10.0, 2)
    discount = np.round(rng.integers(0, 11, n) / 100.0, 2)
    tax = np.round(rng.integers(0, 9, n) / 100.0, 2)

    returnflag = np.where(
        receiptdate <= _CURRENT_DATE,
        np.where(rng.random(n) < 0.5, "R", "A"), "N")
    linestatus = np.where(shipdate > _CURRENT_DATE, "O", "F")

    linenumber = np.concatenate(
        [np.arange(1, count + 1) for count in lines_per_order]) \
        .astype(np.int64)

    _register(db, register, "lineitem", {
        "l_orderkey": orderkey,
        "l_partkey": (rng.integers(0, n_part, n) + 1).astype(np.int64),
        "l_suppkey": (rng.integers(0, n_supp, n) + 1).astype(np.int64),
        "l_linenumber": linenumber,
        "l_quantity": quantity,
        "l_extendedprice": extendedprice,
        "l_discount": discount,
        "l_tax": tax,
        "l_returnflag": _strings(returnflag),
        "l_linestatus": _strings(linestatus),
        "l_shipdate": shipdate,
        "l_commitdate": commitdate,
        "l_receiptdate": receiptdate,
        "l_shipinstruct": _choice_strings(rng, _SHIP_INSTRUCTIONS, n),
        "l_shipmode": _choice_strings(rng, _SHIP_MODES, n),
        "l_comment": _strings([f"lineitem comment {i}"
                               for i in range(n)]),
    })
