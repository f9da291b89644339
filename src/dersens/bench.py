"""Deterministic TPC-H-like micro data for hermetic benchmarks and fixtures.

Generates a lineitem/orders/part database (seeded, of any number of
lineitem rows) together with a schema file carrying per-table norms, so the
whole pipeline can run without an external data generator or database.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["SCHEMA_TEXT", "B1_1_QUERY", "generate", "write_dataset"]

SCHEMA_TEXT = """\
# micro benchmark schema
table lineitem
col l_orderkey int
col l_partkey int
col l_quantity real
col l_extendedprice real
col l_discount real
col l_tax real
col l_returnflag text
col l_linestatus text
col l_shipdateG date-months
col l_commitdateG date-months
col l_receiptdateG date-months
rows lp 1.0
norm lp 1.0 l_quantity (scaled 0.0001 l_extendedprice) (scaled 50.0 l_discount) (scaled 30.0 (linf l_shipdateG l_commitdateG l_receiptdateG))

table orders
col o_orderkey int
col o_custkey int
col o_totalprice real
col o_orderdateG date-months
col o_orderpriority text
rows lp 1.0
norm lp 1.0 (scaled 30.0 o_orderdateG) (scaled 0.01 o_totalprice)

table part
col p_partkey int
col p_size int
col p_retailprice real
col p_brand text
col p_type text
col p_container text
rows lp 1.0
norm lp 1.0 p_size (scaled 0.01 p_retailprice)
"""

B1_1_QUERY = """\
select
    sum(lineitem.l_quantity)
from
    lineitem
where
    lineitem.l_shipdateG <= 230.3 - 30
and
    lineitem.l_returnflag = 'R'
and
    lineitem.l_linestatus = 'F'
;
"""

_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
_TYPES = ["SMALL PLATED TIN", "LARGE ANODIZED TIN", "MEDIUM POLISHED STEEL",
          "STANDARD BRUSHED COPPER", "ECONOMY BURNISHED NICKEL"]
_CONTAINERS = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "JUMBO PKG"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]


def generate(rows: int = 1000, seed: int = 0, sensitive_fraction: float = 1.0):
    """Seeded row dicts per table; lineitem gets `rows` rows, the other
    tables proportionally fewer.  The first lineitem row passes the usual
    date filter with a wide margin so worst-case-row tests are stable."""
    rng = np.random.Generator(np.random.Philox(seed))
    n_orders = max(2, rows // 3)
    n_parts = max(2, rows // 5)

    lineitem = []
    for i in range(rows):
        qty = float(rng.integers(1, 51))
        price = round(qty * float(rng.uniform(900.0, 1100.0)), 2)
        ship = round(float(rng.uniform(0.0, 400.0)), 1)
        commit = round(ship + float(rng.uniform(-15.0, 15.0)), 1)
        receipt = round(commit + float(rng.uniform(0.0, 15.0)), 1)
        lineitem.append({
            "l_orderkey": int(rng.integers(1, n_orders + 1)),
            "l_partkey": int(rng.integers(1, n_parts + 1)),
            "l_quantity": qty,
            "l_extendedprice": price,
            "l_discount": round(float(rng.integers(0, 11)) / 100.0, 2),
            "l_tax": round(float(rng.integers(0, 9)) / 100.0, 2),
            "l_returnflag": str(rng.choice(["R", "A", "N"])),
            "l_linestatus": str(rng.choice(["F", "O"])),
            "l_shipdateG": ship,
            "l_commitdateG": commit,
            "l_receiptdateG": receipt,
        })
    # pin one deep-inside-the-filter row (margin > 100 date units)
    lineitem[0].update(
        l_returnflag="R", l_linestatus="F",
        l_shipdateG=100.0, l_commitdateG=101.0, l_receiptdateG=102.0,
    )

    orders = [{
        "o_orderkey": i + 1,
        "o_custkey": int(rng.integers(1, max(2, n_orders // 2))),
        "o_totalprice": round(float(rng.uniform(1000.0, 300000.0)), 2),
        "o_orderdateG": round(float(rng.uniform(0.0, 400.0)), 1),
        "o_orderpriority": str(rng.choice(_PRIORITIES)),
    } for i in range(n_orders)]

    part = [{
        "p_partkey": i + 1,
        "p_size": int(rng.integers(1, 51)),
        "p_retailprice": round(float(rng.uniform(900.0, 2000.0)), 2),
        "p_brand": str(rng.choice(_BRANDS)),
        "p_type": str(rng.choice(_TYPES)),
        "p_container": str(rng.choice(_CONTAINERS)),
    } for i in range(n_parts)]

    masks = {}
    for name, data in (("lineitem", lineitem), ("orders", orders), ("part", part)):
        if sensitive_fraction >= 1.0:
            masks[name] = [True] * len(data)
        else:
            masks[name] = list(rng.random(len(data)) < sensitive_fraction)
    if lineitem:
        masks["lineitem"][0] = True
    return {"lineitem": lineitem, "orders": orders, "part": part}, masks


def write_dataset(out_dir: str, rows: int = 1000, seed: int = 0,
                  sensitive_fraction: float = 1.0) -> str:
    """Write schema.txt plus <table>.csv / <table>_sensRows.csv; returns the
    schema path."""
    os.makedirs(out_dir, exist_ok=True)
    tables, masks = generate(rows, seed, sensitive_fraction)
    schema_path = os.path.join(out_dir, "schema.txt")
    with open(schema_path, "w") as fh:
        fh.write(SCHEMA_TEXT)
    for name, data in tables.items():
        cols = list(data[0].keys())
        with open(os.path.join(out_dir, f"{name}.csv"), "w") as fh:
            fh.write("ID," + ",".join(cols) + "\n")
            for i, row in enumerate(data):
                fh.write(",".join([str(i + 1)] + [str(row[c]) for c in cols]) + "\n")
        with open(os.path.join(out_dir, f"{name}_sensRows.csv"), "w") as fh:
            fh.write("ID,sensitive\n")
            for i, flag in enumerate(masks[name]):
                fh.write(f"{i + 1},{1 if flag else 0}\n")
    return schema_path
