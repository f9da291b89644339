"""Shared fixtures: schema texts, dataset writers, and a canonicalizing
comparator for emitted SQL (whitespace, operator order, abs() wrappers and
2-decimal constant formatting are not significant)."""

from __future__ import annotations

import dataclasses
import os

import pytest

from dersens import sqlfront as sf
from dersens.sqlfront import (
    BinOp,
    BoolCol,
    BoolOp,
    CaseWhen,
    Cmp,
    ColRef,
    EmittedSelect,
    FuncCall,
    LikePred,
    NotPred,
    Number,
    StrLit,
    SubQuery,
    TruePred,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

LINEITEM_SCHEMA = """\
table lineitem
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
"""

TPCH_MINI_SCHEMA = LINEITEM_SCHEMA + """
table part
col p_partkey int
col p_size int
col p_retailprice real
col p_brand text
col p_type text
col p_container text
rows lp 1.0
norm lp 1.0 p_size (scaled 0.01 p_retailprice)

table partsupp
col ps_partkey int
col ps_suppkey int
col ps_availqty int
col ps_supplycost real
rows lp 1.0
norm lp 1.0 ps_availqty (scaled 0.01 ps_supplycost)

table supplier
col s_suppkey int
col s_acctbal real
col s_comment text
rows lp 1.0
norm lp 1.0 (scaled 0.01 s_acctbal)
"""

B1_1_SQL = """\
select sum(lineitem.l_quantity) from lineitem
where lineitem.l_shipdateG <= 230.3 - 30
and lineitem.l_returnflag = 'R'
and lineitem.l_linestatus = 'F';
"""

B1_5_SQL = """\
select count(*) from lineitem
where lineitem.l_shipdateG <= 230.3 - 30
and lineitem.l_returnflag = 'R'
and lineitem.l_linestatus = 'F';
"""

B16_SQL = """\
select count(partsupp.ps_suppkey)
from partsupp, part, supplier
where part.p_partkey = partsupp.ps_partkey
and partsupp.ps_suppkey = supplier.s_suppkey
and part.p_brand <> 'Brand#34'
and not (part.p_type like 'MEDIUM POLISHED%')
and part.p_size in (5, 10, 15, 20, 25, 30, 35, 40)
and not (supplier.s_comment like '%Customer%Complaints%')
and part.p_brand = 'Brand#14'
and part.p_type = 'LARGE ANODIZED TIN'
;
"""


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")


def write_table(dirpath: str, name: str, cols: list[str], rows: list[list],
                sensitive: list[bool] | None = None) -> None:
    ids = [str(i + 1) for i in range(len(rows))]
    write_csv(os.path.join(dirpath, f"{name}.csv"), ["ID"] + cols,
              [[i] + list(r) for i, r in zip(ids, rows)])
    if sensitive is None:
        sensitive = [True] * len(rows)
    write_csv(os.path.join(dirpath, f"{name}_sensRows.csv"), ["ID", "sensitive"],
              [[i, 1 if s else 0] for i, s in zip(ids, sensitive)])


LINEITEM_COLS = [
    "l_quantity", "l_extendedprice", "l_discount", "l_tax",
    "l_returnflag", "l_linestatus", "l_shipdateG", "l_commitdateG", "l_receiptdateG",
]


def lineitem_row(qty=10.0, ep=1000.0, disc=0.05, tax=0.02, rf="R", ls="F",
                 sd=100.0, cd=None, rd=None):
    cd = sd + 1.0 if cd is None else cd
    rd = sd + 2.0 if rd is None else rd
    return [qty, ep, disc, tax, rf, ls, sd, cd, rd]


def with_cells(db: sf.Database, table: str, row: int, values: dict) -> sf.Database:
    """A copy of `db` whose `table` holds `values` (column -> value) in row
    number `row`.  Loaded columns are read-only, so edited ones are copied."""
    td = db.tables[table]
    columns = dict(td.columns)
    for col, value in values.items():
        arr = columns[col].copy()
        arr[row] = value
        arr.flags.writeable = False
        columns[col] = arr
    return sf.Database({**db.tables, table: dataclasses.replace(td, columns=columns)})


@pytest.fixture()
def lineitem_db(tmp_path):
    """Four-row fixture: deep pass, near-threshold pass, fail, public-fail."""
    rows = [
        lineitem_row(qty=17, sd=100.0),
        lineitem_row(qty=36, ep=2000, disc=0.03, sd=195.0),
        lineitem_row(qty=8, ep=500, disc=0.01, sd=260.0),
        lineitem_row(qty=21, ep=700, disc=0.07, rf="N", ls="O", sd=90.0),
    ]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows, [True, True, True, False])
    schema = sf.parse_schema(LINEITEM_SCHEMA)
    return sf.load_database(str(tmp_path), schema), schema


# ---------------------------------------------------------------------------
# Canonical comparison of emitted SQL
# ---------------------------------------------------------------------------


def _round2(v: float):
    r = round(float(v), 2)
    return 0.0 if r == 0.0 else r


def _key(x) -> str:
    return repr(x)


def canon_expr(e):
    if isinstance(e, Number):
        return ("num", _round2(e.value))
    if isinstance(e, StrLit):
        return ("str", e.value)
    if isinstance(e, ColRef):
        return ("col", e.name.lower())
    if isinstance(e, BinOp):
        if e.op in "+-":
            const, terms = _flatten_sum(e)
            if not terms:
                return ("num", _round2(const))
            if len(terms) == 1 and const == 0.0:
                return terms[0]
            return ("sum", _round2(const), tuple(sorted(terms, key=_key)))
        if e.op in "*/":
            coef, factors = _flatten_prod(e)
            if not factors:
                return ("num", _round2(coef))
            if len(factors) == 1 and _round2(coef) == 1.0:
                return factors[0]
            return ("prod", _round2(coef), tuple(sorted(factors, key=_key)))
        return ("pow", canon_expr(e.lhs), canon_expr(e.rhs))
    if isinstance(e, FuncCall):
        if e.name == "abs" and len(e.args) == 1:
            return canon_expr(e.args[0])
        args = tuple(canon_expr(a) for a in e.args)
        if e.name in ("greatest", "least"):
            return (e.name, tuple(sorted(args, key=_key)))
        return (e.name, args)
    if isinstance(e, CaseWhen):
        return ("case", canon_pred(e.cond), canon_expr(e.then), canon_expr(e.other))
    if isinstance(e, SubQuery):
        return ("sub", canon_emitted(e.query))
    raise TypeError(type(e).__name__)


def _flatten_sum(e, sign=1.0):
    if isinstance(e, BinOp) and e.op in "+-":
        c1, t1 = _flatten_sum(e.lhs, sign)
        c2, t2 = _flatten_sum(e.rhs, sign if e.op == "+" else -sign)
        return c1 + c2, t1 + t2
    if isinstance(e, Number):
        return sign * e.value, []
    c = canon_expr(e)
    if c[0] == "num":
        return sign * c[1], []
    if sign < 0:
        if c[0] == "prod":
            return 0.0, [("prod", _round2(-c[1]), c[2])]
        return 0.0, [("prod", -1.0, (c,))]
    return 0.0, [c]


def _flatten_prod(e):
    if isinstance(e, BinOp) and e.op == "*":
        c1, f1 = _flatten_prod(e.lhs)
        c2, f2 = _flatten_prod(e.rhs)
        return c1 * c2, f1 + f2
    if isinstance(e, BinOp) and e.op == "/":
        c1, f1 = _flatten_prod(e.lhs)
        den = canon_expr(e.rhs)
        if den[0] == "num":
            return c1 / den[1], f1
        num = ("prod", _round2(c1), tuple(sorted(f1, key=_key))) if f1 else ("num", _round2(c1))
        if len(f1) == 1 and _round2(c1) == 1.0:
            num = f1[0]
        return 1.0, [("div", num, den)]
    c = canon_expr(e)
    if c[0] == "num":
        return c[1], []
    if c[0] == "prod":
        return c[1], list(c[2])
    return 1.0, [c]


def canon_pred(p):
    if isinstance(p, TruePred):
        return ("true",)
    if isinstance(p, Cmp):
        lhs, rhs = canon_expr(p.lhs), canon_expr(p.rhs)
        op = p.op
        if op in (">", ">="):
            op = "<" if op == ">" else "<="
            lhs, rhs = rhs, lhs
        if op in ("=", "<>") and _key(rhs) < _key(lhs):
            lhs, rhs = rhs, lhs
        return ("cmp", op, lhs, rhs)
    if isinstance(p, LikePred):
        return ("like", p.col.name.lower(), p.pattern, p.negated)
    if isinstance(p, BoolCol):
        return ("boolcol", p.col.name.lower())
    if isinstance(p, NotPred):
        if isinstance(p.arg, Cmp):
            flipped = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
            return canon_pred(Cmp(flipped[p.arg.op], p.arg.lhs, p.arg.rhs))
        inner = canon_pred(p.arg)
        if inner[0] == "like":
            return ("like", inner[1], inner[2], not inner[3])
        if inner[0] == "not":
            return inner[1]
        return ("not", inner)
    if isinstance(p, BoolOp):
        args = []
        for a in p.args:
            c = canon_pred(a)
            if c[0] == p.op:  # flatten nested chains of the same connective
                args.extend(c[1])
            else:
                args.append(c)
        return (p.op, tuple(sorted(args, key=_key)))
    raise TypeError(type(p).__name__)


def canon_emitted(es: EmittedSelect):
    return (
        "select",
        canon_expr(es.select),
        tuple((canon_expr(e), name.lower()) for e, name in es.rest),
        tuple(sorted(es.tables)),
        canon_emitted(es.sub) if es.sub is not None else None,
        canon_pred(es.where),
        es.group_by.name.lower() if es.group_by is not None else None,
    )


def canon_sql(sql_text: str):
    return canon_emitted(sf.parse_emitted(sql_text))


def assert_sql_equivalent(actual: str, expected: str) -> None:
    ca, ce = canon_sql(actual), canon_sql(expected)
    assert ca == ce, f"SQL trees differ:\n actual   {ca}\n expected {ce}"
