"""Emitted SQL run on sqlite3, the executor the tests check emitted
statements on: `strict_sqlite` loads a Database into an in-memory sqlite3
and `sqlite_value` runs one emitted statement on it."""

from __future__ import annotations

import dataclasses
import math
import sqlite3

from dersens import sqlfront as sf


def sqlite_dialect(node):
    """A parsed emitted statement in sqlite's dialect: `^` -> pow,
    greatest/least -> max/min."""
    if isinstance(node, tuple):
        return tuple(sqlite_dialect(n) for n in node)
    if not dataclasses.is_dataclass(node):
        return node
    if isinstance(node, sf.BinOp) and node.op == "^":
        return sf.FuncCall("pow", (sqlite_dialect(node.lhs), sqlite_dialect(node.rhs)))
    if isinstance(node, sf.FuncCall) and node.name in ("greatest", "least"):
        return sf.FuncCall("max" if node.name == "greatest" else "min", sqlite_dialect(node.args))
    return dataclasses.replace(node, **{
        f.name: sqlite_dialect(getattr(node, f.name)) for f in dataclasses.fields(node)
    })


def _null_safe(fn):
    """`fn` as an SQL function: NULL in, NULL out."""
    def call(*args):
        return None if any(a is None for a in args) else fn(*args)
    return call


def strict_sqlite(db: sf.Database | None = None) -> sqlite3.Connection:
    """An in-memory sqlite3 holding `db`.  exp, ln and pow are Python's
    math functions, which raise on overflow as PostgreSQL does; sqlite's
    own would return inf or NULL."""
    con = sqlite3.connect(":memory:")
    for name, fn, arity in (("exp", math.exp, 1), ("ln", math.log, 1), ("pow", math.pow, 2)):
        con.create_function(name, arity, _null_safe(fn), deterministic=True)
    for name, td in (db.tables.items() if db is not None else ()):
        decl = ", ".join(f"{c} {'TEXT' if a.dtype == object else 'REAL'}"
                         for c, a in td.columns.items())
        con.execute(f"CREATE TABLE {name} (ID TEXT, {decl})")
        rows = zip(td.ids.tolist(), *(a.tolist() for a in td.columns.values()))
        con.executemany(f"INSERT INTO {name} VALUES ({', '.join('?' * (len(td.columns) + 1))})", rows)
        con.execute(f"CREATE TABLE {name}_sensRows (ID TEXT, sensitive INTEGER)")
        con.executemany(f"INSERT INTO {name}_sensRows VALUES (?, ?)",
                        zip(td.ids.tolist(), td.sensitive.tolist()))
    return con


def sqlite_value(con: sqlite3.Connection, sql: str) -> float | None:
    """The one value of an emitted statement; None for SQL NULL."""
    stmt = sf.print_expr(sf.SubQuery(sqlite_dialect(sf.parse_emitted(sql))))[1:-1]
    ((value,),) = con.execute(stmt).fetchall()
    return value
