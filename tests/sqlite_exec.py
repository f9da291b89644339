"""Emitted SQL run on sqlite3, the executor the tests check emitted
statements on: `strict_sqlite` loads a Database into an in-memory sqlite3
and `sqlite_value` runs one emitted statement on it.  `inline_row_columns`
undoes the inner selects through which a statement reads shared nodes."""

from __future__ import annotations

import dataclasses
import math
import re
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


def sqlite_outcome(con: sqlite3.Connection, sql: str) -> tuple[float | None, type | None]:
    """(the value, None) of an emitted statement, or (None, the exception's
    type) when it raises: an overflow in exp, pow or ln raises, as in
    PostgreSQL."""
    try:
        return sqlite_value(con, sql), None
    except (sqlite3.Error, OverflowError, ValueError) as exc:
        return None, type(exc)


def _close(sql: str, i: int) -> int:
    """The index of the ")" that closes the "(" at i; string literals skipped."""
    depth = 0
    while True:
        ch = sql[i]
        if ch == "'":
            i = sql.index("'", i + 1)
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1


def _split_items(sql: str) -> tuple[list[tuple[str, str]], str]:
    """`item AS name, ... FROM source` as ([(item, name), ...], source)."""
    items, depth, start, i = [], 0, 0, 0
    while True:
        ch = sql[i]
        if ch == "'":
            i = sql.index("'", i + 1)
        elif ch in "()":
            depth += 1 if ch == "(" else -1
        elif depth == 0 and (sql.startswith(", ", i) or sql.startswith(" FROM ", i)):
            text, name = sql[start:i].rsplit(" AS ", 1)
            items.append((text, name))
            if sql.startswith(" FROM ", i):
                return items, sql[i + len(" FROM "):]
            start = i + 2
        i += 1


def row_columns(sql: str) -> list[tuple[str, str, str, list[tuple[str, str]], str]]:
    """The inner selects of row columns in an emitted statement, in order:
    (the text of the select around one, its own text "(SELECT ...) AS
    alias", the alias, its columns as (text, name), its source after
    FROM).  A derived table is one when the select around it reads its
    columns as alias.name."""
    found = []
    for m in re.finditer(r"\(SELECT ", sql):
        end = _close(sql, m.start())
        alias = re.match(r" AS (\w+)", sql[end + 1:])
        if alias is None:
            continue
        derived = sql[m.start():end + 1 + alias.end()]
        # the select around the derived table: its own parentheses, if any
        depth, i = 0, m.start() - 1
        while i >= 0 and not (sql[i] == "(" and depth == 0):
            depth += {")": 1, "(": -1}.get(sql[i], 0)
            i -= 1
        around = sql[i + 1:_close(sql, i)] if i >= 0 else sql
        if re.search(rf"\b{alias[1]}\.\w", around.replace(derived, "", 1)):
            items, source = _split_items(sql[m.end():end])
            found.append((around, derived, alias[1], items, source))
    return found


def inline_row_columns(sql: str) -> str:
    """An emitted statement with each inner select of row columns undone:
    the derived table put back as its source, and every alias.name read as
    the column's text, so that it prints each shared node in full."""
    while True:
        found = row_columns(sql)
        if not found:
            return sql
        around, derived, alias, items, source = found[0]
        by_name = {name: text for text, name in items}
        body = re.sub(rf"\b{alias}\.(\w+)\b", lambda m: by_name[m[1]], around.replace(derived, source, 1))
        sql = sql.replace(around, body, 1)


def assert_reads_row_columns(named: str, flat: str) -> None:
    """`named`, a statement as emitted, is `flat` (the same with no node
    named) with inner selects of row columns: undoing them gives `flat`
    byte for byte, `named` is shorter whenever they differ, and each shared
    column tK is read at least twice by the select around it."""
    assert inline_row_columns(named) == flat
    assert named == flat or len(named) < len(flat)
    for around, derived, alias, items, _ in row_columns(named):
        reads = around.replace(derived, "", 1)
        for _, name in items:
            if re.fullmatch(r"t\d+", name):
                assert len(re.findall(rf"\b{alias}\.{name}\b", reads)) >= 2, (name, named)
