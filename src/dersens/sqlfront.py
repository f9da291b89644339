"""SQL subset parser, schema and norm files, CSV loading with sensitive-row masks.

Queries have the shape SELECT aggr(expr) FROM t1 [AS a1], ... WHERE cond,
with aggr in {SUM, COUNT, PRODUCT, MIN, MAX} and cond a boolean tree of
comparisons.  A tolerant mode additionally accepts the constructs the
analyzer emits (CASE WHEN, bare boolean columns, count(*) calls,
FROM-subqueries, GROUP BY) so emitted sensitivity queries can be re-read and
re-evaluated independently; a user query holds none of them.  `validate`
resolves each column reference of a query once, into `AnalysisContext.refs`,
and every later pass reads its column facts there.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
import warnings
from collections import Counter
from itertools import islice
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Union

from dersens.norms import NormExpr, norm_vars, normalize, parse_norm

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoolOp",
    "Cmp",
    "ColRef",
    "Database",
    "FuncCall",
    "LikePred",
    "Number",
    "ParseError",
    "QuerySpec",
    "Schema",
    "SchemaError",
    "StrLit",
    "TableData",
    "TableSchema",
    "TruePred",
    "date_to_months",
    "load_database",
    "parse_emitted",
    "parse_query",
    "parse_schema",
    "print_query",
    "validate",
]

AGGREGATORS = ("SUM", "COUNT", "PRODUCT", "MIN", "MAX")
NUMERIC_TYPES = ("int", "real", "date-months")
COLUMN_TYPES = NUMERIC_TYPES + ("text",)


class ParseError(ValueError):
    def __init__(self, message: str, pos: tuple[int, int] | None = None, token: str = ""):
        loc = f" at line {pos[0]}, column {pos[1]}" if pos else ""
        tok = f" near '{token}'" if token else ""
        super().__init__(f"{message}{loc}{tok}")


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class ColRef:
    table: str  # alias; empty until resolution when written unqualified
    column: str

    @property
    def name(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    lhs: "SqlExpr"
    rhs: "SqlExpr"


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: tuple["SqlExpr", ...]


# CaseWhen, SubQuery and BoolCol occur only in emitted SQL (`parse_emitted`)
@dataclass(frozen=True)
class CaseWhen:
    cond: "Pred"
    then: "SqlExpr"
    other: "SqlExpr"


@dataclass(frozen=True)
class SubQuery:
    query: "EmittedSelect"


SqlExpr = Union[Number, StrLit, ColRef, BinOp, FuncCall, CaseWhen, SubQuery]


@dataclass(frozen=True)
class Cmp:
    op: str  # < <= > >= = <>
    lhs: SqlExpr
    rhs: SqlExpr


@dataclass(frozen=True)
class LikePred:
    col: ColRef
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class BoolCol:
    """Bare boolean column (the sensRows.sensitive flag) used as a conjunct."""

    col: ColRef


@dataclass(frozen=True)
class BoolOp:
    op: str  # and / or / xor
    args: tuple["Pred", ...]
    exclusive: bool = False  # or-args provably mutually exclusive (IN lists)


@dataclass(frozen=True)
class NotPred:
    arg: "Pred"


@dataclass(frozen=True)
class TruePred:
    pass


Pred = Union[Cmp, LikePred, BoolCol, BoolOp, NotPred, TruePred]


@dataclass(frozen=True)
class QuerySpec:
    aggregator: str
    select: SqlExpr | None  # None for COUNT(*); COUNT(col) keeps its column
    tables: tuple[tuple[str, str], ...]  # (table, alias)
    where: Pred


@dataclass(frozen=True)
class EmittedSelect:
    """Loose shape for re-reading emitted SQL: a select list whose items may
    contain aggregate calls, over base tables or one subquery (a derived
    table), with optional grouping.  `select` and `out_name` are the first
    item and its name, `rest` the other items as (expression, name).
    count(*) parses as FuncCall('count', ())."""

    select: SqlExpr
    out_name: str
    tables: tuple[tuple[str, str], ...]
    sub: "EmittedSelect | None"
    sub_alias: str
    where: Pred
    group_by: ColRef | None
    rest: tuple[tuple[SqlExpr, str], ...] = ()


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "select", "from", "where", "as", "and", "or", "xor", "not", "in", "between",
    "like", "group", "by", "distinct", "case", "when", "then", "else", "end",
    "is", "null", "having", "order", "limit", "union", "join",
}


class _Tok(NamedTuple):
    kind: str  # kw, ident, num, str, op
    text: str
    pos: tuple[int, int]
    # text.lower(), which the parser's keyword and punctuation tests read;
    # empty for a string literal, so that quoted text matches none of them
    low: str


# Whitespace and comments are skipped before each token; then one alternative
# per token class, in the order they are tried: a quoted string, a number (a
# digit, or a dot before one), a word (a letter or underscore first) and an
# operator.  Anything else, an unclosed quote included, is `bad`; the empty
# alternative ends the text.
_TOKEN = re.compile(r"""
    (?:\s|--[^\n]*)*
    (?: (?P<str>'[^']*')
      | (?P<num>(?:[0-9]|\.[0-9])(?:[0-9.eE]|(?<=[eE])[+-])*)
      | (?P<word>[A-Za-z_]\w*)
      | (?P<op>[<>!]=|<>|[()+\-*/^,.;<>=])
      | (?P<bad>.)
      | $ )
""", re.VERBOSE)

_new_tok = tuple.__new__  # builds a _Tok without NamedTuple's Python-level __new__


def _ascii_classes(sql: str) -> str:
    r"""`sql` with each non-ASCII digit replaced by 0 and each non-ASCII letter
    by a, so that _TOKEN's ASCII classes decide as str.isdigit and str.isalpha
    do on the original (its \s and \w are str.isspace and str.isalnum or _
    already).  Token text is sliced from the original."""
    if sql.isascii():
        return sql
    return sql.translate({ord(c): "0" if c.isdigit() else "a"
                          for c in set(sql) if not c.isascii() and (c.isdigit() or c.isalpha())})


def _lex(sql: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start, nl = 1, 0, sql.find("\n")  # nl: the next newline
    for m in _TOKEN.finditer(_ascii_classes(sql)):
        kind = m.lastgroup
        if kind is None:
            break
        start, end = m.start(kind), m.end()
        while 0 <= nl < start:
            line, line_start, nl = line + 1, nl + 1, sql.find("\n", nl + 1)
        pos = (line, start - line_start + 1)
        text = sql[start:end]
        if kind == "bad":
            if text == "'":
                raise ParseError("unterminated string literal", pos)
            raise ParseError("unexpected character", pos, text)
        if kind == "str":
            text = text[1:-1]
        elif text == "!=":
            text = "<>"
        low = "" if kind == "str" else text.lower()
        if kind == "word":
            kind = "kw" if low in _KEYWORDS else "ident"
        toks.append(_new_tok(_Tok, (kind, text, pos, low)))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, sql: str, tolerant: bool = False):
        self.toks = _lex(sql)
        self.pos = 0
        self.tolerant = tolerant

    # -- token helpers ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> _Tok | None:
        k = self.pos + ahead
        return self.toks[k] if k < len(self.toks) else None

    def _next(self) -> _Tok:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of query")
        self.pos += 1
        return t

    def _at(self, text: str) -> bool:
        t = self._peek()
        return t is not None and t.low == text

    def _eat(self, text: str) -> bool:
        if self._at(text):
            self.pos += 1
            return True
        return False

    def _expect(self, text: str) -> _Tok:
        t = self._next()
        if t.low != text:
            raise ParseError(f"expected '{text}'", t.pos, t.text)
        return t

    # -- entry points --------------------------------------------------------

    def parse_query(self) -> QuerySpec:
        self._expect("select")
        if self._at("distinct"):
            t = self._peek()
            raise ParseError("DISTINCT is not supported", t.pos, t.text)
        agg, arg = self._aggregate()
        self._expect("from")
        tables = self._tables()
        where: Pred = TruePred()
        if self._eat("where"):
            where = self._pred()
        self._eat(";")
        t = self._peek()
        if t is not None:
            if t.low in ("group", "having", "order", "limit", "union"):
                raise ParseError(f"{t.text.upper()} is not supported", t.pos, t.text)
            raise ParseError("trailing input after query", t.pos, t.text)
        return QuerySpec(agg, arg, tables, where)

    def parse_emitted(self, *, toplevel: bool = True) -> EmittedSelect:
        self._expect("select")
        items = [self._select_item()]
        while self._eat(","):
            items.append(self._select_item())
        (select, out_name), rest = items[0], tuple(items[1:])
        sub: EmittedSelect | None = None
        sub_alias = ""
        tables: tuple[tuple[str, str], ...] = ()
        where: Pred = TruePred()
        group_by: ColRef | None = None
        if self._eat("from"):
            if self._at("("):
                save = self.pos
                self._next()
                if self._at("select"):
                    sub = self.parse_emitted(toplevel=False)
                    self._expect(")")
                    self._eat("as")
                    sub_alias = self._next().text
                else:
                    self.pos = save
                    tables = self._tables()
            else:
                tables = self._tables()
            if self._eat("where"):
                where = self._pred()
            if self._eat("group"):
                self._expect("by")
                group_by = self._colref()
        if toplevel:
            self._eat(";")
            t = self._peek()
            if t is not None:
                raise ParseError("trailing input after query", t.pos, t.text)
        return EmittedSelect(select, out_name, tables, sub, sub_alias, where, group_by, rest)

    def _select_item(self) -> tuple[SqlExpr, str]:
        e = self._expr()
        return e, self._next().text if self._eat("as") else ""

    # -- pieces ---------------------------------------------------------------

    def _aggregate(self) -> tuple[str, SqlExpr | None]:
        t = self._next()
        name = t.text.upper()
        if t.kind == "str" or name not in AGGREGATORS:
            raise ParseError(
                f"unsupported aggregator '{t.text}' (supported: {', '.join(AGGREGATORS)})",
                t.pos,
                t.text,
            )
        self._expect("(")
        if name == "COUNT" and self._at("*"):
            self._next()
            self._expect(")")
            return name, None
        arg = self._expr()
        self._expect(")")
        if name == "COUNT" and not isinstance(arg, ColRef):
            t = self._peek() or _Tok("op", "", (0, 0), "")
            raise ParseError("COUNT takes * or a single column", t.pos, t.text)
        return name, arg

    def _tables(self) -> tuple[tuple[str, str], ...]:
        out = []
        while True:
            t = self._next()
            if t.kind not in ("ident", "kw"):
                raise ParseError("expected a table name", t.pos, t.text)
            name = t.text
            alias = name
            if self._eat("as"):
                alias = self._next().text
            elif (nt := self._peek()) is not None and nt.kind == "ident":
                alias = self._next().text
            out.append((name, alias))
            if not self._eat(","):
                break
        return tuple(out)

    def _colref(self) -> ColRef:
        t = self._next()
        if t.kind not in ("ident", "kw"):
            raise ParseError("expected a column reference", t.pos, t.text)
        if self._eat("."):
            c = self._next()
            return ColRef(t.text, c.text)
        return ColRef("", t.text)

    # boolean grammar

    def _pred(self) -> Pred:
        return self._or()

    def _or(self) -> Pred:
        left = self._and()
        args = [left]
        op = None
        while self._at("or") or self._at("xor"):
            word = self._next().low
            if op is None:
                op = word
            elif op != word:
                raise ParseError("mixed OR/XOR chains need parentheses")
            args.append(self._and())
        if op is None:
            return left
        return BoolOp(op, tuple(args))

    def _and(self) -> Pred:
        left = self._not()
        args = [left]
        while self._eat("and"):
            args.append(self._not())
        if len(args) == 1:
            return left
        return BoolOp("and", tuple(args))

    def _not(self) -> Pred:
        if self._eat("not"):
            inner = self._not()
            if isinstance(inner, LikePred):
                return LikePred(inner.col, inner.pattern, not inner.negated)
            return NotPred(inner)
        return self._atom_pred()

    def _atom_pred(self) -> Pred:
        if self._at("("):
            save = self.pos
            self._next()
            try:
                inner = self._pred()
                self._expect(")")
                return inner
            except ParseError:
                self.pos = save
        start = self._peek()
        if self._at("select"):
            raise ParseError("subqueries are not supported", start.pos, start.text)
        lhs = self._expr()
        t = self._peek()
        if t is None:
            return self._bare_bool(lhs, start)
        word = t.low
        if t.kind == "op" and t.text in ("<", "<=", ">", ">=", "=", "<>"):
            self._next()
            rhs = self._expr()
            return Cmp(t.text, lhs, rhs)
        if word == "between":
            self._next()
            lo = self._expr()
            self._expect("and")
            hi = self._expr()
            return BoolOp("and", (Cmp(">=", lhs, lo), Cmp("<=", lhs, hi)))
        if word == "in":
            self._next()
            self._expect("(")
            if self._at("select"):
                tt = self._peek()
                raise ParseError("subqueries are not supported", tt.pos, tt.text)
            items = [self._expr()]
            while self._eat(","):
                items.append(self._expr())
            self._expect(")")
            # one expression against distinct literals: the disjuncts exclude
            # each other, so the analyzer may lower this OR as a plain sum
            lits = {(type(x), getattr(x, "value", None)) for x in items}
            excl = all(isinstance(x, (Number, StrLit)) for x in items) and len(lits) == len(items)
            return BoolOp("or", tuple(Cmp("=", lhs, x) for x in items), exclusive=excl)
        if word == "like":
            self._next()
            pat = self._next()
            if pat.kind != "str":
                raise ParseError("LIKE needs a string pattern", pat.pos, pat.text)
            if not isinstance(lhs, ColRef):
                raise ParseError("LIKE applies to a column", pat.pos, pat.text)
            return LikePred(lhs, pat.text)
        return self._bare_bool(lhs, start)

    def _bare_bool(self, lhs: SqlExpr, start: _Tok) -> Pred:
        # a bare column is a predicate only in emitted SQL: the sensRows flag
        if self.tolerant and isinstance(lhs, ColRef):
            return BoolCol(lhs)
        raise ParseError("expected a comparison", start.pos, start.text)

    # arithmetic grammar

    def _expr(self) -> SqlExpr:
        left = self._term()
        while (t := self._peek()) is not None and t.kind == "op" and t.text in "+-":
            self._next()
            left = BinOp(t.text, left, self._term())
        return left

    def _term(self) -> SqlExpr:
        left = self._factor()
        while (t := self._peek()) is not None and t.kind == "op" and t.text in "*/":
            self._next()
            left = BinOp(t.text, left, self._factor())
        return left

    def _factor(self) -> SqlExpr:
        t = self._peek()
        if t is not None and t.kind == "op" and t.text == "-":
            self._next()
            inner = self._factor()
            if isinstance(inner, Number):
                return Number(-inner.value)
            return BinOp("*", Number(-1.0), inner)
        return self._power()

    def _power(self) -> SqlExpr:
        base = self._atom()
        if (t := self._peek()) is not None and t.kind == "op" and t.text == "^":
            self._next()
            return BinOp("^", base, self._factor())
        return base

    def _atom(self) -> SqlExpr:
        t = self._next()
        if t.kind == "num":
            try:
                value = float(t.text)
            except ValueError:
                raise ParseError("bad numeric literal", t.pos, t.text) from None
            if not math.isfinite(value):
                raise ParseError("numeric literal out of range", t.pos, t.text)
            return Number(value)
        if t.kind == "str":
            return StrLit(t.text)
        if t.text == "(":
            if self._at("select"):
                if not self.tolerant:
                    tt = self._peek()
                    raise ParseError("subqueries are not supported", tt.pos, tt.text)
                sub = self.parse_emitted(toplevel=False)
                self._expect(")")
                return SubQuery(sub)
            e = self._expr()
            self._expect(")")
            return e
        if t.low == "case":
            if not self.tolerant:
                raise ParseError("CASE is not supported", t.pos, t.text)
            self._expect("when")
            cond = self._pred()
            self._expect("then")
            then = self._expr()
            self._expect("else")
            other = self._expr()
            self._expect("end")
            return CaseWhen(cond, then, other)
        if t.kind in ("ident", "kw"):
            if self._at("("):
                self._next()
                args = []
                if self.tolerant and self._at("*"):
                    self._next()
                elif not self._at(")"):
                    args.append(self._expr())
                    while self._eat(","):
                        args.append(self._expr())
                self._expect(")")
                return FuncCall(t.low, tuple(args))
            if self._eat("."):
                c = self._next()
                return ColRef(t.text, c.text)
            return ColRef("", t.text)
        raise ParseError("unexpected token", t.pos, t.text)


def parse_query(sql: str) -> QuerySpec:
    """Parse the supported SQL subset into a QuerySpec."""
    return _Parser(sql).parse_query()


def parse_emitted(sql: str) -> EmittedSelect:
    """Parse-tolerant reader for emitted modified/sensitivity queries."""
    return _Parser(sql, tolerant=True).parse_emitted()


# ---------------------------------------------------------------------------
# Printer (round-trips through parse_query)
# ---------------------------------------------------------------------------


def print_expr(e: SqlExpr) -> str:
    if isinstance(e, Number):
        return _fmt_num(e.value)
    if isinstance(e, StrLit):
        return f"'{e.value}'"
    if isinstance(e, ColRef):
        return e.name
    if isinstance(e, BinOp):
        return f"({print_expr(e.lhs)} {e.op} {print_expr(e.rhs)})"
    if isinstance(e, FuncCall):
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    if isinstance(e, CaseWhen):
        return (
            f"case when {print_pred(e.cond)} then {print_expr(e.then)}"
            f" else {print_expr(e.other)} end"
        )
    if isinstance(e, SubQuery):
        return f"({_print_emitted(e.query)})"
    raise TypeError(type(e).__name__)


def _fmt_num(v: float) -> str:
    """A number as SQL text, parenthesized when negative."""
    if v < 0:
        return f"(-{_fmt_num(-v)})"
    if v == int(v) and abs(v) < 1e15:
        return f"{v:.1f}"
    return repr(v)


def _print_tables(tables: tuple[tuple[str, str], ...]) -> str:
    return ", ".join(t if t == a else f"{t} AS {a}" for t, a in tables)


def print_pred(p: Pred) -> str:
    if isinstance(p, TruePred):
        return "1.0 = 1.0"
    if isinstance(p, Cmp):
        return f"({print_expr(p.lhs)} {p.op} {print_expr(p.rhs)})"
    if isinstance(p, LikePred):
        body = f"({p.col.name} LIKE '{p.pattern}')"
        return f"not({body})" if p.negated else body
    if isinstance(p, BoolCol):
        return p.col.name
    if isinstance(p, NotPred):
        return f"not({print_pred(p.arg)})"
    if isinstance(p, BoolOp):
        sep = f" {p.op.upper()} "
        return "(" + sep.join(print_pred(a) for a in p.args) + ")"
    raise TypeError(type(p).__name__)


def print_query(q: QuerySpec) -> str:
    agg = q.aggregator.lower()
    arg = "*" if q.select is None else print_expr(q.select)
    out = f"SELECT {agg}({arg}) FROM {_print_tables(q.tables)}"
    if not isinstance(q.where, TruePred):
        out += f" WHERE {print_pred(q.where)}"
    return out + ";"


def _print_emitted(q: EmittedSelect) -> str:
    items = [(q.select, q.out_name), *q.rest]
    out = "SELECT " + ", ".join(
        f"{print_expr(e)} AS {name}" if name else print_expr(e) for e, name in items
    )
    if q.sub is not None:
        out += f" FROM ({_print_emitted(q.sub)}) AS {q.sub_alias or 'sub'}"
    elif q.tables:
        out += f" FROM {_print_tables(q.tables)}"
    if not isinstance(q.where, TruePred):
        out += f" WHERE {print_pred(q.where)}"
    if q.group_by is not None:
        out += f" GROUP BY {q.group_by.name}"
    return out


# ---------------------------------------------------------------------------
# Schema files
# ---------------------------------------------------------------------------


@dataclass
class TableSchema:
    name: str
    columns: list[tuple[str, str]] = field(default_factory=list)
    rows_p: float = 1.0
    norm: NormExpr | None = None
    precisions: dict[str, float] = field(default_factory=dict)
    # Derived from the fields above by `derive`: the type of each column, the
    # columns the norm makes sensitive, and the norm in normal form over bare
    # column names, which the analyzer aligns each query against.
    types: dict[str, str] = field(init=False, repr=False, compare=False)
    sensitive_columns: frozenset[str] = field(init=False, repr=False, compare=False)
    normal_norm: NormExpr | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.derive()

    def derive(self) -> None:
        """Recompute the derived facts; parse_schema calls this on every
        table when it finishes, so they follow a norm a norm file replaces."""
        self.types = dict(self.columns)
        self.sensitive_columns = norm_vars(self.norm) if self.norm is not None else frozenset()
        self.normal_norm = normalize(self.norm) if self.norm is not None else None

    def column_type(self, col: str) -> str | None:
        return self.types.get(col)

    def column_precision(self, col: str) -> float | None:
        """Grid density k with distinct values at least 1/k apart: 1 for int
        columns, the declared precision for real columns, None otherwise."""
        ty = self.column_type(col)
        if ty == "int":
            return 1.0
        return self.precisions.get(col)


@dataclass
class Schema:
    tables: dict[str, TableSchema] = field(default_factory=dict)
    database_p: float = math.inf

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"unknown table '{name}'") from None


def parse_schema(text: str, base: Schema | None = None) -> Schema:
    """Parse schema/norm description lines.

    Lines: "table <name>", "col <name> <type>", "rows lp <p>" or "rows linf",
    "norm <norm-expr>", "database lp <p>" or "database linf"; '#' comments.
    When `base` is given, norm/rows lines amend the existing tables (used for
    a separate norm file overriding the schema's defaults).
    """
    schema = base if base is not None else Schema()
    try:
        _apply_schema_lines(text, schema)
    finally:
        # also when a line fails partway through amending `base`, so its
        # facts never describe a norm it no longer has
        for t in schema.tables.values():
            t.derive()
    _check_schema(schema)
    return schema


def _apply_schema_lines(text: str, schema: Schema) -> None:
    current: TableSchema | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        word, rest = parts[0], parts[1] if len(parts) > 1 else ""
        try:
            if word == "table":
                name = rest.strip()
                if not name:
                    raise SchemaError("table line needs a name")
                current = schema.tables.setdefault(name, TableSchema(name))
            elif word == "col":
                if current is None:
                    raise SchemaError("col line before any table")
                bits = rest.split()
                if len(bits) not in (2, 3) or bits[1] not in COLUMN_TYPES:
                    raise SchemaError(
                        f"col line needs '<name> <{'/'.join(COLUMN_TYPES)}> [precision]'"
                    )
                current.columns.append((bits[0], bits[1]))
                if len(bits) == 3:
                    if bits[1] != "real":
                        raise SchemaError("a precision only applies to real columns")
                    k = float(bits[2])
                    if not k > 0:
                        raise SchemaError(f"precision must be positive, got {k}")
                    current.precisions[bits[0]] = k
            elif word == "rows":
                if current is None:
                    raise SchemaError("rows line before any table")
                current.rows_p = _parse_combiner(rest)
            elif word == "norm":
                if current is None:
                    raise SchemaError("norm line before any table")
                current.norm = parse_norm(rest)
            elif word == "database":
                schema.database_p = _parse_combiner(rest)
            else:
                raise SchemaError(f"unknown schema directive '{word}'")
        except ValueError as exc:  # SchemaError, NormError, or a number float() rejects
            raise SchemaError(f"line {lineno}: {exc}") from None


def _parse_combiner(rest: str) -> float:
    bits = rest.split()
    if bits == ["linf"]:
        return math.inf
    if len(bits) == 2 and bits[0] == "lp":
        p = float(bits[1])
        if not p >= 1.0:
            raise SchemaError(f"combiner exponent must be >= 1, got {p}")
        return p
    raise SchemaError("combiner must be 'lp <p>' or 'linf'")


def _check_schema(schema: Schema) -> None:
    for t in schema.tables.values():
        if len(t.types) != len(t.columns):
            dup = next(c for c, k in Counter(c for c, _ in t.columns).items() if k > 1)
            raise SchemaError(f"table '{t.name}' declares column '{dup}' twice")
        for v in t.sensitive_columns:
            ty = t.types.get(v)
            if ty is None:
                raise SchemaError(f"norm of table '{t.name}' uses unknown column '{v}'")
            if ty == "text":
                raise SchemaError(
                    f"norm of table '{t.name}' uses text column '{v}'; text is never sensitive"
                )


# ---------------------------------------------------------------------------
# Data loading
# ---------------------------------------------------------------------------


def date_to_months(value: str) -> float:
    """Months since 1980-01-01; day fractions use 30.4375-day months."""
    parts = value.strip().split("-")
    if len(parts) != 3:
        raise SchemaError(f"bad date '{value}' (expected YYYY-MM-DD)")
    y, m, d = (int(p) for p in parts)
    if not (1 <= m <= 12 and 1 <= d <= 31):
        raise SchemaError(f"bad date '{value}'")
    return (y - 1980) * 12 + (m - 1) + (d - 1) / 30.4375


@dataclass
class TableData:
    """A loaded table, in file order: one read-only array per column that
    was read (float, or object arrays of str for text columns), the row IDs
    (object array of str) and the boolean sensitivity flags."""

    name: str
    columns: dict[str, np.ndarray]
    ids: np.ndarray
    sensitive: np.ndarray


@dataclass
class Database:
    tables: dict[str, TableData]

    def table(self, name: str) -> TableData:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no data loaded for table '{name}'") from None


def _convert(value: str, ty: str, table: str, col: str) -> float:
    """One numeric cell; ISO dates are read in date-months columns."""
    try:
        if ty == "int":
            return float(int(value))
        if ty == "real":
            return float(value)
        try:
            return float(value)
        except ValueError:
            return date_to_months(value)
    except (ValueError, OverflowError, SchemaError) as exc:
        raise SchemaError(f"{table}.{col}: cannot read '{value}' as {ty}: {exc}") from None


def _frozen(values: Iterable, dtype: type, n: int) -> np.ndarray:
    """The `n` values as a read-only array."""
    # numpy is imported here, not with the module: importing it before the
    # rest of the package is compiled raises the peak RSS of a process that
    # compiles from source by about 2.7 MB
    import numpy as np

    out = np.fromiter(values, dtype=dtype, count=n)
    out.flags.writeable = False
    return out


def _frozen_flags(flags: Iterable[str]) -> np.ndarray:
    """Flags already checked to be `0` or `1`, as a read-only bool array:
    one compare over their bytes."""
    import numpy as np

    out = np.frombuffer("".join(flags).encode("ascii"), np.uint8) == ord("1")
    out.flags.writeable = False
    return out


# ---- the C path: one np.loadtxt call per table file ------------------------

# The loadtxt type of each column type.  int columns are read as int64 and
# cast to float afterwards: numpy's int64 parser refuses `1.0` and `1e3` as
# the csv path's int() does, where a float64 parser would take them.
_LOADTXT_TYPES = {"text": object, "int": "int64", "real": "float64", "date-months": "float64"}


def _loadtxt(path: str, header: list[str], types: list[str],
             usecols: list[int]) -> np.ndarray | None:
    """The fields `usecols` (ascending, the last field among them) of the
    data records of the CSV file at `path` as one structured array (fields
    f<k> of the given column types), read by a single call of numpy's C text
    reader; or None where that reader cannot take the file.

    It cannot take a file it cannot open, one whose header is not `header`,
    whose text holds a quote, a carriage return or NUL, or has a line that
    may exceed the csv module's field size limit, or on which np.loadtxt
    raises or warns: a cell it cannot parse exactly as the csv path would
    (`1_000`, `1.0` in an int column, ISO dates, empty cells, ints beyond
    int64), a short record, a whitespace-only line, no records.  A long
    record goes unseen by np.loadtxt once it is given `usecols`; the count
    of commas in the text finds it.  The csv path reads those files, and it
    alone words the error messages."""
    import numpy as np

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except (UnicodeDecodeError, OSError):
        return None
    if (text.partition("\n")[0].split(",") != header or '"' in text or "\r" in text
            or "\0" in text or _may_have_long_line(text, csv.field_size_limit())):
        return None
    dtype = np.dtype([(f"f{k}", _LOADTXT_TYPES[types[k]]) for k in usecols])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # given a path, loadtxt reads the file in chunks; given a file
            # object it would go through it line by line
            records = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                                 ndmin=1, encoding="utf-8", usecols=usecols)
    except (ValueError, TypeError, OverflowError, Warning):
        return None
    # with the last field read, no record is short; unquoted, every comma
    # is a delimiter, so this count leaves no record long either (numpy
    # counts the bytes several times faster than str.count)
    commas = np.count_nonzero(np.frombuffer(raw, np.uint8) == ord(","))
    if commas != (len(header) - 1) * (len(records) + 1):
        return None
    return records


def _may_have_long_line(text: str, limit: int) -> bool:
    """False when no line of `text` is longer than `limit`: every aligned
    stretch of limit // 2 characters holds a newline, and a longer line
    would cover one such stretch whole."""
    step = max(limit // 2, 1)
    return any(text.find("\n", k, k + step) < 0 for k in range(0, len(text) - step + 1, step))


def _frozen_field(records: np.ndarray, k: int) -> np.ndarray:
    """Field `k` of the records as a contiguous read-only array: float for
    numeric fields (int64 fields cast), object arrays of str otherwise."""
    field = records[f"f{k}"]
    out = field.astype(object if field.dtype == object else float)
    out.flags.writeable = False
    return out


# ---- the csv path: the reference reader, and the only one that words errors


@contextlib.contextmanager
def _csv_reader(path: str) -> Iterator[Iterator[list[str]]]:
    """A csv reader over the UTF-8 file at `path`.  A file that cannot be
    read (a directory, no read permission), bytes that are not UTF-8 and
    fields longer than `csv.field_size_limit()` raise a SchemaError naming
    the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: {exc}") from None


# Records are moved into the columns this many at a time.  A block's record
# lists then die before the cyclic collector's youngest generation (700
# allocations) fills, so the collector never walks a whole table of them.
_BLOCK_ROWS = 512


def _read_cells(reader: Iterator[list[str]], path: str, width: int) -> list[list[str]]:
    """The remaining records of `reader` as one list of cells per field;
    blank records are skipped."""
    columns: list[list[str]] = [[] for _ in range(width)]
    while block := list(islice(reader, _BLOCK_ROWS)):
        block = [rec for rec in block if rec]
        if set(map(len, block)) - {width}:
            bad = next(rec for rec in block if len(rec) != width)
            raise SchemaError(f"{path}: row width mismatch: {bad} has {len(bad)} fields, "
                              f"the header {width}")
        for column, cells in zip(columns, zip(*block)):
            column.extend(cells)
    return columns


def _read_column(cells: list[str], ty: str, table: str, col: str) -> np.ndarray:
    """A column's cells as a read-only array.  Numeric columns map a builtin
    over the whole column; only a column where that raises (ISO dates, or a
    bad cell to report) is read again cell by cell."""
    if ty == "text":
        return _frozen(cells, object, len(cells))
    try:
        return _frozen(map(float, map(int, cells) if ty == "int" else cells), float, len(cells))
    except (ValueError, OverflowError):
        return _frozen((_convert(v, ty, table, col) for v in cells), float, len(cells))


def load_database(data_dir: str, schema: Schema,
                  reads: Mapping[str, Iterable[str]] | None = None) -> Database:
    """Load <table>.csv plus <table>_sensRows.csv for the schema's tables.

    `reads` maps each table to load to the columns to read from it (the ID
    is always read); a table it does not name is not opened, and `columns`
    of each TableData holds only the columns read.  None reads every column
    of every table.  The whole header and the width of every record are
    checked, but only the cells of the columns read are converted, so a bad
    cell elsewhere raises no error.

    Each table file is read by one np.loadtxt call where numpy's C text
    reader can take it, and each sensRows file by one str.split where its
    lines are plain `<ID>,<flag>` records (see `_loadtxt` and `_split_flags`);
    the csv module reads the others.  Every path gives the same arrays, and
    every error message about a file's form comes from the csv path."""
    tables: dict[str, TableData] = {}
    for tname, ts in schema.tables.items():
        if reads is not None and tname not in reads:
            continue
        path = os.path.join(data_dir, f"{tname}.csv")
        if not os.path.exists(path):
            raise SchemaError(f"missing data file {path}")
        # (field index, name, type) of each column read
        read = [(k, c, ty) for k, (c, ty) in enumerate(ts.columns, 1)
                if reads is None or c in reads[tname]]
        header = ["ID", *(c for c, _ in ts.columns)]
        types = ["text", *(ty for _, ty in ts.columns)]
        usecols = sorted({0, len(header) - 1, *(k for k, _, _ in read)})
        records = _loadtxt(path, header, types, usecols)
        if records is None:
            ids, columns = _read_table_csv(path, ts, read)
        else:
            ids = _frozen_field(records, 0)
            columns = {c: _frozen_field(records, k) for k, c, _ in read}
        id_list = ids.tolist()
        known = set(id_list)
        if len(known) != len(id_list):
            raise SchemaError(f"{path}: duplicate row IDs")
        mask = _load_mask(data_dir, tname, id_list, known)
        tables[tname] = TableData(tname, columns, ids, mask)
    return Database(tables)


def _read_table_csv(path: str, ts: TableSchema, read: list[tuple[int, str, str]]
                    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The csv path of `load_database`: the table's IDs and the columns
    `read` ((field index, name, type) each)."""
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if not header or header[0] != "ID":
            raise SchemaError(f"{path}: first column must be ID")
        declared = [c for c, _ in ts.columns]
        if header[1:] != declared:
            raise SchemaError(
                f"{path}: columns {header[1:]} do not match schema {declared}"
            )
        cells = _read_cells(reader, path, len(header))
    columns = {c: _read_column(cells[k], ty, ts.name, c) for k, c, ty in read}
    return _frozen(cells[0], object, len(cells[0])), columns


def _split_flags(path: str) -> tuple[list[str], list[str]] | None:
    """The listed IDs and flags of the sensRows file at `path`, read by one
    str.split; or None where the csv path could read the file differently.

    The split takes only a UTF-8 file whose header line is `ID,sensitive`
    and whose every other line is `<ID>,0` or `<ID>,1` with no other comma,
    quote, carriage return or NUL, and no line that may exceed the csv
    module's field size limit.  That excludes blank and whitespace-only
    lines, records of another width or flag, and files without records."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (UnicodeDecodeError, OSError):
        return None
    header, _, body = text.partition("\n")
    body = body.removesuffix("\n")
    breaks = body.count("\n")
    # a count of cells alone would not pin each record's width (`a,1,x` and
    # `0` are four cells): every line break must follow a flag after a comma
    if (header != "ID,sensitive" or not body.endswith((",0", ",1"))
            or body.count(",0\n") + body.count(",1\n") != breaks
            or body.count(",") != breaks + 1
            or '"' in body or "\r" in body or "\0" in body
            or _may_have_long_line(text, csv.field_size_limit())):
        return None
    cells = body.replace("\n", ",").split(",")
    return cells[0::2], cells[1::2]


def _load_mask(data_dir: str, tname: str, ids: list[str], known: set[str]) -> np.ndarray:
    """The sensitivity flag of each row of the table, in its row order.  The
    sensRows file is read by `_split_flags` where it can take it, and by the
    csv module otherwise."""
    path = os.path.join(data_dir, f"{tname}_sensRows.csv")
    if not os.path.exists(path):
        raise SchemaError(f"missing sensitive-rows file {path}")
    read = _split_flags(path)
    if read is not None:
        listed, flags = read
    else:
        with _csv_reader(path) as reader:
            if next(reader, None) != ["ID", "sensitive"]:
                raise SchemaError(f"{path}: header must be ID,sensitive")
            listed, flags = _read_cells(reader, path, 2)
    # listed in table order (the IDs are unique): each ID once, none unknown
    # or missing, and the flags are already in row order
    in_order = listed == ids
    if not in_order and not known.issuperset(listed):
        bad = next(i for i in listed if i not in known)
        raise SchemaError(f"{path}: sensRows ID '{bad}' not present in {tname}.csv")
    if not {"0", "1"}.issuperset(flags):
        bad = next(f for f in flags if f not in ("0", "1"))
        raise SchemaError(f"{path}: sensitive flag must be 0 or 1, got '{bad}'")
    if in_order:
        return _frozen_flags(flags)
    flag_of = dict(zip(listed, flags))
    if len(flag_of) != len(listed):
        counts = Counter(listed)
        bad = next(i for i in listed if counts[i] > 1)
        raise SchemaError(f"{path}: sensRows ID '{bad}' is listed twice")
    # an ID without a flag is ambiguous; treating it as public would leak it
    if len(flag_of) != len(known):
        missing = next(i for i in ids if i not in flag_of)
        raise SchemaError(f"{path}: no sensitive flag for ID '{missing}' of {tname}.csv")
    return _frozen_flags(map(flag_of.__getitem__, ids))


# ---------------------------------------------------------------------------
# Validation: alias resolution and public/sensitive classification
# ---------------------------------------------------------------------------


@dataclass
class ResolvedRef:
    alias: str
    table: str
    column: str
    type: str
    sensitive: bool
    precision: float | None  # see TableSchema.column_precision

    @property
    def name(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass
class AnalysisContext:
    query: QuerySpec  # every column reference qualified with its alias
    schema: Schema
    aliases: dict[str, str]  # alias -> table
    public_pred: Pred
    residual_pred: Pred  # contains at least one sensitive atom, or TruePred
    sensitive_aliases: list[str]  # aliases of tables with declared norms
    refs: dict[str, ResolvedRef]  # 'alias.column' -> each column `query` reads

    def sensitive(self, node: SqlExpr | Pred) -> bool:
        """True when a column under `node`, a part of `query`, is sensitive."""
        return any(self.refs[r.name].sensitive for r in _walk_refs(node))

    def reads(self) -> dict[str, set[str]]:
        """The `reads` argument of `load_database` for this query: each table
        of its FROM clause, with the columns `refs` names in it."""
        out: dict[str, set[str]] = {t: set() for t in self.aliases.values()}
        for r in self.refs.values():
            out[r.table].add(r.column)
        return out


def _resolve_colref(ref: ColRef, aliases: dict[str, str], schema: Schema) -> ResolvedRef:
    if ref.table:
        if ref.table not in aliases:
            raise SchemaError(f"unknown table alias '{ref.table}' in {ref.name}")
        alias = ref.table
        if schema.table(aliases[alias]).column_type(ref.column) is None:
            raise SchemaError(f"table '{aliases[alias]}' has no column '{ref.column}'")
    else:
        hits = [a for a, t in aliases.items()
                if schema.table(t).column_type(ref.column) is not None]
        if not hits:
            raise SchemaError(f"column '{ref.column}' not found in any queried table")
        if len(hits) > 1:
            raise SchemaError(f"column '{ref.column}' is ambiguous; qualify it")
        alias = hits[0]
    ts = schema.table(aliases[alias])
    return ResolvedRef(alias, aliases[alias], ref.column, ts.types[ref.column],
                       ref.column in ts.sensitive_columns, ts.column_precision(ref.column))


def _walk_refs(e: SqlExpr | Pred) -> Iterable[ColRef]:
    if isinstance(e, ColRef):
        yield e
    elif isinstance(e, BinOp):
        yield from _walk_refs(e.lhs)
        yield from _walk_refs(e.rhs)
    elif isinstance(e, FuncCall):
        for a in e.args:
            yield from _walk_refs(a)
    elif isinstance(e, Cmp):
        yield from _walk_refs(e.lhs)
        yield from _walk_refs(e.rhs)
    elif isinstance(e, LikePred):
        yield e.col
    elif isinstance(e, BoolOp):
        for a in e.args:
            yield from _walk_refs(a)
    elif isinstance(e, NotPred):
        yield from _walk_refs(e.arg)


def _qualify(node, aliases: dict[str, str], schema: Schema, refs: dict[str, ResolvedRef]):
    """`node` with each column reference qualified by its alias and resolved
    once into `refs`.  A node kind outside the query grammar is rejected, so
    that no later pass meets a construct it does not know."""
    if isinstance(node, ColRef):
        r = _resolve_colref(node, aliases, schema)
        refs[r.name] = r
        return ColRef(r.alias, r.column)
    if isinstance(node, (Number, StrLit, TruePred)):
        return node
    if isinstance(node, (BinOp, Cmp)):
        return type(node)(node.op, _qualify(node.lhs, aliases, schema, refs),
                          _qualify(node.rhs, aliases, schema, refs))
    if isinstance(node, FuncCall):
        return FuncCall(node.name, tuple(_qualify(a, aliases, schema, refs) for a in node.args))
    if isinstance(node, LikePred):
        return LikePred(_qualify(node.col, aliases, schema, refs), node.pattern, node.negated)
    if isinstance(node, BoolOp):
        args = tuple(_qualify(a, aliases, schema, refs) for a in node.args)
        return BoolOp(node.op, args, node.exclusive)
    if isinstance(node, NotPred):
        return NotPred(_qualify(node.arg, aliases, schema, refs))
    raise SchemaError(f"{type(node).__name__} is not part of the query language")


def validate(query: QuerySpec, schema: Schema) -> AnalysisContext:
    """Resolve aliases and each column reference, type-check, and split the
    WHERE clause into the public part (stays a filter) and the residual
    sensitive part (lowered into the query by the analyzer)."""
    aliases: dict[str, str] = {}
    seen_tables: dict[str, int] = {}
    for table, alias in query.tables:
        schema.table(table)
        if alias in aliases:
            raise SchemaError(f"duplicate table alias '{alias}'")
        aliases[alias] = table
        seen_tables[table] = seen_tables.get(table, 0) + 1
    for table, count in seen_tables.items():
        if count > 1 and schema.table(table).norm is not None:
            raise SchemaError(
                f"table '{table}' is sensitive and joined with itself; "
                "self-joins are only supported for tables without a norm"
            )

    if query.aggregator == "COUNT" and query.select is not None:
        # COUNT(col) counts rows (NULLs are out of scope): its column must
        # exist, and is then read no further
        _resolve_colref(query.select, aliases, schema)
        query = QuerySpec(query.aggregator, None, query.tables, query.where)

    refs: dict[str, ResolvedRef] = {}
    query = QuerySpec(
        query.aggregator,
        _qualify(query.select, aliases, schema, refs) if query.select is not None else None,
        query.tables,
        _qualify(query.where, aliases, schema, refs),
    )

    if query.select is not None:
        for r in _walk_refs(query.select):
            if refs[r.name].type == "text":
                raise SchemaError(f"text column '{r.name}' cannot appear in the select expression")

    _check_atoms(query.where, refs)

    sensitive_aliases = sorted(
        alias for alias, table in aliases.items() if schema.table(table).norm is not None
    )
    ctx = AnalysisContext(query, schema, aliases, TruePred(), TruePred(), sensitive_aliases, refs)
    public: list[Pred] = []
    residual: list[Pred] = []
    for c in _flatten_and(query.where):
        (residual if ctx.sensitive(c) else public).append(c)
    ctx.public_pred, ctx.residual_pred = _make_and(public), _make_and(residual)
    return ctx


def _check_atoms(p: Pred, refs: dict[str, ResolvedRef]) -> None:
    if isinstance(p, LikePred):
        r = refs[p.col.name]
        if r.type != "text":
            raise SchemaError(f"LIKE needs a text column, got {r.name} ({r.type})")
        if r.sensitive:
            raise SchemaError(f"LIKE on sensitive column '{r.name}' is not supported")
    elif isinstance(p, Cmp):
        if p.op not in ("=", "<>") and any(refs[r.name].type == "text" for r in _walk_refs(p)):
            raise SchemaError("text columns only support = and <> comparisons")
    elif isinstance(p, BoolOp):
        for a in p.args:
            _check_atoms(a, refs)
    elif isinstance(p, NotPred):
        _check_atoms(p.arg, refs)


def _flatten_and(p: Pred) -> list[Pred]:
    if isinstance(p, TruePred):
        return []
    if isinstance(p, BoolOp) and p.op == "and":
        out = []
        for a in p.args:
            out.extend(_flatten_and(a))
        return out
    return [p]


def _make_and(conjuncts: list[Pred]) -> Pred:
    if not conjuncts:
        return TruePred()
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolOp("and", tuple(conjuncts))


_PRECISION_CAP = 1e6


def expr_precision(e: SqlExpr, refs: dict[str, ResolvedRef]) -> float | None:
    """Grid density k such that the expression provably takes values on the
    1/k grid (so distinct values differ by at least 1/k), or None.  Integer
    columns and literals have k = 1; declared-precision reals carry their k;
    sums and products of gridded values land on the product grid.  `refs`
    is `AnalysisContext.refs` of the query that holds `e`."""
    if isinstance(e, Number):
        v = float(e.value)
        for k in (1.0, 10.0, 100.0, 1000.0, 1e4, 1e5, 1e6):
            if abs(v * k - round(v * k)) <= 1e-9 * max(1.0, abs(v * k)):
                return k
        return None
    if isinstance(e, ColRef):
        return refs[e.name].precision
    if isinstance(e, BinOp) and e.op in "+-*":
        k1 = expr_precision(e.lhs, refs)
        k2 = expr_precision(e.rhs, refs)
        if k1 is None or k2 is None:
            return None
        if e.op == "*":
            k = k1 * k2
        else:
            big, small = max(k1, k2), min(k1, k2)
            k = big if (big / small).is_integer() else k1 * k2
        return k if k <= _PRECISION_CAP else None
    return None
