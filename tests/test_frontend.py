import csv
import math
import os
import random
import re
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lex_oracle
from conftest import LINEITEM_SCHEMA, LINEITEM_COLS, lineitem_row, write_table
from dersens import sqlfront as sf
from dersens.cli import main as cli_main
from dersens.norms import Combine, Scale, Var
from dersens.sqlfront import (
    BinOp,
    BoolOp,
    Cmp,
    ColRef,
    FuncCall,
    LikePred,
    NotPred,
    Number,
    ParseError,
    QuerySpec,
    SchemaError,
    StrLit,
    TruePred,
    date_to_months,
    load_database,
    parse_query,
    parse_schema,
    print_query,
    validate,
)

B1_5_TEXT = """
select
    count(*)
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


# ---------------------------------------------------------------------------
# query parsing
# ---------------------------------------------------------------------------


def test_parse_count_query_shape():
    q = parse_query(B1_5_TEXT)
    assert q.aggregator == "COUNT"
    assert q.select is None
    assert q.tables == (("lineitem", "lineitem"),)
    assert isinstance(q.where, BoolOp) and q.where.op == "and"
    assert len(q.where.args) == 3


def test_parse_simple_sum():
    q = parse_query("SELECT sum(t.x) FROM t")
    assert q.aggregator == "SUM"
    assert q.select == ColRef("t", "x")
    assert q.where == TruePred()


def test_parse_unsupported_aggregator():
    with pytest.raises(ParseError, match="avg"):
        parse_query("SELECT avg(x) FROM t")


@pytest.mark.parametrize(
    "sql,what",
    [
        ("SELECT DISTINCT sum(x) FROM t", "DISTINCT"),
        ("SELECT sum(x) FROM t GROUP BY y", "GROUP"),
        ("SELECT sum(x) FROM t WHERE x IN (SELECT y FROM u)", "subquer"),
        ("SELECT sum(x) FROM t ORDER BY x", "ORDER"),
    ],
)
def test_parse_unsupported_constructs(sql, what):
    with pytest.raises(ParseError, match=what):
        parse_query(sql)


@pytest.mark.parametrize("where, message, emitted", [
    ("case when x > 2 then 1 else 0 end = 1",
     "CASE is not supported at line 1, column 28 near 'case'",
     Cmp("=", sf.CaseWhen(Cmp(">", ColRef("", "x"), Number(2.0)), Number(1.0), Number(0.0)),
         Number(1.0))),
    ("t.flag", "expected a comparison at line 1, column 28 near 't'",
     sf.BoolCol(ColRef("t", "flag"))),
    ("x > 1 AND flag", "expected a comparison at line 1, column 38 near 'flag'",
     BoolOp("and", (Cmp(">", ColRef("", "x"), Number(1.0)), sf.BoolCol(ColRef("", "flag"))))),
], ids=["case", "bare-column", "bare-column-conjunct"])
def test_emitted_sql_syntax_is_no_user_query(where, message, emitted):
    # CASE and a bare column as a filter occur only in emitted SQL
    sql = f"SELECT sum(x) FROM t WHERE {where}"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_query(sql)
    assert sf.parse_emitted(sql).where == emitted


@pytest.mark.parametrize("sql", [
    "SELECT sum(t.x) 'from' t 'where' t.x < 3",
    "SELECT 'sum'(t.x) FROM t",
    "SELECT sum'('t.x) FROM t",
    "SELECT sum(t.x) FROM t WHERE t.x 'between' 1 AND 2",
])
def test_string_literal_is_no_keyword_or_punctuation(sql):
    with pytest.raises(ParseError):
        parse_query(sql)


def test_quoted_keyword_is_a_string_literal():
    q = parse_query("SELECT sum(t.x) FROM t WHERE t.s = 'from'")
    assert q.where == Cmp("=", ColRef("t", "s"), StrLit("from"))


def test_parenthesised_column_is_a_comparison_operand():
    # a bare column in parentheses is no predicate of its own in a user query
    q = parse_query("SELECT sum(x) FROM t WHERE (x) > 3 AND (t.y) IN (1, 2)")
    assert q.where.args[0] == Cmp(">", ColRef("", "x"), Number(3.0))
    assert q.where.args[1].args[0] == Cmp("=", ColRef("t", "y"), Number(1.0))


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="line 2"):
        parse_query("SELECT sum(t.x)\nFROMM t")


def test_between_desugars_to_conjunction():
    q = parse_query("SELECT sum(x) FROM t WHERE x BETWEEN 1 AND 5")
    w = q.where
    assert isinstance(w, BoolOp) and w.op == "and"
    assert w.args == (Cmp(">=", ColRef("", "x"), Number(1.0)),
                      Cmp("<=", ColRef("", "x"), Number(5.0)))


def test_in_list_desugars_to_exclusive_or():
    q = parse_query("SELECT sum(x) FROM t WHERE x IN (1, 2, 3)")
    w = q.where
    assert isinstance(w, BoolOp) and w.op == "or" and w.exclusive
    assert all(isinstance(a, Cmp) and a.op == "=" for a in w.args)


def test_in_list_with_repeats_not_exclusive():
    q = parse_query("SELECT sum(x) FROM t WHERE x IN (1, 1)")
    assert not q.where.exclusive


def test_count_column_counts_rows():
    # a text column is fine, and the query reads no column for it
    schema = parse_schema("table t\ncol c text\ncol x real\nnorm lp 1.0 x\n")
    ctx = validate(parse_query("SELECT count(t.c) FROM t"), schema)
    assert ctx.query.aggregator == "COUNT" and ctx.query.select is None
    assert ctx.refs == {}


@pytest.mark.parametrize("arg,message", [
    ("t.nope", "table 't' has no column 'nope'"),
    ("u.c", "unknown table alias 'u'"),
    ("nope", "column 'nope' not found"),
])
def test_count_column_is_resolved(arg, message):
    # the parser keeps the column, and validate checks it before dropping it
    schema = parse_schema("table t\ncol c text\ncol x real\nnorm lp 1.0 x\n")
    q = parse_query(f"SELECT count({arg}) FROM t")
    assert q.select == parse_query(f"SELECT sum({arg}) FROM t").select
    with pytest.raises(SchemaError, match=message):
        validate(q, schema)


# ---------------------------------------------------------------------------
# lexer: the compiled regular expression against the character-by-character
# lexer it replaced (tests/lex_oracle.py)
# ---------------------------------------------------------------------------

# Pieces the generated strings are made of, besides arbitrary characters:
# comments, newlines, `!=`, numbers with signed exponents, quotes that may
# not close, and Unicode digits, letters, numerics and spaces.
_LEX_PIECES = [
    "select", "SUM", "from", "t.x", "_a1", "xor", "(", ")", ",", ";", ".", "*", "/", "^",
    "+", "-", "=", "<", ">", "<=", ">=", "<>", "!=", "!", "--", "-- note\n", "\n", "\r",
    "\t", " ", "'", "'it''s'", "'a\nb'", "1e+5.2", "2E-3", ".5", "7.", "e", "E", "1_0",
    "\u00b2", "\u00e9", "\u00c9", "\u00bd", "\u216b", "\u0661", "\u2460", "\u212a",
    "\u0130", "\u00a0", "\u2028", "\u3000", "\x1c", "\x00", "#", "$", "\u00df",
]


def _lexed(lex, sql):
    try:
        return [tuple(t)[:3] for t in lex(sql)]
    except ParseError as exc:
        return str(exc)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from(_LEX_PIECES), st.characters()), max_size=24)
       .map("".join))
def test_lexer_matches_the_character_lexer(sql):
    assert _lexed(sf._lex, sql) == _lexed(lex_oracle.lex, sql)


def test_lexer_positions_and_errors():
    sql = "SELECT x\n  -- c\n\u00e9 != 'a\nb' 1e+5.2 \u00b2"
    assert _lexed(sf._lex, sql) == [
        ("kw", "SELECT", (1, 1)), ("ident", "x", (1, 8)), ("ident", "\u00e9", (3, 1)),
        ("op", "<>", (3, 3)), ("str", "a\nb", (3, 6)), ("num", "1e+5.2", (4, 4)),
        ("num", "\u00b2", (4, 11)),
    ]
    assert _lexed(sf._lex, "x\n 'open") == "unterminated string literal at line 2, column 2"
    assert _lexed(sf._lex, "a \u00bd") == "unexpected character at line 1, column 3 near '\u00bd'"


def test_regex_classes_are_the_str_predicates_the_lexer_used():
    # _TOKEN reads \s and \w where the character lexer read str.isspace and
    # str.isalnum() or "_"
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", chars)) == {c for c in chars if c.isspace()}
    assert set(re.findall(r"\w", chars)) == {c for c in chars if c.isalnum() or c == "_"}


# ---------------------------------------------------------------------------
# print / parse round trip
# ---------------------------------------------------------------------------


def _rand_expr(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([
            Number(round(rng.uniform(-50, 50), 2)),
            ColRef("t", rng.choice(["a", "b"])),
            ColRef("", "c"),
        ])
    if rng.random() < 0.25:
        name = rng.choice(["abs", "exp", "sqrt"])
        return FuncCall(name, (_rand_expr(rng, depth - 1),))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return BinOp(op, _rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))


def _rand_pred(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        kind = rng.random()
        if kind < 0.7:
            return Cmp(rng.choice(["<", "<=", ">", ">=", "=", "<>"]),
                       _rand_expr(rng, 1), _rand_expr(rng, 1))
        if kind < 0.85:
            return LikePred(ColRef("t", "s"), "%x_y%", rng.random() < 0.5)
        return NotPred(Cmp("=", ColRef("t", "a"), Number(1.0)))
    op = rng.choice(["and", "or", "xor"])
    n = rng.randint(2, 3)
    return BoolOp(op, tuple(_rand_pred(rng, depth - 1) for _ in range(n)))


def test_query_print_parse_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        agg = rng.choice(["SUM", "COUNT", "PRODUCT", "MIN", "MAX"])
        q = QuerySpec(
            aggregator=agg,
            select=None if agg == "COUNT" else _rand_expr(rng, rng.randint(0, 3)),
            tables=(("t", "t"), ("u", "v"))[: rng.randint(1, 2)],
            where=_rand_pred(rng, rng.randint(0, 2)) if rng.random() < 0.8 else TruePred(),
        )
        assert parse_query(print_query(q)) == q


# ---------------------------------------------------------------------------
# schema files
# ---------------------------------------------------------------------------


def test_parse_schema_lineitem_norm():
    schema = parse_schema(LINEITEM_SCHEMA)
    ts = schema.tables["lineitem"]
    assert ts.rows_p == 1.0
    assert ts.norm == Combine(1.0, (
        Var("l_quantity"),
        Scale(0.0001, Var("l_extendedprice")),
        Scale(50.0, Var("l_discount")),
        Scale(30.0, Combine(math.inf, (
            Var("l_shipdateG"), Var("l_commitdateG"), Var("l_receiptdateG")))),
    ))
    assert ts.sensitive_columns == {
        "l_quantity", "l_extendedprice", "l_discount",
        "l_shipdateG", "l_commitdateG", "l_receiptdateG",
    }


def test_parse_schema_table_without_norm_is_insensitive():
    schema = parse_schema("table region\ncol r_name text\ncol r_key int\n")
    ts = schema.tables["region"]
    assert ts.norm is None
    assert ts.sensitive_columns == frozenset()


def test_parse_schema_rejects_text_column_in_norm():
    with pytest.raises(SchemaError, match="text"):
        parse_schema("table r\ncol r_name text\nnorm lp 1.0 r_name\n")


def test_parse_schema_rejects_a_column_declared_twice():
    with pytest.raises(SchemaError, match="declares column 'a' twice"):
        parse_schema("table t\ncol a int\ncol b real\ncol a text\n")


@pytest.mark.parametrize("line", ["rows lp nan", "rows lp 0.5", "rows lp abc", "database lp nan"])
def test_parse_schema_rejects_a_bad_combiner(line):
    with pytest.raises(SchemaError, match="line 3: "):
        parse_schema(f"table t\ncol a real\n{line}\nnorm lp 1.0 a\n")


def test_parse_schema_rejects_unknown_norm_column():
    with pytest.raises(SchemaError, match="unknown column"):
        parse_schema("table r\ncol a real\nnorm lp 1.0 b\n")


def test_parse_schema_norm_override():
    from dersens.norms import normalize

    schema = parse_schema(LINEITEM_SCHEMA)
    override = "table lineitem\nnorm lp 1.0 l_quantity\nrows linf\n"
    schema = parse_schema(override, base=schema)
    assert normalize(schema.tables["lineitem"].norm) == Var("l_quantity")
    assert schema.tables["lineitem"].rows_p == math.inf


# ---------------------------------------------------------------------------
# dates
# ---------------------------------------------------------------------------


def test_date_epoch_boundary():
    assert date_to_months("1980-02-01") == 1.0
    assert date_to_months("1980-01-01") == 0.0


def test_date_monotone_and_month_exact():
    prev = -1.0
    for year in range(1980, 2021):
        for month in range(1, 13):
            m = date_to_months(f"{year:04d}-{month:02d}-01")
            assert m > prev
            prev = m
            # exact inverse at month precision
            assert m == (year - 1980) * 12 + (month - 1)
            back_year = 1980 + int(m) // 12
            back_month = int(m) % 12 + 1
            assert (back_year, back_month) == (year, month)


def test_date_day_fraction():
    m = date_to_months("1980-01-16")
    assert m == pytest.approx(15 / 30.4375)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_mask_alignment(tmp_path):
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS,
                [lineitem_row(), lineitem_row(), lineitem_row()],
                [False, True, False])
    schema = parse_schema(LINEITEM_SCHEMA)
    db = load_database(str(tmp_path), schema)
    assert db.tables["lineitem"].sensitive.tolist() == [False, True, False]


def test_load_dangling_sens_id(tmp_path):
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, [lineitem_row()])
    with open(tmp_path / "lineitem_sensRows.csv", "w") as fh:
        fh.write("ID,sensitive\n99,1\n")
    with pytest.raises(SchemaError, match="99"):
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))


def test_load_rejects_id_missing_from_sens_rows(tmp_path):
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS,
                [lineitem_row(), lineitem_row(), lineitem_row()])
    with open(tmp_path / "lineitem_sensRows.csv", "w") as fh:
        fh.write("ID,sensitive\n1,0\n")
    with pytest.raises(SchemaError, match="ID '2'"):
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))


def test_load_is_linear_in_rows(tmp_path):
    rows = [lineitem_row(qty=i % 50, sd=float(i % 300)) for i in range(20_000)]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    t0 = time.perf_counter()
    db = load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))
    assert time.perf_counter() - t0 < 5.0
    assert len(db.tables["lineitem"].ids) == 20_000


def test_load_missing_file(tmp_path):
    with pytest.raises(SchemaError, match="missing data file"):
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))


def test_load_type_mismatch(tmp_path):
    rows = [lineitem_row()]
    rows[0][0] = "notanumber"
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    with pytest.raises(SchemaError, match="l_quantity"):
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))


def test_load_converts_iso_dates(tmp_path):
    rows = [lineitem_row()]
    rows[0][6] = "1980-02-01"
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    db = load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))
    assert db.tables["lineitem"].columns["l_shipdateG"][0] == 1.0


def test_load_rejects_sens_id_listed_twice(tmp_path):
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, [lineitem_row(), lineitem_row()])
    with open(tmp_path / "lineitem_sensRows.csv", "w") as fh:
        fh.write("ID,sensitive\n1,1\n2,0\n1,0\n")
    with pytest.raises(SchemaError, match="ID '1' is listed twice"):
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))


@pytest.mark.parametrize("record,fields", [("1", 1), ("1,1,0", 3)])
def test_load_rejects_sens_record_of_wrong_width(tmp_path, record, fields):
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, [lineitem_row()])
    with open(tmp_path / "lineitem_sensRows.csv", "w") as fh:
        fh.write(f"ID,sensitive\n{record}\n")
    with pytest.raises(SchemaError, match=f"row width mismatch: .* has {fields} fields, the header 2"):
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))


def test_load_rejects_sens_flag_other_than_0_or_1(tmp_path):
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, [lineitem_row(), lineitem_row()])
    with open(tmp_path / "lineitem_sensRows.csv", "w") as fh:
        fh.write("ID,sensitive\n1,1\n2,yes\n")
    with pytest.raises(SchemaError, match="must be 0 or 1, got 'yes'"):
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))


def _cell_by_cell(value: str, ty: str, table: str, col: str):
    """Reference reading of one cell: each cell on its own, as the loader
    once read every cell."""
    if ty == "text":
        return value
    try:
        if ty == "int":
            return float(int(value))
        if ty == "real":
            return float(value)
        try:
            return float(value)
        except ValueError:
            return date_to_months(value)
    except (ValueError, SchemaError) as exc:
        raise SchemaError(f"{table}.{col}: cannot read '{value}' as {ty}: {exc}") from None


_TRICKY_SCHEMA = """\
table t
col i int
col r real
col d date-months
col n date-months
col s text
"""

# one column per schema column; `d` mixes ISO dates with plain numbers
_TRICKY = {
    "i": [" 7", "+3", "1_000", "-0", "9007199254740993", "-12", "0"],
    "r": ["1e308", "nan", " 7", "+3", "1_000", "-0", "9007199254740993"],
    "d": ["12.5", "1980-02-01", "-0", "2020-12-31", " 7", "1e308", "1980-01-16"],
    "n": ["-0", "1e-320", "+3", "1_000", "nan", "230.3", "9007199254740993"],
    "s": ["a,b", " x ", 'say "hi"', "", "1e308", "-0", "c,d,e"],
}


def _write_tricky(dirpath, cells: dict[str, list[str]]) -> None:
    n = len(next(iter(cells.values())))
    with open(os.path.join(dirpath, "t.csv"), "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["ID", *cells])
        out.writerows([str(k + 1), *(cells[c][k] for c in cells)] for k in range(n))
    with open(os.path.join(dirpath, "t_sensRows.csv"), "w") as fh:
        fh.write("ID,sensitive\n" + "".join(f"{k + 1},{k % 2}\n" for k in range(n)))


def test_load_matches_cell_by_cell_reading_bit_for_bit(tmp_path):
    _write_tricky(str(tmp_path), _TRICKY)
    schema = parse_schema(_TRICKY_SCHEMA)
    td = load_database(str(tmp_path), schema).tables["t"]
    assert list(td.columns) == ["i", "r", "d", "n", "s"]
    assert td.ids.tolist() == [str(k + 1) for k in range(7)]
    assert td.sensitive.tolist() == [k % 2 == 1 for k in range(7)]
    for col, ty in schema.tables["t"].columns:
        got = td.columns[col].tolist()
        want = [_cell_by_cell(v, ty, "t", col) for v in _TRICKY[col]]
        if ty == "text":
            assert td.columns[col].dtype == object
            assert got == want and all(type(v) is str for v in got)
        else:
            assert td.columns[col].dtype == np.float64
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want], col


@pytest.mark.parametrize("col,bad", [
    ("i", "1.5"), ("i", "1e3"), ("i", ""), ("r", "abc"), ("r", ""),
    ("d", "2020-13-01"), ("d", "2020-ab-01"), ("n", "12/05/2020"),
])
def test_load_names_the_bad_cell(tmp_path, col, bad):
    cells = {c: list(v) for c, v in _TRICKY.items()}
    cells[col][4] = bad
    _write_tricky(str(tmp_path), cells)
    ty = dict(parse_schema(_TRICKY_SCHEMA).tables["t"].columns)[col]
    with pytest.raises(SchemaError) as err:
        _cell_by_cell(bad, ty, "t", col)
    with pytest.raises(SchemaError) as got:
        load_database(str(tmp_path), parse_schema(_TRICKY_SCHEMA))
    assert str(got.value) == str(err.value)
    assert f"t.{col}: cannot read '{bad}'" in str(got.value)


def test_load_names_an_int_cell_too_large_for_a_double(tmp_path):
    cells = {c: list(v) for c, v in _TRICKY.items()}
    cells["i"][2] = "1" + "0" * 400
    _write_tricky(str(tmp_path), cells)
    with pytest.raises(SchemaError, match="t.i: cannot read '10000"):
        load_database(str(tmp_path), parse_schema(_TRICKY_SCHEMA))


def test_load_reads_past_blank_records_in_long_files(tmp_path):
    # longer than several read blocks, with more blank lines in a row than a block holds
    lines = [f"{k},{k * 0.5}" for k in range(1, 1201)]
    lines[700:700] = [""] * 1500
    (tmp_path / "t.csv").write_text("ID,a\n" + "\n".join(lines) + "\n")
    (tmp_path / "t_sensRows.csv").write_text(
        "ID,sensitive\n" + "".join(f"{k},{k % 3 == 0:d}\n" for k in range(1200, 0, -1)))
    td = load_database(str(tmp_path), parse_schema("table t\ncol a real\n")).tables["t"]
    assert td.ids.tolist() == [str(k) for k in range(1, 1201)]
    assert td.columns["a"].tolist() == [k * 0.5 for k in range(1, 1201)]
    assert td.sensitive.tolist() == [k % 3 == 0 for k in range(1, 1201)]


def test_loaded_arrays_are_read_only(tmp_path):
    _write_tricky(str(tmp_path), _TRICKY)
    td = load_database(str(tmp_path), parse_schema(_TRICKY_SCHEMA)).tables["t"]
    for arr, value in [(td.columns["r"], 1.0), (td.columns["s"], "x"),
                       (td.ids, "9"), (td.sensitive, True)]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = value


def test_load_empty_table(tmp_path):
    _write_tricky(str(tmp_path), {c: [] for c in _TRICKY})
    td = load_database(str(tmp_path), parse_schema(_TRICKY_SCHEMA)).tables["t"]
    assert len(td.ids) == len(td.sensitive) == 0
    assert all(len(a) == 0 for a in td.columns.values())
    assert td.columns["s"].dtype == object and td.columns["i"].dtype == np.float64


@pytest.mark.parametrize("name", ["lineitem.csv", "lineitem_sensRows.csv"])
@pytest.mark.parametrize("why", ["Is a directory", "Permission denied"])
def test_load_names_a_file_it_cannot_open(tmp_path, monkeypatch, capsys, name, why):
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, [lineitem_row()])
    path = str(tmp_path / name)
    if why == "Is a directory":
        os.remove(path)
        os.mkdir(path)
    else:
        # a file without read permission, which the superuser could still read
        def unreadable(file, *args, **kwargs):
            if file == path:
                raise PermissionError(13, why, file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(sf, "open", unreadable, raising=False)
    with pytest.raises(SchemaError) as err:
        load_database(str(tmp_path), parse_schema(LINEITEM_SCHEMA))
    assert str(err.value) == f"{path}: {why}"

    (tmp_path / "schema.txt").write_text(LINEITEM_SCHEMA)
    (tmp_path / "q.sql").write_text("SELECT sum(l_quantity) FROM lineitem")
    code = cli_main(["run", "--query", str(tmp_path / "q.sql"), "--schema",
                     str(tmp_path / "schema.txt"), "--data", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {why}\n"


def _keyed_mask(path: str, ids: list[str], listed: list[str], flags: list[str]):
    """The flags by ID lookup, with the loader's messages: the mask for
    the table's IDs `ids` from a sensRows file listing `listed`."""
    known = set(ids)
    for i in listed:
        if i not in known:
            return f"{path}: sensRows ID '{i}' not present in t.csv"
    for f in flags:
        if f not in ("0", "1"):
            return f"{path}: sensitive flag must be 0 or 1, got '{f}'"
    for k, i in enumerate(listed):
        if i in listed[:k]:
            return f"{path}: sensRows ID '{i}' is listed twice"
    flag_of = dict(zip(listed, flags))
    for i in ids:
        if i not in flag_of:
            return f"{path}: no sensitive flag for ID '{i}' of t.csv"
    return [flag_of[i] == "1" for i in ids]


@st.composite
def _sens_rows(draw):
    """(table IDs, listed IDs, flags): in table order or shuffled, with or
    without one defect."""
    ids = draw(st.lists(st.sampled_from(["1", "2", "9", "10", "11", "a", "b b"]),
                        unique=True, max_size=6))
    listed = list(ids) if draw(st.booleans()) else draw(st.permutations(ids))
    flags = draw(st.lists(st.sampled_from(["0", "1"]), min_size=len(listed),
                          max_size=len(listed)))
    defect = draw(st.sampled_from(["none", "twice", "missing", "unknown", "flag"]))
    at = draw(st.integers(0, max(len(listed) - 1, 0)))
    if defect == "twice" and listed:
        listed.insert(at, listed[-1])
        flags.insert(at, "1")
    elif defect == "missing" and listed:
        del listed[at], flags[at]
    elif defect == "unknown":
        listed.insert(at, "99")
        flags.insert(at, "0")
    elif defect == "flag" and listed:
        flags[at] = draw(st.sampled_from(["yes", "2", " 1", ""]))
    return ids, listed, flags


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sens_rows())
@example((["10", "9"], ["10", "9"], ["1", "yes"]))  # in table order, a bad flag
def test_load_mask_in_table_order_matches_keyed_lookup(case):
    ids, listed, flags = case
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "t.csv"), "w") as fh:
            fh.write("ID,a\n" + "".join(f"{i},{k}\n" for k, i in enumerate(ids)))
        path = os.path.join(d, "t_sensRows.csv")
        with open(path, "w") as fh:
            fh.write("ID,sensitive\n" + "".join(f"{i},{f}\n" for i, f in zip(listed, flags)))
        want = _keyed_mask(path, ids, listed, flags)
        try:
            mask = load_database(d, parse_schema("table t\ncol a int\n")).tables["t"].sensitive
        except SchemaError as exc:
            assert str(exc) == want
        else:
            assert mask.dtype == bool and not mask.flags.writeable
            assert mask.tolist() == want


# ---------------------------------------------------------------------------
# validation and atom classification
# ---------------------------------------------------------------------------


def _b1_1_ctx():
    schema = parse_schema(LINEITEM_SCHEMA)
    q = parse_query(
        "SELECT sum(l_quantity) FROM lineitem WHERE l_shipdateG <= 200.3 "
        "AND l_returnflag = 'R' AND l_linestatus = 'F'"
    )
    return validate(q, schema)


def test_validate_splits_public_and_sensitive():
    ctx = _b1_1_ctx()
    pub = sf.print_pred(ctx.public_pred)
    assert "l_returnflag" in pub and "l_linestatus" in pub
    res = sf.print_pred(ctx.residual_pred)
    assert "l_shipdateG" in res and "returnflag" not in res


def test_validate_constant_predicate_is_public():
    schema = parse_schema(LINEITEM_SCHEMA)
    q = parse_query("SELECT sum(l_quantity) FROM lineitem WHERE 1 < 2")
    ctx = validate(q, schema)
    assert isinstance(ctx.residual_pred, TruePred)


def test_validate_like_on_numeric_column_fails():
    schema = parse_schema(LINEITEM_SCHEMA)
    q = parse_query("SELECT sum(l_quantity) FROM lineitem WHERE l_quantity LIKE 'x%'")
    with pytest.raises(SchemaError, match="text column"):
        validate(q, schema)


def test_validate_classification_stable_under_reassociation():
    schema = parse_schema(LINEITEM_SCHEMA)
    a = "l_shipdateG <= 200.3"
    b = "l_returnflag = 'R'"
    c = "l_linestatus = 'F'"
    forms = [
        f"({a} AND {b}) AND {c}",
        f"{a} AND ({b} AND {c})",
        f"({a}) AND ({b}) AND ({c})",
    ]
    outs = set()
    for w in forms:
        ctx = validate(parse_query(f"SELECT sum(l_quantity) FROM lineitem WHERE {w}"), schema)
        outs.add((sf.print_pred(ctx.public_pred), sf.print_pred(ctx.residual_pred)))
    assert len(outs) == 1


@pytest.mark.parametrize("select, where", [
    (ColRef("", "l_quantity"),
     Cmp("=", sf.CaseWhen(Cmp(">", ColRef("", "l_quantity"), Number(25.0)), Number(1.0),
                          Number(0.0)), Number(1.0))),
    (None, BoolOp("or", (Cmp("=", ColRef("", "l_returnflag"), StrLit("R")),
                         sf.BoolCol(ColRef("lineitem", "l_discount"))))),
    (sf.SubQuery(sf.parse_emitted("SELECT max(l_quantity) FROM lineitem")), TruePred()),
], ids=["case", "bare-column", "subquery"])
def test_validate_rejects_nodes_outside_the_query_language(select, where):
    q = QuerySpec("COUNT" if select is None else "SUM", select, (("lineitem", "lineitem"),), where)
    with pytest.raises(SchemaError, match="is not part of the query language"):
        validate(q, parse_schema(LINEITEM_SCHEMA))


@pytest.mark.parametrize("col", ["li.l_quantity", "l_quantity"], ids=["qualified", "unqualified"])
@pytest.mark.parametrize("form", [
    "{c} * 2.0 + l_tax > 30.0",
    "abs({c} - 20.0) < 5.0",
    "{c} BETWEEN 10.0 AND 20.0",
    "{c} IN (1.0, 2.0, 3.0)",
    "NOT {c} < 24.0",
    "{c} < 24.0 OR l_linestatus = 'F'",
    "l_tax > 0.05 XOR {c} < 24.0",
], ids=["arithmetic", "function", "between", "in", "not", "or", "xor"])
def test_validate_puts_each_filter_on_a_sensitive_column_in_the_residual(form, col):
    sql = ("SELECT sum(l_extendedprice) FROM lineitem AS li "
           f"WHERE l_returnflag = 'R' AND ({form.format(c=col)})")
    ctx = validate(parse_query(sql), parse_schema(LINEITEM_SCHEMA))
    assert ctx.public_pred == Cmp("=", ColRef("li", "l_returnflag"), StrLit("R"))
    residual = sf._flatten_and(ctx.residual_pred)
    assert residual and len(residual) + 1 == len(sf._flatten_and(ctx.query.where))
    refs = [*sf._walk_refs(ctx.query.select), *sf._walk_refs(ctx.query.where)]
    assert all(r.table == "li" and ctx.refs[r.name].alias == "li" for r in refs)
    assert {r.name for r in refs} == set(ctx.refs)


def test_validate_rejects_sensitive_self_join():
    schema = parse_schema(LINEITEM_SCHEMA)
    q = parse_query("SELECT sum(a.l_quantity) FROM lineitem AS a, lineitem AS b")
    with pytest.raises(SchemaError, match="self-join"):
        validate(q, schema)


def test_validate_allows_insensitive_self_join():
    schema = parse_schema(LINEITEM_SCHEMA + "\ntable nation\ncol n_key int\ncol n_name text\n")
    q = parse_query(
        "SELECT sum(l_quantity) FROM lineitem, nation AS n1, nation AS n2 "
        "WHERE n1.n_name = 'A' AND n2.n_name = 'B'"
    )
    ctx = validate(q, schema)
    assert set(ctx.aliases) == {"lineitem", "n1", "n2"}


def test_validate_ambiguous_column():
    schema = parse_schema("table t\ncol a real\ntable u\ncol a real\n")
    q = parse_query("SELECT sum(a) FROM t, u")
    with pytest.raises(SchemaError, match="ambiguous"):
        validate(q, schema)


def test_validate_text_in_select_fails():
    schema = parse_schema(LINEITEM_SCHEMA)
    q = parse_query("SELECT sum(l_returnflag) FROM lineitem")
    with pytest.raises(SchemaError, match="text column"):
        validate(q, schema)


def test_is_integer_expr():
    schema = parse_schema("table t\ncol i int\ncol r real\n")
    refs = validate(parse_query("SELECT sum(i + r) FROM t"), schema).refs
    assert sf.expr_precision(ColRef("t", "i"), refs) == 1.0
    assert sf.expr_precision(BinOp("+", ColRef("t", "i"), Number(3.0)), refs) == 1.0
    assert sf.expr_precision(ColRef("t", "r"), refs) != 1.0
    assert sf.expr_precision(BinOp("/", ColRef("t", "i"), Number(2.0)), refs) != 1.0


def test_load_rejects_duplicate_ids(tmp_path):
    with open(tmp_path / "t.csv", "w") as fh:
        fh.write("ID,a\n1,2.0\n1,3.0\n")
    with open(tmp_path / "t_sensRows.csv", "w") as fh:
        fh.write("ID,sensitive\n1,1\n")
    with pytest.raises(SchemaError, match="duplicate"):
        load_database(str(tmp_path), parse_schema("table t\ncol a real\n"))


def test_declared_precision_parses():
    schema = parse_schema("table t\ncol price real 100\ncol q int\nnorm lp 1.0 price q\n")
    ts = schema.tables["t"]
    assert ts.column_precision("price") == 100.0
    assert ts.column_precision("q") == 1.0
    with pytest.raises(SchemaError, match="real"):
        parse_schema("table t\ncol name text 10\n")


def test_expr_precision_rules():
    schema = parse_schema("table t\ncol i int\ncol p real 100\ncol r real\n")
    refs = validate(parse_query("SELECT sum(i + p + r) FROM t"), schema).refs
    assert sf.expr_precision(ColRef("t", "i"), refs) == 1.0
    assert sf.expr_precision(ColRef("t", "p"), refs) == 100.0
    assert sf.expr_precision(ColRef("t", "r"), refs) is None
    assert sf.expr_precision(Number(2.5), refs) == 10.0
    assert sf.expr_precision(
        BinOp("+", ColRef("t", "i"), ColRef("t", "p")), refs) == 100.0
    assert sf.expr_precision(
        BinOp("*", ColRef("t", "p"), ColRef("t", "p")), refs) == 10000.0
