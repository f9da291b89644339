"""The CSV loader paths agree: numpy's C text reader (`sqlfront._loadtxt`,
one np.loadtxt call per table file), the split reader of sensRows files
(`sqlfront._split_flags`) and the csv-module path both fall back to.

Every generated data directory is loaded twice, once as `load_database`
reads it and once with both fast paths switched off.  Both must give
identical arrays (float bits, signs of zero and NaN, dtype, read-only flag)
or the same error; so no fast path accepts a file the csv path rejects."""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dersens import sqlfront as sf
from dersens.sqlfront import load_database, parse_schema

COLUMN_TYPES = ("int", "real", "date-months", "text")

NUMERIC_CELLS = [
    "0", "7", " 7", "7 ", "\t7", "+3", "-0", "-0.0", "1.0", "1_000", "1e3", "1e308", "1e309",
    "-1e308", "1e-320", "5e-324", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "0x10",
    "007", "٣", "\xa07", "1980-02-01", "2020-12-31", "2020-13-01", "", " ", "abc",
    str(2**53 + 1), str(-(2**53) - 1), str(2**63 - 1), str(2**63), str(-(2**63)),
    str(-(2**63) - 1), "1" + "0" * 30, "9" * 400,
]
TEXT_CELLS = ["", "x", " x ", "a,b", 'say "hi"', '"', "line\nbreak", "cr\rlf", "#c", "1e308",
              "-0", "\t", " ", "\x0c"]

# Half the datasets are plain: every cell and line is one the C reader can
# take, so that many go through it whole.  The other half also draw tricky
# cells, odd IDs and flags, CRLF line ends, whitespace-only lines and
# records of the wrong width.
plain_int_cell = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.sampled_from(["-0", "+3", " 7", "7 ", "007"]),
)
plain_numeric_cell = st.one_of(
    plain_int_cell,
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.3g}"),
    st.sampled_from(["1e308", "1e309", "1e-320", "-nan", "Infinity", " 2.5 "]),
)
tricky_numeric_cell = st.one_of(
    plain_numeric_cell,
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(NUMERIC_CELLS),
)
plain_text_cell = st.text(alphabet=st.sampled_from(list("abx -1.#'\t")), max_size=6)
tricky_text_cell = st.one_of(
    plain_text_cell,
    st.text(alphabet=st.sampled_from(list("ab ,\"\n\r#'\t-1.")), max_size=6),
    st.sampled_from(TEXT_CELLS),
)


@st.composite
def datasets(draw):
    """(schema text, <table>.csv text, <table>_sensRows.csv text)."""
    types = draw(st.lists(st.sampled_from(COLUMN_TYPES), min_size=1, max_size=4))
    tricky = draw(st.booleans())
    cell = {"int": tricky_numeric_cell if tricky else plain_int_cell,
            "real": tricky_numeric_cell if tricky else plain_numeric_cell,
            "date-months": tricky_numeric_cell if tricky else plain_numeric_cell,
            "text": tricky_text_cell if tricky else plain_text_cell}
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    rows = []
    for k in range(n):
        ident = draw(st.sampled_from([str(k + 1)] * 8 + ["1", " 2", "a,b", "x"])) if tricky \
            else str(k + 1)
        cells = [draw(cell[ty]) for ty in types]
        edit = draw(st.sampled_from(["none"] * 20 + ["drop", "extra"])) if tricky else "none"
        if edit == "drop":
            cells = cells[:-1]
        elif edit == "extra":
            cells = cells + ["0"]
        rows.append([ident, *cells])
    eol = draw(st.sampled_from(["\n", "\r\n"])) if tricky else "\n"
    schema = "table t\n" + "".join(f"col c{j} {ty}\n" for j, ty in enumerate(types))
    header = ["ID", *(f"c{j}" for j in range(len(types)))]
    table = _csv_text(draw, header, rows, eol, tricky)
    ids = [r[0] for r in rows]
    listed = draw(st.permutations(ids)) if ids else []
    edit = draw(st.sampled_from(["none"] * 4 + ["drop", "twice", "unknown"])) if tricky else "none"
    if edit == "drop" and listed:
        listed = listed[1:]
    elif edit == "twice" and listed:
        listed = listed + listed[:1]
    elif edit == "unknown":
        listed = listed + ["99"]
    flag = st.sampled_from(["0", "1"] * 6 + [" 1", "yes", ""] if tricky else ["0", "1"])
    sens = _csv_text(draw, ["ID", "sensitive"], [[i, draw(flag)] for i in listed], eol, tricky)
    return schema, table, sens


def _csv_text(draw, header: list[str], rows: list[list[str]], eol: str, tricky: bool) -> str:
    """The records written by csv.writer (quoting where needed), with blank
    lines (and whitespace-only ones if `tricky`) drawn in between and the
    last line end sometimes left off."""
    def line(record):
        out = io.StringIO()
        csv.writer(out, lineterminator=eol).writerow(record)
        return out.getvalue()

    text = line(header)
    for record in rows:
        text += draw(st.sampled_from([""] * 8 + [eol, eol * 3] + ["  " + eol] * tricky))
        text += line(record)
    if draw(st.booleans()) and text.endswith(eol):
        text = text[: -len(eol)]
    return text


def _outcome(data_dir: str, schema_text: str, reads):
    """('ok', {name: (dtype, writeable, values)}) or ('error', type, message)."""
    try:
        td = load_database(data_dir, parse_schema(schema_text), reads).tables["t"]
    except Exception as exc:  # any error: the two paths must raise the same one
        return ("error", type(exc), str(exc))
    arrays = {f"column {c}": a for c, a in td.columns.items()}
    arrays.update(ids=td.ids, sensitive=td.sensitive)
    return ("ok", {name: _bits(a) for name, a in arrays.items()})


def _bits(a: np.ndarray):
    if a.dtype == np.float64:
        values = [(float.hex(v), math.copysign(1.0, v)) for v in a.tolist()]
    else:
        values = [(type(v), v) for v in a.tolist()]
    return a.dtype, a.flags.writeable, a.flags.c_contiguous, values


def _both_paths(schema_text: str, table: str, sens: str, reads=None):
    with tempfile.TemporaryDirectory() as d:
        for name, text in (("t.csv", table), ("t_sensRows.csv", sens)):
            with open(os.path.join(d, name), "w", newline="") as fh:
                fh.write(text)
        fast = _outcome(d, schema_text, reads)
        with mock.patch.object(sf, "_loadtxt", lambda *args: None), \
                mock.patch.object(sf, "_split_flags", lambda path: None):
            reference = _outcome(d, schema_text, reads)
    return fast, reference


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets())
def test_c_reader_and_csv_module_load_the_same(data):
    fast, reference = _both_paths(*data)
    assert fast == reference


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets(), st.data())
def test_pruned_reads_load_the_same_on_both_paths(data, draw):
    # a random subset of the columns: np.loadtxt then reads fewer fields
    # than a record has, and must still refuse every file the csv path does
    schema_text = data[0]
    names = [line.split()[1] for line in schema_text.splitlines() if line.startswith("col ")]
    reads = {"t": draw.draw(st.lists(st.sampled_from(names), unique=True))}
    fast, reference = _both_paths(*data, reads)
    assert fast == reference
    if fast[0] == "ok":
        assert [k for k in fast[1] if k.startswith("column ")] == \
            [f"column {c}" for c in names if c in reads["t"]]


@pytest.mark.parametrize("table, reads", [
    ("ID,c0\n1,0\n2,0,0\n", None),
    ("ID,c0,c1\n1,0,0\n2,0,0,0\n", {"t": ["c0"]}),
    ("ID,c0,c1\n1,0,0,0\n2,0\n", {"t": []}),
    ("ID,c0,c1\n1,0\n2,0,0,0\n", {"t": ["c0"]}),
], ids=["every-field", "first-field", "ids-only", "short-then-long"])
def test_the_usecols_width_hole_stays_closed(table, reads):
    # given usecols, np.loadtxt reads a record with an extra field as if it
    # had none; the csv path refuses it
    columns = table.partition("\n")[0].split(",")[1:]
    schema_text = "table t\n" + "".join(f"col {c} int\n" for c in columns)
    fast, reference = _both_paths(schema_text, table, "ID,sensitive\n1,0\n2,1\n", reads)
    assert fast == reference and fast[0] == "error"
    assert "row width mismatch" in fast[2]


def test_unread_tables_and_cells_are_not_checked(tmp_path):
    # a bad cell in an unread column and a missing file of an unread table
    # raise no error; the same cell in a column that is read does
    (tmp_path / "t.csv").write_text("ID,a,b\n1,1.5,abc\n2,2.5,3\n")
    (tmp_path / "t_sensRows.csv").write_text("ID,sensitive\n1,1\n2,0\n")
    schema = parse_schema("table t\ncol a real\ncol b real\ntable u\ncol c real\n")
    db = load_database(str(tmp_path), schema, {"t": {"a"}})
    assert list(db.tables) == ["t"] and list(db.tables["t"].columns) == ["a"]
    assert db.tables["t"].columns["a"].tolist() == [1.5, 2.5]
    with pytest.raises(sf.SchemaError, match="t.b: cannot read 'abc' as real"):
        load_database(str(tmp_path), schema, {"t": {"b"}})
    with pytest.raises(sf.SchemaError, match="missing data file .*u.csv"):
        load_database(str(tmp_path), schema, {"t": {"a"}, "u": set()})


# ---------------------------------------------------------------------------
# which files take which path
# ---------------------------------------------------------------------------

_SCHEMA = "table t\ncol i int\ncol r real\ncol d date-months\ncol s text\n"
_HEADER = ["ID", "i", "r", "d", "s"]
_TYPES = ["text", "int", "real", "date-months", "text"]


def _loadtxt_of(tmp_path, text: str, usecols=(0, 1, 2, 3, 4)):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    return sf._loadtxt(str(path), _HEADER, _TYPES, list(usecols))


def test_plain_files_take_the_c_reader(tmp_path):
    text = ("ID,i,r,d,s\n1, 7,-0,12.5,a b\n\n2,+3,1e-320,nan, x \n"
            f"3,{2**63 - 1},1e308,-inf,#c\n")
    records = _loadtxt_of(tmp_path, text)
    assert records is not None and len(records) == 3
    fast, reference = _both_paths(_SCHEMA, text, "ID,sensitive\n3,1\n1,0\n2,1\n")
    assert fast == reference and fast[0] == "ok"


@pytest.mark.parametrize("text", [
    "ID,i,r,d,s\r\n1,7,1.5,2,x\r\n",          # CRLF line ends
    'ID,i,r,d,s\n1,7,1.5,2,"x"\n',            # a quote
    "ID,i,r,d,s\n1,7,1.5,2,a\0b\n",           # NUL
    "ID,i,r,e,s\n1,7,1.5,2,x\n",              # not the schema's header
    "ID,i,r,d,s\n",                           # no records
    "ID,i,r,d,s\n1,7,1.5,1980-02-01,x\n",     # an ISO date
    "ID,i,r,d,s\n1,1.0,1.5,2,x\n",            # a float in an int column
    "ID,i,r,d,s\n1,1_000,1.5,2,x\n",          # an underscore
    f"ID,i,r,d,s\n1,{2**63},1.5,2,x\n",       # an int beyond int64
    "ID,i,r,d,s\n1,7,,2,x\n",                 # an empty cell
    "ID,i,r,d,s\n1,7,1.5,2\n",                # a short record
    "ID,i,r,d,s\n1,7,1.5,2,x,y\n",            # a long record
])
def test_files_the_c_reader_cannot_take_go_to_the_csv_module(tmp_path, text):
    assert _loadtxt_of(tmp_path, text) is None


@pytest.mark.parametrize("text", [
    "ID,i,r,d,s\n1,7,1.5,2\n",                # a short record
    "ID,i,r,d,s\n1,7,1.5,2,x,y\n",            # a long record
    "ID,i,r,d,s\n1,7,1.5,2,x,y\n2,7,1.5,2\n",  # one of each: the comma count adds up
    "ID,i,r,d,s\n1,7,1.5\n2,7,1.5,2,x,y,z\n",
])
def test_pruned_reads_of_records_of_the_wrong_width_go_to_the_csv_module(tmp_path, text):
    assert _loadtxt_of(tmp_path, text, (0, 2, 4)) is None


def test_pruned_reads_skip_the_cells_of_unread_fields(tmp_path):
    # `1.0` in the int field and an ISO date would each send a full read to
    # the csv path; neither field is read here
    records = _loadtxt_of(tmp_path, "ID,i,r,d,s\n1,1.0,1.5,1980-02-01,x\n", (0, 2, 4))
    assert records is not None and records.dtype.names == ("f0", "f2", "f4")


def test_lines_longer_than_the_csv_field_limit_go_to_the_csv_module(tmp_path):
    # the csv module refuses a field longer than its limit; the C reader has
    # none, so a file with a line that long must not take the C path
    text = "ID,i,r,d,s\n1,7,1.5,2," + "x" * 60 + "\n"
    old = csv.field_size_limit(40)
    try:
        assert _loadtxt_of(tmp_path, text) is None
        fast, reference = _both_paths(_SCHEMA, text, "ID,sensitive\n1,1\n")
    finally:
        csv.field_size_limit(old)
    assert fast == reference and fast[0] == "error" and fast[1] is sf.SchemaError
    assert "t.csv: field larger than field limit" in fast[2]


@pytest.mark.parametrize("length", [9, 21, 45])
def test_long_line_check(length):
    # limit 20: a line over 20 characters is always caught, and a text whose
    # lines are all under limit // 2 never is
    text = "\n".join(["a" * 3, "b" * length, "c" * 7]) + "\n"
    assert sf._may_have_long_line(text, 20) == (length > 20)


def _split_flags_of(tmp_path, text: str):
    path = tmp_path / "t_sensRows.csv"
    path.write_bytes(text.encode())
    return sf._split_flags(str(path))


def _csv_flags_of(tmp_path, text: str):
    path = tmp_path / "t_sensRows.csv"
    path.write_bytes(text.encode())
    with sf._csv_reader(str(path)) as reader:
        assert next(reader) == ["ID", "sensitive"]
        return sf._read_cells(reader, str(path), 2)


@pytest.mark.parametrize("text", [
    "ID,sensitive\n1,1\n2,0\n3,1",                 # no last line end
    "ID,sensitive\n1,1\n2,0\n3,1\n",
    "ID,sensitive\n,1\n x ,0\n#3,1\n\t,0\n",       # empty, spaced and odd IDs
])
def test_plain_sens_rows_take_the_split(tmp_path, text):
    got = _split_flags_of(tmp_path, text)
    assert got is not None and list(got) == _csv_flags_of(tmp_path, text)


@pytest.mark.parametrize("text", [
    "ID,sensitive\r\n1,1\r\n2,0\r\n",             # CRLF line ends
    "ID,sensitive\n1,1\n2\r3,0\n",                 # a carriage return in a record
    'ID,sensitive\n"1",1\n2,0\n',                  # a quoted ID
    "ID,sensitive\n1,1\n\n2,0\n",                  # a blank line in the middle
    "ID,sensitive\n\n1,1\n2,0\n",                  # a blank line first
    "ID,sensitive\n1,1\n2,0\n\n",                  # a blank line last
    "ID,sensitive\n1,1\n  \n2,0\n",                # a whitespace-only line
    "ID,sensitive\n1,1,0\n2,0\n",                  # a record with three fields
    "ID,sensitive\n1,1,0\n0\n",                    # ... and one with one: four cells
    "ID,sensitive\n1,yes\n2,0\n",                  # a flag other than 0 or 1
    "ID,sensitive\n",                              # header only
    "ID,sensitive",
    "ID,sensitive\n1,1\n2\x000,0\n",                # a NUL
    "ID,flag\n1,1\n",                              # another header
])
def test_sens_rows_the_split_cannot_take_go_to_the_csv_module(tmp_path, text):
    assert _split_flags_of(tmp_path, text) is None


def test_sens_rows_past_the_csv_field_limit_go_to_the_csv_module(tmp_path):
    text = "ID,sensitive\n" + "x" * 60 + ",1\n"
    old = csv.field_size_limit(40)
    try:
        assert _split_flags_of(tmp_path, text) is None
    finally:
        csv.field_size_limit(old)
    assert _split_flags_of(tmp_path, text) == (["x" * 60], ["1"])


def test_sens_rows_not_utf8_or_unreadable_go_to_the_csv_module(tmp_path):
    path = tmp_path / "t_sensRows.csv"
    path.write_bytes(b"ID,sensitive\n\xff,1\n")
    assert sf._split_flags(str(path)) is None
    assert sf._split_flags(str(tmp_path)) is None
