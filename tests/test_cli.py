import csv
import json
import os
import re
import shutil

import numpy as np
import pytest

from conftest import (
    B1_1_SQL,
    LINEITEM_COLS,
    LINEITEM_SCHEMA,
    TPCH_MINI_SCHEMA,
    lineitem_row,
    with_cells,
    write_table,
)
from dersens import engine as eng
from dersens import sqlfront as sf
from dersens.analyzer import PlanParams, build_plan
from dersens.cli import main


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture()
def b1_1_inputs(tmp_path):
    rows = [
        lineitem_row(qty=17, sd=100.0),
        lineitem_row(qty=36, sd=195.0),
        lineitem_row(qty=8, sd=260.0),
    ]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    schema = _write(tmp_path / "schema.txt", LINEITEM_SCHEMA)
    query = _write(tmp_path / "q.sql", B1_1_SQL)
    return query, schema, str(tmp_path)


def test_analyze_prints_sql_and_beta(b1_1_inputs, capsys):
    query, schema, _ = b1_1_inputs
    code = main(["analyze", "--query", query, "--schema", schema, "--alpha", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SELECT sum((lineitem.l_quantity" in out
    # the groups are the sensitive rows: their ID is a column of the rows read
    assert "lineitem_sensRows.ID AS g" in out and "GROUP BY r.g" in out
    assert "achieved beta: 0.1" in out
    assert "lineitem.l_shipdateG=30" in out


def test_analyze_writes_sql_files(b1_1_inputs, tmp_path, capsys):
    query, schema, _ = b1_1_inputs
    out_dir = str(tmp_path / "out")
    code = main(["analyze", "--query", query, "--schema", schema,
                 "--alpha", "0.1", "--emit-sql", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "modified.sql"))
    assert os.path.exists(os.path.join(out_dir, "sensitivity.sql"))


def test_analyze_infeasible_beta_exits_2(tmp_path, capsys):
    # a sigmoid of l_quantity (scale 1) at alpha 0.5 moves at 0.5 in log per
    # unit of the norm, above the requested beta 0.1
    schema = _write(tmp_path / "schema.txt", TPCH_MINI_SCHEMA)
    query = _write(tmp_path / "q.sql",
                   "select count(*) from lineitem where lineitem.l_quantity > 25.5;")
    code = main(["analyze", "--query", query, "--schema", schema,
                 "--alpha", "0.5", "--epsilon", "1.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "epsilon must exceed" in err
    assert "beta=0.5" in err
    # raising epsilon to (gamma + 1) * (b + beta) = 5 * (0.1 + 0.5) makes it feasible
    code = main(["analyze", "--query", query, "--schema", schema,
                 "--alpha", "0.5", "--epsilon", "3.0"])
    assert code == 0


@pytest.mark.parametrize("extra", [
    ["--epsilon", "inf"],
    ["--epsilon", "nan"],
    ["--gamma", "nan"],
    ["--gamma", "1.0001", "--seed", "3"],  # the tail draw overflows to inf
], ids=["epsilon-inf", "epsilon-nan", "gamma-nan", "gamma-overflow"])
def test_privatize_non_finite_parameters_exit_2(b1_1_inputs, capsys, extra):
    query, schema, data = b1_1_inputs
    code = main(["privatize", "--query", query, "--schema", schema, "--data", data,
                 "--alpha", "0.1", "--json", *extra])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == "" and "finite" in out.err


@pytest.mark.parametrize("old, new", [
    (b",R,F,100.0", b",R\xff,F,100.0"),      # not UTF-8
    (b",R,", b",R" + b"x" * 140_000 + b","),  # over the csv module's field limit
], ids=["not-utf8", "long-cell"])
def test_run_unreadable_data_exits_1(b1_1_inputs, capsys, old, new):
    query, schema, data = b1_1_inputs
    path = os.path.join(data, "lineitem.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    assert old in raw
    with open(path, "wb") as fh:
        fh.write(raw.replace(old, new, 1))
    code = main(["run", "--query", query, "--schema", schema, "--data", data, "--json"])
    assert code == 1
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "run", "privatize", "bench"])
@pytest.mark.parametrize("flag, value", [
    ("--beta", "nan"), ("--beta", "inf"), ("--beta", "-0.1"), ("--beta", "0"),
    ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "0"),
])
def test_bad_beta_or_alpha_exits_1(b1_1_inputs, capsys, tmp_path, command, flag, value):
    query, schema, data = b1_1_inputs
    args = [command, "--query", query, "--schema", schema]
    if command == "bench":
        args = ["bench", "--rows", "20", "--data", str(tmp_path / "bench")]
    elif command != "analyze":
        args += ["--data", data]
    code = main([*args, "--json", f"{flag}={value}"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == "" and f"{flag} must be a positive finite number" in out.err


@pytest.mark.parametrize("which", ["schema", "query", "norm"])
def test_analyze_input_file_not_utf8_exits_1(b1_1_inputs, capsys, tmp_path, which):
    query, schema, _ = b1_1_inputs
    paths = {"schema": schema, "query": query, "norm": _write(tmp_path / "norm.txt", "")}
    with open(paths[which], "ab") as fh:
        fh.write(b"\n-- \xff\n")
    code = main(["analyze", "--query", query, "--schema", schema, "--norm", paths["norm"]])
    err = capsys.readouterr().err
    assert code == 1
    assert f"cannot read {which} file {paths[which]}" in err and "utf-8" in err


def test_run_report_with_a_non_finite_value_exits_1(b1_1_inputs, capsys):
    # a filter this steep on a column of scale 0.0001 gives beta_achieved = inf
    query, schema, data = b1_1_inputs
    _write(query, "SELECT count(*) FROM lineitem WHERE lineitem.l_extendedprice < 500.5")
    code = main(["run", "--query", query, "--schema", schema, "--data", data,
                 "--alpha", "1e308", "--json"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == "" and "the report has a non-finite value" in out.err


def test_missing_input_exits_1(tmp_path, capsys):
    code = main(["analyze", "--query", str(tmp_path / "nope.sql"),
                 "--schema", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "nope.txt" in capsys.readouterr().err  # first unreadable path is named


def test_missing_norm_file_exits_1(tmp_path, capsys):
    schema = _write(tmp_path / "schema.txt", LINEITEM_SCHEMA)
    query = _write(tmp_path / "q.sql", B1_1_SQL)
    code = main(["analyze", "--query", query, "--schema", schema,
                 "--norm", str(tmp_path / "missing_norm.txt")])
    assert code == 1
    assert "missing_norm.txt" in capsys.readouterr().err


def test_parse_error_exits_1(tmp_path, capsys):
    schema = _write(tmp_path / "schema.txt", LINEITEM_SCHEMA)
    query = _write(tmp_path / "q.sql", "SELECT avg(x) FROM lineitem")
    code = main(["analyze", "--query", query, "--schema", schema])
    assert code == 1
    assert "avg" in capsys.readouterr().err


def test_run_report_fields(b1_1_inputs, capsys):
    query, schema, data = b1_1_inputs
    code = main(["run", "--query", query, "--schema", schema, "--data", data,
                 "--alpha", "0.1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report_version"] == 1
    assert report["initial"] == 53.0
    assert 0.0 < report["modified"] < report["initial"]
    assert report["sensitivity"] == pytest.approx(1.0, abs=1e-3)
    expected = abs(report["modified"] + 10.0 * report["sensitivity"] - 53.0) / 53.0 * 100.0
    assert report["rel_error"] == pytest.approx(expected)


def test_run_exact_integer_fixture_zero_error(tmp_path, capsys):
    write_table(str(tmp_path), "t", [
        "a", "s"], [[1, "x"], [4, "x"], [9, "y"]])
    schema = _write(tmp_path / "schema.txt", "table t\ncol a int\ncol s text\n")
    query = _write(tmp_path / "q.sql", "SELECT sum(t.a) FROM t WHERE t.s = 'x'")
    code = main(["run", "--query", query, "--schema", schema,
                 "--data", str(tmp_path), "--precise", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sensitivity"] == 0.0
    assert report["rel_error"] == 0.0
    assert any("no sensitive tables" in w for w in report["warnings"])


def test_run_empty_sensitive_set_warns(tmp_path, capsys):
    rows = [lineitem_row(), lineitem_row(qty=20.0)]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows, [False, False])
    schema = _write(tmp_path / "schema.txt", LINEITEM_SCHEMA)
    query = _write(tmp_path / "q.sql", B1_1_SQL)
    code = main(["run", "--query", query, "--schema", schema,
                 "--data", str(tmp_path), "--alpha", "0.1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sensitivity"] == 0.0


def test_privatize_deterministic_and_prints_params(b1_1_inputs, capsys):
    query, schema, data = b1_1_inputs
    args = ["privatize", "--query", query, "--schema", schema, "--data", data,
            "--alpha", "0.1", "--seed", "42", "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["b"] == pytest.approx(0.1)
    assert (first["epsilon"], first["beta"], first["gamma"]) == (1.0, 0.1, 4.0)
    assert main(["run", *args[1:]]) == 0
    assert first["noised"] != json.loads(capsys.readouterr().out)["modified"]


_RELEASE_KEYS = {"report_version", "noised", "epsilon", "beta", "gamma", "b", "private"}


def test_privatize_prints_only_the_release(b1_1_inputs, capsys, monkeypatch):
    # the analyst's view (`run`) holds the exact value, the sensitivity and
    # the worst rows; a release prints none of them, and its seed only when
    # one was given
    monkeypatch.delenv("DERSENS_SEED", raising=False)
    query, schema, data = b1_1_inputs
    args = ["--query", query, "--schema", schema, "--data", data, "--alpha", "0.1", "--json"]
    assert main(["privatize", *args]) == 0
    assert set(json.loads(capsys.readouterr().out)) == _RELEASE_KEYS
    assert main(["privatize", *args, "--seed", "4"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == _RELEASE_KEYS | {"seed"}
    assert main(["run", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["private"] is False and "noised" not in report


def test_privatize_seed_from_environment(b1_1_inputs, capsys, monkeypatch):
    query, schema, data = b1_1_inputs
    args = ["privatize", "--query", query, "--schema", schema, "--data", data,
            "--alpha", "0.1", "--json"]
    monkeypatch.setenv("DERSENS_SEED", "42")
    assert main(args) == 0
    via_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("DERSENS_SEED")
    assert main(args + ["--seed", "42"]) == 0
    via_flag = json.loads(capsys.readouterr().out)
    assert via_env["noised"] == via_flag["noised"]


def test_unseeded_privatize_is_not_deterministic(b1_1_inputs, capsys, monkeypatch):
    monkeypatch.delenv("DERSENS_SEED", raising=False)
    query, schema, data = b1_1_inputs
    args = ["privatize", "--query", query, "--schema", schema, "--data", data,
            "--alpha", "0.1", "--json"]
    releases = []
    for _ in range(2):
        assert main(args) == 0
        releases.append(json.loads(capsys.readouterr().out))
    first, second = releases
    assert first["noised"] != second["noised"]
    assert "seed" not in first and "seed" not in second
    assert main(["run", *args[1:]]) == 0
    assert json.loads(capsys.readouterr().out)["sensitivity"] > 0.0
    assert main(args + ["--seed", "42"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 42


def test_privatize_marks_a_release_with_a_given_seed_as_not_private(b1_1_inputs, capsys,
                                                                    monkeypatch):
    # a seed from --seed or DERSENS_SEED can be given again to recompute the
    # noise; only a seed drawn from OS entropy makes a private release
    monkeypatch.delenv("DERSENS_SEED", raising=False)
    query, schema, data = b1_1_inputs
    args = ["privatize", "--query", query, "--schema", schema, "--data", data, "--json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["private"] is True
    assert main(args + ["--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["private"] is False
    monkeypatch.setenv("DERSENS_SEED", "3")
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["private"] is False


@pytest.mark.parametrize("command, env, flag", [
    ("privatize", None, ["--seed", "-1"]),
    ("privatize", "-5", []),
    ("bench", None, ["--seed", "-1"]),
], ids=["privatize-flag", "privatize-env", "bench-flag"])
def test_negative_seed_exits_1(b1_1_inputs, capsys, tmp_path, monkeypatch, command, env, flag):
    query, schema, data = b1_1_inputs
    if env is None:
        monkeypatch.delenv("DERSENS_SEED", raising=False)
    else:
        monkeypatch.setenv("DERSENS_SEED", env)
    args = ["privatize", "--query", query, "--schema", schema, "--data", data]
    if command == "bench":
        args = ["bench", "--rows", "20", "--data", str(tmp_path / "bench")]
    code = main([*args, "--json", *flag])
    out = capsys.readouterr()
    assert code == 1
    message = f"--seed must be non-negative, got {flag[1]}" if flag else \
        f"DERSENS_SEED must be non-negative, got {env}"
    assert out.out == "" and f"error: {message}" in out.err


def test_unseeded_bench_generates_its_data_with_seed_0(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("DERSENS_SEED", raising=False)
    for name, seed in (("unseeded", []), ("seed0", ["--seed", "0"])):
        assert main(["bench", "--rows", "50", "--json", "--data", str(tmp_path / name), *seed]) == 0
    capsys.readouterr()
    for f in ("lineitem.csv", "lineitem_sensRows.csv"):
        assert (tmp_path / "unseeded" / f).read_bytes() == (tmp_path / "seed0" / f).read_bytes()


def test_bench_small(capsys, tmp_path):
    code = main(["bench", "--rows", "300", "--alpha", "0.1", "--json",
                 "--data", str(tmp_path / "bench")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == 300
    assert report["sensitivity"] == pytest.approx(1.0, abs=1e-3)
    assert report["rel_error"] is not None


def test_bench_takes_more_than_5000_rows(capsys, tmp_path):
    code = main(["bench", "--rows", "6000", "--alpha", "0.1", "--json",
                 "--data", str(tmp_path / "bench")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == 6000
    with open(tmp_path / "bench" / "lineitem.csv") as fh:
        assert sum(1 for _ in fh) == 6001


@pytest.mark.parametrize("flag, value, code", [
    ("--rows", "0", 1),
    # bench writes its own query, schema and norm: argparse refuses these flags
    ("--query", "x", 2),
], ids=["rows-0", "query"])
def test_bench_rejects_a_bad_argument(capsys, tmp_path, flag, value, code):
    try:
        got = main(["bench", flag, value, "--data", str(tmp_path / "bench")])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "bench"])
def test_an_output_path_that_is_a_file_exits_1(b1_1_inputs, capsys, tmp_path, command):
    query, schema, _ = b1_1_inputs
    taken = _write(tmp_path / "taken", "")
    if command == "analyze":
        args = ["analyze", "--query", query, "--schema", schema, "--emit-sql", taken]
    else:
        args = ["bench", "--rows", "20", "--data", taken]
    assert main(args) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and taken in out.err


def test_privatize_zero_sensitivity_is_exact(tmp_path, capsys):
    write_table(str(tmp_path), "t", ["a", "s"], [[1, "x"], [4, "x"]])
    schema = _write(tmp_path / "schema.txt", "table t\ncol a int\ncol s text\n")
    query = _write(tmp_path / "q.sql", "SELECT sum(t.a) FROM t")
    args = ["--query", query, "--schema", schema, "--data", str(tmp_path), "--json"]
    assert main(["run", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sensitivity"] == 0.0
    assert main(["privatize", *args, "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["noised"] == report["modified"]


@pytest.fixture(scope="module")
def bench_data(tmp_path_factory):
    data = str(tmp_path_factory.mktemp("bench"))
    assert main(["bench", "--rows", "200", "--json", "--data", data]) == 0
    return data


# Filters on a sensitive column in emitted-SQL syntax, which no pass lowers
# into the smooth analysis: a release of either would not be private
_UNLOWERED_FILTERS = {
    "bare-column": "select count(*) from lineitem where lineitem.l_discount;",
    "case": "select sum(lineitem.l_quantity) from lineitem where case when "
            "lineitem.l_quantity > 25 then 1.0 else 0.0 end = 1.0;",
}


@pytest.mark.parametrize("command", ["analyze", "run", "privatize"])
@pytest.mark.parametrize("name", sorted(_UNLOWERED_FILTERS))
def test_filter_outside_the_query_language_exits_1(bench_data, tmp_path, capsys, name, command):
    query = _write(tmp_path / "q.sql", _UNLOWERED_FILTERS[name])
    args = ["--query", query, "--schema", os.path.join(bench_data, "schema.txt")]
    if command != "analyze":
        args += ["--data", bench_data, "--seed", "1", "--json"]
    capsys.readouterr()
    assert main([command, *args]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "noised" not in out


@pytest.mark.parametrize("command", ["analyze", "run", "privatize"])
@pytest.mark.parametrize("column", ["lineitem.no_such_column", "nosuch.l_quantity"])
def test_count_of_an_unknown_column_exits_1(bench_data, tmp_path, capsys, column, command):
    query = _write(tmp_path / "q.sql", f"select count({column}) from lineitem "
                                       "where lineitem.l_quantity > 25;")
    args = ["--query", query, "--schema", os.path.join(bench_data, "schema.txt")]
    if command != "analyze":
        args += ["--data", bench_data, "--seed", "1", "--json"]
    capsys.readouterr()
    assert main([command, *args]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "noised" not in out


def _set_cell(path, row: int, column: str, value: str) -> None:
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    records[row][records[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(records)


@pytest.mark.parametrize("defect", ["bad-cell", "missing-table"])
def test_a_defect_only_in_data_the_query_does_not_read_leaves_run_at_exit_0(
        bench_data, tmp_path, capsys, defect):
    # load_database reads only the query's tables and columns: a defect
    # elsewhere cannot move the output, and the same defect where the query
    # reads it still exits 1
    data = str(shutil.copytree(bench_data, tmp_path / "data"))
    schema = os.path.join(data, "schema.txt")
    b1_1 = ["run", "--query", os.path.join(data, "b1_1.sql"), "--schema", schema,
            "--data", data, "--json"]
    assert main(b1_1) == 0
    clean = capsys.readouterr().out
    if defect == "bad-cell":
        _set_cell(os.path.join(data, "lineitem.csv"), 3, "l_tax", "abc")
        reads, named = "select sum(lineitem.l_tax) from lineitem;", "lineitem.l_tax"
    else:
        os.remove(os.path.join(data, "part.csv"))
        reads, named = "select count(*) from part;", "part.csv"
    assert main(b1_1) == 0
    assert capsys.readouterr().out == clean
    query = _write(tmp_path / "q.sql", reads)
    assert main(["run", "--query", query, "--schema", schema, "--data", data, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and named in err


def test_a_column_that_cancels_has_sensitivity_0(bench_data, tmp_path, capsys):
    # every coefficient of l_quantity - l_quantity is 0: a data constant, not
    # an affine leaf with an infinite rate budget
    query = _write(tmp_path / "q.sql", "select sum((lineitem.l_quantity - lineitem.l_quantity)"
                                       " * lineitem.l_quantity) from lineitem;")
    args = ["--query", query, "--schema", os.path.join(bench_data, "schema.txt")]
    capsys.readouterr()
    assert main(["analyze", *args]) == 0
    assert "SELECT max(sdsg)" in capsys.readouterr().out
    assert main(["run", *args, "--data", bench_data, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sensitivity"] == 0.0


# Subexpressions over public columns only that no smooth-bound rule covers
_PUBLIC_SUBEXPRESSIONS = {
    "ln": "select sum(ln(lineitem.l_orderkey)) from lineitem;",
    "negative_power": "select sum(lineitem.l_orderkey ^ -1.0) from lineitem;",
    "exp_factor": "select sum(lineitem.l_quantity * exp(0.001 * lineitem.l_orderkey))"
                  " from lineitem;",
}


@pytest.mark.parametrize("name", sorted(_PUBLIC_SUBEXPRESSIONS))
def test_a_public_subexpression_is_a_data_constant(bench_data, tmp_path, capsys, name):
    sql = _PUBLIC_SUBEXPRESSIONS[name]
    schema_path = os.path.join(bench_data, "schema.txt")
    args = ["--query", _write(tmp_path / "q.sql", sql), "--schema", schema_path]
    assert main(["analyze", *args]) == 0
    assert main(["privatize", *args, "--data", bench_data, "--seed", "1", "--json"]) == 0
    capsys.readouterr()
    assert main(["run", *args, "--data", bench_data, "--json"]) == 0
    sensitivity = json.loads(capsys.readouterr().out)["sensitivity"]
    if name != "exp_factor":
        assert sensitivity == 0.0
        return
    # the largest derivative of the modified query in one sensitive row's
    # l_quantity, by central differences in the engine, per unit of its norm
    with open(schema_path) as fh:
        schema = sf.parse_schema(fh.read())
    db = sf.load_database(bench_data, schema)
    plan = build_plan(sf.validate(sf.parse_query(sql), schema), PlanParams())
    tp, = plan.table_plans
    scale = tp.scales["lineitem.l_quantity"]
    quantity = db.tables["lineitem"].columns["l_quantity"]
    h, fd = 1e-3, 0.0
    for row in np.flatnonzero(db.tables["lineitem"].sensitive):
        hi, lo = (with_cells(db, "lineitem", row, {"l_quantity": quantity[row] + dq})
                  for dq in (h, -h))
        diff = eng.run_modified(plan, hi) - eng.run_modified(plan, lo)
        fd = max(fd, abs(diff) / (2 * h) / scale)
    assert fd > 0.0
    assert sensitivity >= fd * (1 - 1e-6)


# Subexpressions over sensitive columns that no smooth-bound rule covers
_SENSITIVE_REFUSALS = {
    "division": "select sum(lineitem.l_extendedprice / lineitem.l_quantity) from lineitem;",
    "ln": "select sum(ln(lineitem.l_quantity)) from lineitem;",
}


@pytest.mark.parametrize("name", sorted(_SENSITIVE_REFUSALS))
def test_a_refusal_names_only_remedies_the_tool_takes(bench_data, tmp_path, capsys, name):
    query = _write(tmp_path / "q.sql", _SENSITIVE_REFUSALS[name])
    capsys.readouterr()
    assert main(["analyze", "--query", query,
                 "--schema", os.path.join(bench_data, "schema.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "public columns" in err
    assert "logarithmic" not in err  # the norm grammar has no such metric


@pytest.mark.parametrize("command", ["analyze", "run"])
@pytest.mark.parametrize("text", [
    "sum(lineitem.l_quantity * 1e309) from lineitem",
    "sum(lineitem.l_quantity * (1e308 * 10)) from lineitem",
    "sum(lineitem.l_quantity + 1e309) from lineitem",
    "sum(lineitem.l_quantity) from lineitem where lineitem.l_quantity > 1e309",
    "sum(lineitem.l_quantity * (10 ^ 400)) from lineitem",
    "sum(lineitem.l_quantity * exp(1000)) from lineitem",
    "sum(lineitem.l_quantity / (1 - 1)) from lineitem",
    "sum(lineitem.l_quantity * ln(0)) from lineitem",
    "sum(lineitem.l_quantity ^ 120) from lineitem",
    "sum(lineitem.l_quantity * exp(700) * exp(700)) from lineitem",
    "sum(lineitem.l_quantity + 1e308 + 1e308) from lineitem",
    "sum(lineitem.l_quantity * exp(700) / 1e-10) from lineitem",
    "sum(lineitem.l_quantity / 1e-310 * exp(700)) from lineitem",
])
def test_a_non_finite_constant_exits_1(bench_data, tmp_path, capsys, text, command):
    # a literal beyond the doubles is a parse error, constant operands that
    # overflow together a schema error (each exp(700) is finite, their
    # product is not, nor is exp(700) over 1e-10), a power whose smooth
    # bound overflows an analysis error: none reaches the SQL printer or a
    # traceback
    query = _write(tmp_path / "q.sql", f"select {text};")
    args = ["--query", query, "--schema", os.path.join(bench_data, "schema.txt")]
    if command == "run":
        args += ["--data", bench_data, "--json"]
    capsys.readouterr()
    assert main([command, *args]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "out of range" in err or "overflows" in err
    assert out == ""


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[-+]?\d+)?")


@pytest.mark.parametrize("text", [
    "sum(exp(lineitem.l_quantity)) from lineitem where lineitem.l_shipdateG < 200",
    "sum(ln(lineitem.l_orderkey - 1)) from lineitem",
    "sum(lineitem.l_quantity * ((lineitem.l_orderkey - 5) ^ 0.5)) from lineitem",
    "sum(lineitem.l_quantity * sqrt(lineitem.l_orderkey - 5)) from lineitem",
    "sum(lineitem.l_quantity) from lineitem where (lineitem.l_orderkey - 1) ^ -1 > 2",
], ids=["exp", "ln", "power-not-real", "sqrt", "power-of-zero"])
def test_a_refused_release_prints_no_value_of_the_data(bench_data, tmp_path, capsys, text):
    # row 1 is sensitive; its l_quantity 800 makes exp overflow, its
    # l_orderkey 1 leaves ln and sqrt their domains: the error text may
    # carry the query's own constants, no value read from the data
    data = str(tmp_path / "data")
    shutil.copytree(bench_data, data)
    path = os.path.join(data, "lineitem.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, first = rows[0], rows[1]
    assert first[header.index("ID")] == "1" and first[header.index("l_orderkey")] == "1"
    first[header.index("l_quantity")], first[header.index("l_shipdateG")] = "800", "300"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    query = _write(tmp_path / "q.sql", f"select {text};")
    capsys.readouterr()
    assert main(["privatize", "--query", query, "--schema", os.path.join(data, "schema.txt"),
                 "--data", data, "--json", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert {float(t) for t in _NUMBER.findall(err)} <= {float(t) for t in _NUMBER.findall(text)}


def test_a_zero_term_times_an_infinite_cofactor_fails_closed(tmp_path, capsys):
    # at k = -200 and alpha = 5 the sigmoid's derivative underflows to 0,
    # and at beta = 1e-200 the value bounds of q and r are each about
    # 3.7e199, so their product, the cofactor of k's term, is inf: the
    # bound 0 * inf is indeterminate and must not be released as 0
    write_table(str(tmp_path), "t", ["k", "q", "r"],
                [[-200.0, 1.0, 1.0], [1.0, 1.0, 1.0]], [True, False])
    schema = _write(tmp_path / "schema.txt", "table t\ncol k real\ncol q real\ncol r real\n"
                                             "rows lp 1.0\nnorm lp 1.0 k q r\n")
    query = _write(tmp_path / "q.sql", "select sum(t.q * t.r) from t where t.k > 0;")
    capsys.readouterr()
    assert main(["run", "--query", query, "--schema", schema, "--data", str(tmp_path),
                 "--alpha", "5", "--beta", "1e-200", "--json"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: the sensitivity of a t row is nan\n"
    assert out == ""


def test_a_query_too_deep_to_analyse_fails_closed(bench_data, tmp_path, capsys):
    terms = " + ".join(["lineitem.l_quantity"] * 2000)
    query = _write(tmp_path / "q.sql", f"select sum({terms}) from lineitem;")
    capsys.readouterr()
    assert main(["analyze", "--query", query,
                 "--schema", os.path.join(bench_data, "schema.txt")]) == 1
    out, err = capsys.readouterr()
    assert err == "error: the query nests too deeply to analyse\n"
    assert out == ""


def test_analyze_stdout_matches_golden(tmp_path, capsys):
    import os

    from conftest import B1_5_SQL, GOLDEN_DIR, assert_sql_equivalent

    schema = _write(tmp_path / "schema.txt", LINEITEM_SCHEMA)
    query = _write(tmp_path / "q.sql", B1_5_SQL)
    assert main(["analyze", "--query", query, "--schema", schema, "--alpha", "0.1"]) == 0
    out = capsys.readouterr().out.splitlines()
    sens_line = out[out.index("-- sensitivity query") + 1]
    with open(os.path.join(GOLDEN_DIR, "b1_5_sensitivity.sql")) as fh:
        assert_sql_equivalent(sens_line, fh.read())


_INT_SCHEMA = "table t\ncol a int\ncol b int\nrows lp 1.0\nnorm lp 1.0 a b\n"


def _int_table(tmp_path):
    write_table(str(tmp_path), "t", ["a", "b"], [[1, 7], [4, 3], [9, 2], [3, 8]],
                [True, True, False, True])
    return _write(tmp_path / "schema.txt", _INT_SCHEMA)


def test_run_empty_product_prints_floats(tmp_path, capsys):
    schema = _int_table(tmp_path)
    query = _write(tmp_path / "q.sql", "SELECT product(1.0 + 0.01 * t.a) FROM t WHERE t.b > 100")
    assert main(["run", "--query", query, "--schema", schema, "--data", str(tmp_path),
                 "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert type(report["initial"]) is float and type(report["modified"]) is float, out


def test_calls_in_one_process_share_only_the_parser(tmp_path, capsys, monkeypatch):
    from dersens import cli

    monkeypatch.delenv("DERSENS_SEED", raising=False)
    cli._build_parser.cache_clear()
    schema = _int_table(tmp_path)
    query = _write(tmp_path / "q.sql", "SELECT sum(t.a) FROM t WHERE t.a > 2 OR t.b < 5")
    run = ["run", "--query", query, "--schema", schema, "--data", str(tmp_path), "--json"]

    def report(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    first = report(run)
    assert cli._build_parser() is cli._build_parser()
    flagged = report([*run, "--precise", "--xor"])
    assert flagged["modified"] != first["modified"]  # the flags matter here
    assert report(run) == first
    report(["privatize", *run[1:], "--seed", "7", "--precise", "--xor"])
    assert report(run) == first

    # bench rewrites the paths of its own arguments only; a later run reads its own
    bench = report(["bench", "--rows", "40", "--json", "--data", str(tmp_path / "bench")])
    assert bench["rows"] == 40
    assert report(run) == first
