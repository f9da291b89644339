import json
import math
import os

import numpy as np
import pytest

from conftest import (
    B1_1_SQL,
    B16_SQL,
    GOLDEN_DIR,
    LINEITEM_COLS,
    LINEITEM_SCHEMA,
    TPCH_MINI_SCHEMA,
    lineitem_row,
    with_cells,
    write_table,
)
from dersens import engine as eng
from dersens import sqlfront as sf
from dersens.analyzer import PlanParams, build_plan, emit_sql, render
from dersens.cli import main as cli_main
from dersens.exprs import Col, EvalError, Sum, Tauoid, eval_scalar
from dersens.sqlfront import load_database, parse_query, parse_schema, validate
from sqlite_exec import sqlite_dialect, sqlite_value, strict_sqlite

PARAMS = PlanParams(beta=0.1, alpha=0.1)


def _ctx(sql, schema):
    return validate(parse_query(sql), schema)


# ---------------------------------------------------------------------------
# initial query semantics
# ---------------------------------------------------------------------------


def test_count_exact(tmp_path):
    write_table(str(tmp_path), "t", ["a"], [[1.0], [5.0], [9.0]])
    schema = parse_schema("table t\ncol a real\n")
    db = load_database(str(tmp_path), schema)
    ctx = _ctx("SELECT count(*) FROM t WHERE t.a > 2", schema)
    assert eng.run_initial(ctx, db) == 2.0


def test_sum_over_empty_filter_is_zero(tmp_path):
    write_table(str(tmp_path), "t", ["a"], [[1.0], [2.0]])
    schema = parse_schema("table t\ncol a real\n")
    db = load_database(str(tmp_path), schema)
    ctx = _ctx("SELECT sum(t.a) FROM t WHERE t.a > 100", schema)
    assert eng.run_initial(ctx, db) == 0.0


def test_b1_1_matches_hand_computation(tmp_path):
    rows = [
        lineitem_row(qty=q, rf=rf, ls=ls, sd=sd)
        for q, rf, ls, sd in [
            (17, "R", "F", 100.0), (36, "R", "F", 195.0), (8, "R", "F", 260.0),
            (21, "N", "F", 90.0), (44, "R", "O", 80.0), (3, "R", "F", 200.0),
            (29, "A", "F", 150.0), (12, "R", "F", 205.0), (50, "R", "F", 10.0),
            (25, "N", "O", 300.0),
        ]
    ]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    schema = parse_schema(LINEITEM_SCHEMA)
    db = load_database(str(tmp_path), schema)
    ctx = _ctx(B1_1_SQL, schema)
    # spreadsheet-style brute force, independent of the engine's join logic
    expected = 0.0
    for q, rf, ls, sd in [(17, "R", "F", 100.0), (36, "R", "F", 195.0),
                          (8, "R", "F", 260.0), (21, "N", "F", 90.0),
                          (44, "R", "O", 80.0), (3, "R", "F", 200.0),
                          (29, "A", "F", 150.0), (12, "R", "F", 205.0),
                          (50, "R", "F", 10.0), (25, "N", "O", 300.0)]:
        if sd <= 230.3 - 30 and rf == "R" and ls == "F":
            expected += q
    assert eng.run_initial(ctx, db) == expected == 106.0


def test_minmax_over_empty_rows_is_an_error(tmp_path):
    write_table(str(tmp_path), "t", ["a"], [[1.0]])
    schema = parse_schema("table t\ncol a real\n")
    db = load_database(str(tmp_path), schema)
    ctx = _ctx("SELECT min(t.a) FROM t WHERE t.a > 5", schema)
    with pytest.raises(eng.EngineError):
        eng.run_initial(ctx, db)
    with pytest.raises(eng.EngineError):
        eng.run_initial(ctx, db, eng.public_rows(ctx, db))


def test_initial_applies_the_residual_conjuncts_to_the_public_rows(tmp_path):
    # the WHERE clause is `public AND residual`: the residual conjunct is
    # applied to the public rows only, so row 2, which the public conjunct
    # drops, is never divided by
    write_table(str(tmp_path), "t", ["a", "b"], [[2.0, 1], [3.0, 0], [5.0, 2]],
                [True, False, True])
    schema = parse_schema("table t\ncol a real\ncol b int\nnorm lp 1.0 a\n")
    db = load_database(str(tmp_path), schema)
    ctx = _ctx("SELECT sum(t.a) FROM t WHERE (t.a > 4 OR 1 / t.b > 0.75) AND t.b <> 0", schema)
    rows = eng.public_rows(ctx, db)
    assert len(rows) == 2
    assert eng.run_initial(ctx, db, rows) == eng.run_initial(ctx, db) == 7.0


# ---------------------------------------------------------------------------
# modified query
# ---------------------------------------------------------------------------


def test_modified_equals_initial_on_integers(tmp_path):
    write_table(str(tmp_path), "t", ["a"], [[1], [3], [6]])
    schema = parse_schema("table t\ncol a int\nnorm lp 1.0 a\n")
    db = load_database(str(tmp_path), schema)
    ctx = _ctx("SELECT sum(t.a) FROM t WHERE t.a > 2", schema)
    plan = build_plan(ctx, PlanParams(beta=0.1, alpha=0.5, precise_ints=True))
    assert eng.run_modified(plan, db) == eng.run_initial(ctx, db) == 9.0


def test_modified_within_one_percent_at_margin_50(tmp_path):
    # all rows pass with at least 50 date units to spare: sigma(5) = 0.9933
    rows = [lineitem_row(qty=q, sd=sd) for q, sd in
            [(10, 150.0), (20, 140.0), (30, 100.0), (40, 60.0)]]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    schema = parse_schema(LINEITEM_SCHEMA)
    db = load_database(str(tmp_path), schema)
    ctx = _ctx(B1_1_SQL, schema)
    plan = build_plan(ctx, PARAMS)
    initial = eng.run_initial(ctx, db)
    modified = eng.run_modified(plan, db)
    assert abs(modified - initial) / initial < 0.01


def test_empty_table_neutral_elements(tmp_path):
    write_table(str(tmp_path), "t", ["a"], [])
    schema = parse_schema("table t\ncol a real\nnorm lp 1.0 a\n")
    db = load_database(str(tmp_path), schema)
    for agg, expected in (("sum", 0.0), ("product", 1.0)):
        ctx = _ctx(f"SELECT {agg}(t.a) FROM t WHERE t.a > 0", schema)
        plan = build_plan(ctx, PlanParams(beta=0.1, alpha=1.0))
        assert eng.run_modified(plan, db) == expected


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def test_deep_row_sensitivity_is_one(lineitem_db):
    db, schema = lineitem_db
    # push the deep row further in so its indicator saturates to 1e-7
    db = with_cells(db, "lineitem", 0, {"l_shipdateG": 40.0})
    ctx = _ctx(B1_1_SQL, schema)
    plan = build_plan(ctx, PARAMS)
    sens, _ = eng.run_sensitivity(plan, db)
    assert sens == pytest.approx(1.0, abs=1e-6)


def test_zero_sensitive_rows_gives_zero(tmp_path):
    rows = [lineitem_row(), lineitem_row(qty=20.0)]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows, [False, False])
    schema = parse_schema(LINEITEM_SCHEMA)
    db = load_database(str(tmp_path), schema)
    plan = build_plan(_ctx(B1_1_SQL, schema), PARAMS)
    sens, breakdown = eng.run_sensitivity(plan, db)
    assert sens == 0.0
    assert breakdown[0].groups == {}
    assert breakdown[0].argmax is None


def test_sensitivity_matches_rowwise_finite_differences(tmp_path):
    # COUNT with one sensitive filter: the bound is exactly the derivative
    rows = [lineitem_row(sd=sd) for sd in (150.0, 195.0, 205.0, 240.0)]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    schema = parse_schema(LINEITEM_SCHEMA)
    db = load_database(str(tmp_path), schema)
    q = "SELECT count(*) FROM lineitem WHERE l_shipdateG <= 200.3"
    plan = build_plan(_ctx(q, schema), PARAMS)
    sens, (bd,) = eng.run_sensitivity(plan, db)
    from dersens.exprs import eval_scalar

    h = 1e-5
    brute = {}
    for i, sd in enumerate((150.0, 195.0, 205.0, 240.0)):
        up = eval_scalar(plan.row_expr, {"lineitem.l_shipdateG": sd + h})
        dn = eval_scalar(plan.row_expr, {"lineitem.l_shipdateG": sd - h})
        brute[str(i + 1)] = abs(up - dn) / (2 * h) / 30.0  # date block scale
    for gid, val in bd.groups.items():
        assert val == pytest.approx(brute[gid], rel=1e-9)
    assert sens == pytest.approx(max(brute.values()), rel=1e-9)


def test_determinism_bit_identical(lineitem_db):
    db, schema = lineitem_db
    plan = build_plan(_ctx(B1_1_SQL, schema), PARAMS)
    a = (eng.run_modified(plan, db), eng.run_sensitivity(plan, db)[0])
    b = (eng.run_modified(plan, db), eng.run_sensitivity(plan, db)[0])
    assert a == b


def test_cross_product_cardinality(tmp_path):
    write_table(str(tmp_path), "t", ["a", "s"], [[1.0, "x"], [2.0, "y"], [3.0, "x"]])
    write_table(str(tmp_path), "u", ["c"], [[1.0], [2.0]])
    schema = parse_schema("table t\ncol a real\ncol s text\ntable u\ncol c real\n")
    db = load_database(str(tmp_path), schema)
    ctx = _ctx("SELECT count(*) FROM t, u WHERE t.s = 'x'", schema)
    rows = eng.public_rows(ctx, db)
    assert len(rows) == 2 * 2  # two t rows pass the pushdown filter, times u


def test_minmax_roundtrip_with_span_subquery(tmp_path):
    rows = [lineitem_row(qty=q, sd=sd) for q, sd in
            [(10, 150.0), (25, 190.0), (40, 220.0), (5, 390.0)]]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    schema = parse_schema(LINEITEM_SCHEMA)
    db = load_database(str(tmp_path), schema)
    sql = ("SELECT min(l_quantity) FROM lineitem WHERE l_shipdateG <= 200.3 "
           "AND l_returnflag = 'R'")
    plan = build_plan(_ctx(sql, schema), PARAMS)
    modified, sensitivity = emit_sql(plan)
    assert "SELECT max(" in modified  # the span subquery is inlined
    con = strict_sqlite(db)
    rt = sqlite_value(con, modified)
    assert rt == pytest.approx(eng.run_modified(plan, db), rel=1e-9)
    rt_sens = sqlite_value(con, sensitivity)
    sens, _ = eng.run_sensitivity(plan, db)
    assert rt_sens == pytest.approx(sens, rel=1e-9)


def test_product_sensitivity_roundtrip(tmp_path):
    write_table(str(tmp_path), "t", ["a"], [[1.0], [2.0], [1.5]])
    schema = parse_schema("table t\ncol a real\nnorm lp 1.0 a\n")
    db = load_database(str(tmp_path), schema)
    sql = "SELECT product(t.a) FROM t WHERE t.a > 1"
    plan = build_plan(_ctx(sql, schema), PlanParams(beta=0.5, alpha=0.5))
    sens, _ = eng.run_sensitivity(plan, db)
    _, sens_sql = emit_sql(plan)
    rt = sqlite_value(strict_sqlite(db), sens_sql)
    assert rt == pytest.approx(sens, rel=1e-9)


def test_database_combiner_across_tables(tmp_path):
    # two sensitive tables touched by one query: the default linf database
    # combiner sums the per-table values, lp 1 takes their max
    write_table(str(tmp_path), "t", ["a"], [[2.0], [5.0]])
    write_table(str(tmp_path), "u", ["c"], [[1.0], [4.0]])
    base = "table t\ncol a real\nnorm lp 1.0 a\ntable u\ncol c real\nnorm lp 1.0 c\n"
    sql = "SELECT sum(t.a + u.c) FROM t, u"
    vals = {}
    for tag, extra in (("linf", ""), ("l1", "database lp 1.0\n")):
        schema = parse_schema(base + extra)
        db = load_database(str(tmp_path), schema)
        plan = build_plan(_ctx(sql, schema), PARAMS)
        vals[tag], bd = eng.run_sensitivity(plan, db)
        per_table = [b.value for b in bd]
    assert vals["linf"] == pytest.approx(sum(per_table))
    assert vals["l1"] == pytest.approx(max(per_table))
    # emitted combination matches the engine for both combiners
    for tag, extra in (("linf", ""), ("l1", "database lp 1.0\n")):
        schema = parse_schema(base + extra)
        db = load_database(str(tmp_path), schema)
        plan = build_plan(_ctx(sql, schema), PARAMS)
        _, sens_sql = emit_sql(plan)
        rt = sqlite_value(strict_sqlite(db), sens_sql)
        assert rt == pytest.approx(vals[tag], rel=1e-9)


def _tie_db(tmp_path, rows_norm):
    # the IDs' string order (10 < 11 < 2 < 9) is not their row order
    write_table(str(tmp_path), "u", ["k"], [[2], [3], [1], [2], [4], [3]], [False] * 6)
    (tmp_path / "t.csv").write_text("ID,a,b,k\n9,1.0,3,1\n2,1.0,5,2\n11,1.0,5,3\n10,1.0,10,4\n")
    (tmp_path / "t_sensRows.csv").write_text("ID,sensitive\n9,1\n2,1\n11,1\n10,1\n")
    schema = parse_schema(f"table t\ncol a real\ncol b int\ncol k int\nrows {rows_norm}\n"
                          "norm lp 1.0 a\ntable u\ncol k int\n")
    return schema, load_database(str(tmp_path), schema)


@pytest.mark.parametrize("sql,groups,worst", [
    # t rows 2, 11 and 10 all reach 10: the smallest ID string is 10, the last row
    ("SELECT sum(t.a * t.b) FROM t, u WHERE t.k = u.k",
     {"9": 3.0, "2": 10.0, "11": 10.0, "10": 10.0}, "10"),
    # rows 2 and 11 reach 5: 11 is the smaller string, and the later row
    ("SELECT sum(t.a * t.b) FROM t WHERE t.b < 10",
     {"9": 3.0, "2": 5.0, "11": 5.0}, "11"),
])
@pytest.mark.parametrize("rows_norm", ["lp 1.0", "linf"])
def test_worst_row_is_the_smallest_id_among_the_worst_groups(tmp_path, sql, groups, worst,
                                                            rows_norm):
    schema, db = _tie_db(tmp_path, rows_norm)
    plan = build_plan(_ctx(sql, schema), PlanParams(beta=0.1, alpha=1.0))
    sens, (bd,) = eng.run_sensitivity(plan, db)
    assert bd.groups == groups
    assert bd.argmax == worst
    assert bd.value == sens == (max if rows_norm == "lp 1.0" else sum)(groups.values())


def test_nan_group_sensitivity_is_an_error(tmp_path):
    # max over values holding a NaN depends on their order; the release fails
    write_table(str(tmp_path), "t", ["a", "b"], [[1.0, 2.0], [1.0, "nan"], [1.0, 3.0]])
    schema = parse_schema("table t\ncol a real\ncol b real\nrows lp 1.0\nnorm lp 1.0 a\n")
    db = load_database(str(tmp_path), schema)
    plan = build_plan(_ctx("SELECT max(t.a * t.b) FROM t", schema), PARAMS)
    with pytest.raises(eng.EngineError, match="sensitivity of a t row is nan"):
        eng.run_sensitivity(plan, db)


# ---------------------------------------------------------------------------
# emitted SQL on sqlite3, far outside the range of exp
# ---------------------------------------------------------------------------


def test_b16_tauoid_sql_agrees_far_from_the_in_list(tmp_path):
    # alpha = 0.1, so p_size = +-20000 puts |u| near 2000 and 7300 near 726
    d = str(tmp_path)
    write_table(d, "lineitem", LINEITEM_COLS, [])
    part = [[k, size, 900.0 + k, brand, "LARGE ANODIZED TIN", "SM BOX"]
            for k, size, brand in [(1, 10, "Brand#14"), (2, 12, "Brand#14"),
                                   (3, 20000, "Brand#14"), (4, -20000, "Brand#14"),
                                   (5, 7300, "Brand#14"), (6, 30, "Brand#34")]]
    write_table(d, "part", ["p_partkey", "p_size", "p_retailprice", "p_brand", "p_type",
                            "p_container"], part, [True, True, True, True, False, True])
    write_table(d, "partsupp", ["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
                [[k, s, 10 * k, 1.5] for k in range(1, 7) for s in (1, 2)])
    write_table(d, "supplier", ["s_suppkey", "s_acctbal", "s_comment"],
                [[1, 100.0, "fine"], [2, 50.0, "Customer said Complaints"]])
    schema = parse_schema(TPCH_MINI_SCHEMA)
    db = load_database(d, schema)
    plan = build_plan(_ctx(B16_SQL, schema), PARAMS)
    engine = {"modified": eng.run_modified(plan, db), "sensitivity": eng.run_sensitivity(plan, db)[0]}
    con = strict_sqlite(db)
    for part_name, value in engine.items():
        with open(os.path.join(GOLDEN_DIR, f"b16_{part_name}.sql")) as fh:
            golden = fh.read()
        assert sqlite_value(con, golden) == pytest.approx(value, rel=1e-9)
    assert engine["modified"] > 1.0  # rows 1 and 2 count, the far ones do not


def test_tauoid_renders_without_overflow():
    e = Tauoid(5.0, Col("t.x"))
    con = strict_sqlite()
    con.execute("CREATE TABLE t (x REAL)")
    xs = [-1e4, -200.0, -141.0, -1.0, -0.0, 0.0, 0.3, 1.0, 141.0, 200.0, 1e4]
    con.executemany("INSERT INTO t VALUES (?)", [(x,) for x in xs])
    stmt = sf.print_expr(sqlite_dialect(sf.parse_emitted(f"SELECT {render(e)} FROM t;").select))
    got = [v for (v,) in con.execute(f"SELECT {stmt} FROM t").fetchall()]
    want = [eval_scalar(e, {"t.x": x}) for x in xs]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
    summed = sqlite_value(con, f"SELECT sum({render(e)}) FROM t;")
    assert summed == pytest.approx(math.fsum(want), rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# overflow in sums
# ---------------------------------------------------------------------------


def test_compiled_sum_overflow_is_an_eval_error(tmp_path):
    write_table(str(tmp_path), "t", ["a"], [[1e308], [1.0]])
    schema = parse_schema("table t\ncol a real\nnorm lp 1.0 a\n")
    db = load_database(str(tmp_path), schema)
    rows = eng.public_rows(_ctx("SELECT sum(t.a) FROM t", schema), db)
    for n in (2, 3):
        with np.errstate(all="ignore"), pytest.raises(EvalError, match="overflow"):
            eng._Compiler()(Sum((Col("t.a"),) * n))(eng._Frame(rows, {}))


def test_initial_sum_overflow_is_reported_by_the_cli(tmp_path, capsys):
    write_table(str(tmp_path), "t", ["a"], [[1e308], [1e308], [1e308]])
    (tmp_path / "schema.txt").write_text("table t\ncol a real\nnorm lp 1.0 a\n")
    (tmp_path / "q.sql").write_text("SELECT sum(t.a) FROM t")
    rc = cli_main(["run", "--query", str(tmp_path / "q.sql"), "--schema",
                   str(tmp_path / "schema.txt"), "--data", str(tmp_path)])
    assert rc != 0
    assert "overflow" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dual norms of the per-group and per-table sensitivities
# ---------------------------------------------------------------------------


def test_dual_norm_scales_values_whose_powers_overflow():
    # at p = 2 (q = 2) the square of 1e200 overflows; the norm itself does not
    assert eng._dual_norm([1e200, 1.0], 2.0) == 1e200
    assert eng._dual_norm([1.0, 1e200], 2.0) == 1e200
    # the sum of the powers overflows although each power is finite
    assert eng._dual_norm([1e154, 1e154], 2.0) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
    assert eng._dual_norm([1e300] * 3, 1.5) == pytest.approx(3.0 ** (1 / 3) * 1e300, rel=1e-15)
    # a norm beyond the double range is inf, which run_sensitivity reports
    assert eng._dual_norm([1.5e308, 1.5e308], 2.0) == math.inf


def test_dual_norm_keeps_the_direct_form_where_it_is_finite():
    rng = np.random.default_rng(5)
    for p in (1.25, 2.0, 3.0):
        q = p / (p - 1.0)
        for scale in (1e-3, 1.0, 1e6, 1e30):
            vals = (rng.random(7) * scale).tolist()
            want = math.fsum(v**q for v in vals) ** (1.0 / q)
            assert float.hex(eng._dual_norm(vals, p)) == float.hex(want)
    assert eng._dual_norm([], 2.0) == 0.0
    assert eng._dual_norm([3.0, 5.0], 1.0) == 5.0
    assert eng._dual_norm([3.0, 5.0], math.inf) == 8.0


def _huge_lp_table(dirpath, a: float, c: float) -> list[str]:
    """CLI arguments for a sum of a * c over rows whose sensitivities are c,
    combined by rows lp 2.0, whose dual norm squares them."""
    write_table(str(dirpath), "t", ["a", "c"], [[a, c], [a, c], [a, 1.0]])
    (dirpath / "schema.txt").write_text("table t\ncol a real\ncol c real\nrows lp 2.0\n"
                                        "norm lp 1.0 a\n")
    (dirpath / "q.sql").write_text("SELECT sum(t.a * t.c) FROM t")
    return ["--query", str(dirpath / "q.sql"), "--schema", str(dirpath / "schema.txt"),
            "--data", str(dirpath), "--seed", "3", "--json"]


@pytest.mark.parametrize("command", ["run", "privatize"])
def test_lp_row_combiner_of_huge_sensitivities(tmp_path, capsys, command):
    args = _huge_lp_table(tmp_path, 1.0, 1e200)
    assert cli_main(["run", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sensitivity"] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert report["groups"][0]["value"] == report["sensitivity"]
    if command == "privatize":  # the release prints only its noised value
        assert cli_main(["privatize", *args]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["noised"])


def test_lp_row_combiner_beyond_the_double_range_is_an_input_error(tmp_path, capsys):
    assert cli_main(["run", *_huge_lp_table(tmp_path, 1e-10, 1.5e308)]) == 1
    assert "sensitivity overflowed" in capsys.readouterr().err
