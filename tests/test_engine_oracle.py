"""Differential tests of the columnar engine against a brute-force oracle:
a nested loop over the cross product of row dicts, filtered with
`eval_pred_bool`, with `eval_scalar` per row, and against the emitted SQL
run on sqlite3.  Queries and data are drawn from seeded generators over 1-3
tables, two of them sensitive."""

from __future__ import annotations

import math
import random
from itertools import product as iproduct

import numpy as np
import pytest

from conftest import write_table
from dersens import analyzer as an
from dersens import engine as eng
from dersens import sqlfront as sf
from dersens.analyzer import PlanParams, build_plan, emit_sql, render
from dersens.exprs import (
    Col,
    Const,
    Div,
    EvalError,
    IfGE,
    Ln,
    LpNorm,
    Power,
    Prod,
    Sigmoid,
    Sum,
    eval_scalar,
)
from dersens.norms import INF
from dersens.sqlfront import (
    BinOp,
    BoolCol,
    BoolOp,
    CaseWhen,
    Cmp,
    ColRef,
    FuncCall,
    LikePred,
    NotPred,
    Number,
    StrLit,
    TruePred,
)
from sqlite_exec import (
    assert_reads_row_columns, sqlite_dialect, sqlite_outcome, sqlite_value, strict_sqlite,
)

SCHEMA = """\
table t
col a real
col b int
col tk int
col s text
rows lp 1.0
norm lp 1.0 a (scaled 2.0 b)
table u
col c real
col uk int
col w text
rows {u_rows}
norm lp 1.0 c
table v
col vk int
col g real
col name text
"""

COLUMNS = {"t": ["a", "b", "tk", "s"], "u": ["c", "uk", "w"], "v": ["vk", "g", "name"]}
TEXTS = ["x", "y", "ax", "xa_b", "y"]

# conjuncts by the tables they read; equalities on keys become equi-joins
JOINS = {
    frozenset("tu"): ["t.tk = u.uk", "t.a < u.c"],
    frozenset("uv"): ["u.uk = v.vk", "u.w = v.name"],
    frozenset("tv"): ["t.tk = v.vk", "t.s = v.name", "v.g > t.tk"],
}
FILTERS = {
    "t": ["t.s LIKE '%a%'", "t.s = 'x'", "t.s <> 'y'", "t.tk IN (1, 2)",
          "t.a < 4.5", "t.b = 2", "(t.a > 1.5 XOR t.tk = 1)", "NOT (t.b >= 3)",
          "(t.a <= 2.5 OR t.s LIKE 'x%')"],
    "u": ["u.w LIKE '_a%'", "NOT (u.w LIKE 'x%')", "u.w = 'y'", "u.c >= 2.5", "u.uk IN (0, 2, 3)",
          "NOT (u.w = 'x')", "(u.c < 1.5 XOR u.uk > 1)"],
    "v": ["v.name LIKE '%x%'", "v.g < 3.5", "v.vk <> 2", "NOT (v.name = 'ax')"],
}
SELECTS = {
    "t": ["t.a", "t.a + t.b", "2.0 * t.a - t.tk", "abs(t.a - 3.0)"],
    "u": ["u.c", "u.c * u.uk", "u.c ^ 2.0"],
    "v": ["v.g", "greatest(v.g, 1.5) / 2.0"],
}


def _rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# The oracle: row dicts, with the engine's row semantics of the SQL subset
# (`_cmp`, `_call`, `_pow`, `_like_regex`)
# ---------------------------------------------------------------------------


def _table_envs(db, table, alias):
    """One env per row, holding Python floats and strs (not numpy scalars)."""
    td = db.table(table)
    names = [f"{alias}.{c}" for c in td.columns] + [f"{alias}.ID", f"{alias}.__sens__"]
    values = [a.tolist() for a in (*td.columns.values(), td.ids, td.sensitive)]
    return [dict(zip(names, row)) for row in zip(*values)]


def _lookup(env, ref):
    if ref.table:
        key = ref.name
        if key in env:
            return env[key]
        raise eng.EngineError(f"no column '{key}' in row")
    if ref.column in env:
        return env[ref.column]
    hits = [k for k in env if k.endswith("." + ref.column)]
    if len(hits) == 1:
        return env[hits[0]]
    if not hits:
        raise eng.EngineError(f"no column '{ref.column}' in row")
    raise eng.EngineError(f"ambiguous column '{ref.column}' in row")


def _eval_side(e, env):
    if isinstance(e, (Number, StrLit)):
        return e.value
    if isinstance(e, ColRef):
        return _lookup(env, e)
    if isinstance(e, BinOp):
        a = _eval_side(e.lhs, env)
        b = _eval_side(e.rhs, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise eng.EngineError("division by zero")
            return a / b
        if e.op == "^":
            return eng._pow(a, b)
    if isinstance(e, FuncCall):
        return eng._call(e.name, *(_eval_side(a, env) for a in e.args))
    if isinstance(e, CaseWhen):
        if eval_pred_bool(e.cond, env):
            return _eval_side(e.then, env)
        return _eval_side(e.other, env)
    raise eng.EngineError(f"cannot evaluate {type(e).__name__}")


def eval_pred_bool(p, env) -> bool:
    """Exact boolean semantics of the predicate subset."""
    if isinstance(p, TruePred):
        return True
    if isinstance(p, Cmp):
        return eng._cmp(p.op, _eval_side(p.lhs, env), _eval_side(p.rhs, env))
    if isinstance(p, LikePred):
        hit = bool(eng._like_regex(p.pattern).match(str(_lookup(env, p.col))))
        return not hit if p.negated else hit
    if isinstance(p, BoolCol):
        return bool(_lookup(env, p.col))
    if isinstance(p, NotPred):
        return not eval_pred_bool(p.arg, env)
    if isinstance(p, BoolOp):
        vals = [eval_pred_bool(a, env) for a in p.args]
        if p.op == "and":
            return all(vals)
        if p.op == "or":
            return any(vals)
        return sum(vals) % 2 == 1
    raise eng.EngineError(f"cannot evaluate predicate {type(p).__name__}")


def oracle_rows(ctx, db, pred):
    streams = [_table_envs(db, table, alias) for table, alias in ctx.query.tables]
    out = []
    for combo in iproduct(*streams):
        env = {}
        for part in combo:
            env.update(part)
        if eval_pred_bool(pred, env):
            out.append(env)
    return out


def _aggregate(agg, vals):
    if agg in ("SUM", "COUNT"):
        return math.fsum(vals)
    if agg == "PRODUCT":
        out = 1.0
        for v in vals:
            out *= v
        return out
    if not vals:
        raise eng.EngineError(f"{agg} over an empty row set")
    return min(vals) if agg == "MIN" else max(vals)


def oracle_initial(ctx, db):
    rows = oracle_rows(ctx, db, ctx.query.where)
    agg = ctx.query.aggregator.upper()
    if agg == "COUNT":
        return float(len(rows))
    return _aggregate(agg, [float(_eval_side(ctx.query.select, e)) for e in rows])


def oracle_bound_rows(plan, db):
    rows = oracle_rows(plan.ctx, db, plan.ctx.public_pred)
    for key, spec in plan.opaques.items():
        if spec.kind == "indicator":
            for env in rows:
                env[key] = 1.0 if eval_pred_bool(spec.pred, env) else 0.0
    for key, spec in plan.opaques.items():
        if spec.kind == "span":
            vals = [eval_scalar(spec.expr, env) for env in rows]
            span = (max(vals) - min(vals)) if vals else 0.0
            for env in rows:
                env[key] = span
        elif spec.kind == "prodbound":
            acc = 1.0
            for env in rows:
                acc *= max(eval_scalar(spec.expr, env), 1.0)
            for env in rows:
                env[key] = acc
    return rows


def oracle_modified(plan, db):
    rows = oracle_bound_rows(plan, db)
    return _aggregate(plan.aggregator, [eval_scalar(plan.row_expr, env) for env in rows])


def oracle_sensitivity(plan, db):
    rows = oracle_bound_rows(plan, db)
    tables = []
    for tp in plan.table_plans:
        groups = {}
        for env in rows:
            if not env[f"{tp.alias}.__sens__"]:
                continue
            gid = env[f"{tp.alias}.ID"]
            val = abs(eval_scalar(tp.combined, env))
            if tp.group_agg == "sum":
                groups[gid] = groups.get(gid, 0.0) + val
            else:
                groups[gid] = max(groups.get(gid, 0.0), val)
        tables.append(groups)
    return tables


# ---------------------------------------------------------------------------
# Seeded fixtures and queries
# ---------------------------------------------------------------------------


def _value(rng, col):
    if col in ("s", "w", "name"):
        return rng.choice(TEXTS)
    if col in ("b", "tk", "uk", "vk"):
        return rng.randint(0, 3)
    return round(rng.uniform(0.0, 6.0), 1)


def _fixture(rng, path, u_rows):
    for name, cols in COLUMNS.items():
        n = 0 if rng.random() < 0.08 else rng.randint(1, 7)
        rows = [[_value(rng, c) for c in cols] for _ in range(n)]
        write_table(str(path), name, cols, rows, [rng.random() < 0.7 for _ in rows])
    schema = sf.parse_schema(SCHEMA.format(u_rows=u_rows))
    return schema, sf.load_database(str(path), schema)


def _query(rng):
    names = rng.sample("tuv", rng.randint(1, 3))
    if names == ["v"]:
        names = ["v", "t"]
    agg = rng.choice(["SUM", "COUNT", "MIN", "MAX", "PRODUCT"])
    sel = rng.choice(SELECTS[rng.choice(names)])
    if agg == "PRODUCT":
        sel = f"1.0 + 0.05 * ({sel})"
    conjuncts = []
    for pair, options in JOINS.items():
        if pair <= set(names) and rng.random() < 0.75:
            conjuncts.append(rng.choice(options))
    for name in names:
        conjuncts.extend(rng.sample(FILTERS[name], rng.randint(0, 2)))
    rng.shuffle(conjuncts)
    head = "count(*)" if agg == "COUNT" else f"{agg.lower()}({sel})"
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT {head} FROM {', '.join(names)}{where}"


def _outcome(fn):
    try:
        return fn(), None
    except (eng.EngineError, EvalError) as exc:
        return None, type(exc)


def _hex(value):
    return None if value is None else value.hex()


def _seeded_cases(tmp_path, seed):
    """The 14 fixtures of one seed, as (query text, database, plan)."""
    rng = random.Random(seed)
    for k in range(14):
        d = tmp_path / f"fx{k}"
        d.mkdir()
        schema, db = _fixture(rng, d, rng.choice(["lp 1.0", "linf"]))
        sql = _query(rng)
        ctx = sf.validate(sf.parse_query(sql), schema)
        params = PlanParams(beta=0.1, alpha=rng.choice([0.5, 2.0]),
                            precise_ints=rng.random() < 0.3)
        yield sql, db, build_plan(ctx, params)


@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_oracle(tmp_path, seed):
    cases = spans_two = 0
    for sql, db, plan in _seeded_cases(tmp_path, seed):
        ctx = plan.ctx
        spans_two += any(len({r.table for r in sf._walk_refs(c)}) > 1
                         for c in sf._flatten_and(ctx.residual_pred))

        # the same joined rows, in nested-loop order
        aliases = [alias for _, alias in ctx.query.tables]
        rows = eng.public_rows(ctx, db)
        ids = [tuple(env[f"{a}.ID"] for a in aliases)
               for env in oracle_rows(ctx, db, ctx.public_pred)]
        assert list(zip(*(rows.column(f"{a}.ID").tolist() for a in aliases))) == ids, sql

        # the public rows filtered by the residual conjuncts are the rows of
        # the whole WHERE clause: the same value to the bit, or the same error
        want, want_err = _outcome(lambda: oracle_initial(ctx, db))
        got, got_err = _outcome(lambda: eng.run_initial(ctx, db, rows))
        assert (_hex(got), got_err) == (_hex(want), want_err), sql
        assert _outcome(lambda: eng.run_initial(ctx, db)) == (got, got_err), sql

        want, want_err = _outcome(lambda: oracle_modified(plan, db))
        got, got_err = _outcome(lambda: eng.run_modified(plan, db))
        assert got_err == want_err, sql
        if want is not None:
            assert _rel_close(got, want), (sql, got, want)

        want_groups = oracle_sensitivity(plan, db)
        _, breakdown = eng.run_sensitivity(plan, db)
        for groups, bd in zip(want_groups, breakdown):
            assert bd.groups.keys() == groups.keys(), sql
            for gid, val in groups.items():
                assert _rel_close(bd.groups[gid], val), (sql, gid, bd.groups[gid], val)
            # the worst group is the one with the smallest ID among the maximal
            top = max(bd.groups.values(), default=None)
            assert bd.argmax == min((g for g, v in bd.groups.items() if v == top),
                                    default=None), sql
        cases += 1
    assert cases == 14
    assert spans_two > 0  # a residual conjunct such as `t.a < u.c`


@pytest.mark.parametrize("seed", range(12))
def test_emitted_sql_on_sqlite_matches_engine(tmp_path, seed):
    # SQL gives NULL where the engine gives a value in two cases: an
    # aggregate over no public rows, and a sensitivity statement in which a
    # sensitive table has no sensitive row among the public rows, so that
    # its per-table term is NULL and `NULL + x` makes the sum NULL.  In the
    # second case the engine counts that table as 0 and may report a
    # positive sensitivity (seed 8, fixture 8 is one).
    agreed = 0
    for sql, db, plan in _seeded_cases(tmp_path, seed):
        rows = eng.public_rows(plan.ctx, db)
        no_sens_row = any(not rows.column(f"{tp.alias}.__sens__").any()
                          for tp in plan.table_plans)
        con = strict_sqlite(db)
        modified, sensitivity = emit_sql(plan)
        for what, stmt in (("modified", modified), ("sensitivity", sensitivity)):
            got = sqlite_value(con, stmt)
            if got is None:
                assert len(rows) == 0 or (what == "sensitivity" and no_sens_row), (sql, what)
                continue
            want = (eng.run_modified(plan, db, rows) if what == "modified"
                    else eng.run_sensitivity(plan, db, rows)[0])
            assert got == pytest.approx(want, rel=1e-9), (sql, what)
            agreed += 1
    assert agreed > 0


@pytest.mark.parametrize("seed", range(12))
def test_shared_nodes_are_columns_that_inline_to_the_flat_statement(tmp_path, seed, monkeypatch):
    # each statement is the flat one (no node named) with inner selects of
    # row columns: shorter, each shared column read at least twice, and the
    # same sqlite value to the bit
    plans = [(sql, db, plan) for sql, db, plan in _seeded_cases(tmp_path, seed)]
    named = [emit_sql(plan) for _, _, plan in plans]
    monkeypatch.setattr(an, "_share", lambda *args: None)
    shared = 0
    for (sql, db, plan), statements in zip(plans, named):
        con = strict_sqlite(db)
        for stmt, flat in zip(statements, emit_sql(plan)):
            assert_reads_row_columns(stmt, flat)
            assert sqlite_outcome(con, stmt) == sqlite_outcome(con, flat), (sql, stmt)
            shared += stmt != flat
    assert shared > 0


def test_join_keeps_nested_loop_order(tmp_path):
    # v is joined before u (only v is linked to t), then sorted back
    write_table(str(tmp_path), "t", COLUMNS["t"], [[1.0, 1, k, "x"] for k in (1, 2, 1)])
    write_table(str(tmp_path), "u", COLUMNS["u"], [[1.0, 0, w] for w in "xyx"])
    write_table(str(tmp_path), "v", COLUMNS["v"], [[k, 1.0, "y"] for k in (1, 2, 1)])
    schema = sf.parse_schema(SCHEMA.format(u_rows="lp 1.0"))
    db = sf.load_database(str(tmp_path), schema)
    ctx = sf.validate(sf.parse_query(
        "SELECT count(*) FROM t, u, v WHERE t.tk = v.vk AND u.w <> v.name"), schema)
    rows = eng.public_rows(ctx, db)
    ids = [(e["t.ID"], e["u.ID"], e["v.ID"]) for e in oracle_rows(ctx, db, ctx.public_pred)]
    assert len(ids) == 10
    assert list(zip(*(rows.column(f"{a}.ID").tolist() for a in "tuv"))) == ids


def test_cross_product_in_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(eng, "_CROSS_CHUNK", 4)  # several blocks per product
    rng = random.Random(7)
    schema, db = _fixture(rng, tmp_path, "lp 1.0")
    for sql in ("SELECT count(*) FROM t, u, v WHERE v.g > t.tk AND t.s <> u.w",
                "SELECT sum(t.a) FROM t, u WHERE t.a < u.c"):
        ctx = sf.validate(sf.parse_query(sql), schema)
        assert eng.run_initial(ctx, db) == oracle_initial(ctx, db)
        rows = eng.public_rows(ctx, db)
        ids = [tuple(e[f"{a}.ID"] for a in "tuv" if f"{a}.ID" in e)
               for e in oracle_rows(ctx, db, ctx.public_pred)]
        got = list(zip(*(rows.column(f"{a}.ID").tolist() for a in "tuv" if a in rows.rows)))
        assert got == ids and len(ids) > 4


def test_shared_public_rows_give_the_same_results(tmp_path):
    rng = random.Random(99)
    schema, db = _fixture(rng, tmp_path, "lp 1.0")
    sql = "SELECT sum(t.a + u.c) FROM t, u, v WHERE t.tk = u.uk AND u.uk = v.vk AND t.a < 4.5"
    ctx = sf.validate(sf.parse_query(sql), schema)
    plan = build_plan(ctx, PlanParams(beta=0.1, alpha=2.0))
    rows = eng.public_rows(ctx, db)
    assert len(rows) == len(oracle_rows(ctx, db, ctx.public_pred))
    assert eng.run_modified(plan, db, rows) == eng.run_modified(plan, db)
    assert eng.run_sensitivity(plan, db, rows)[0] == eng.run_sensitivity(plan, db)[0]


# ---------------------------------------------------------------------------
# Branches evaluate only the rows that take them
# ---------------------------------------------------------------------------

X, Y = Col("t.a"), Col("t.b")
XS, YS = [0.0, 2.0, 0.0, 3.5, 0.25], [1.0, 0.0, 0.0, 2.0, 4.0]

# n-ary lp norms, whose compiled kernels and renderings no query reaches
LP_NORMS = [
    LpNorm(1.0, (X, Sum((Y, Const(-2.0))))),
    LpNorm(2.0, (X, Y, Const(-1.5))),
    LpNorm(3.0, (Sum((X, Prod((Const(-1.0), Y)))), Y)),
    LpNorm(INF, (X, Prod((Const(-1.0), Y)), Const(0.5))),
]


def _frame(tmp_path, xs, ys):
    write_table(str(tmp_path), "t", ["a", "b"], [[x, y] for x, y in zip(xs, ys)])
    schema = sf.parse_schema("table t\ncol a real\ncol b real\nnorm lp 1.0 a b\n")
    db = sf.load_database(str(tmp_path), schema)
    ctx = sf.validate(sf.parse_query("SELECT sum(t.a + t.b) FROM t"), schema)
    rows = eng.public_rows(ctx, db)
    envs = [{"t.a": x, "t.b": y} for x, y in zip(xs, ys)]
    return eng._Frame(rows, {}), envs


@pytest.mark.parametrize("expr", [
    IfGE(Const(0.0), X, Const(0.0), Prod((X, Ln(X)))),  # ln only where x > 0
    IfGE(Const(0.0), Y, Const(0.0), Div(Const(1.0), Y)),  # 1/y only where y > 0
    IfGE(X, Const(0.5), Ln(X), Const(-1.0)),  # ln only where x >= 0.5
    IfGE(X, Const(0.5), Power(X, 0.5), Sum((X, Const(3.0)))),
    Prod((IfGE(Const(0.0), Y, Const(0.0), Div(X, Y)),
          Sigmoid(2.0, Sum((X, Prod((Const(-1.0), Y))))))),
    *LP_NORMS,
])
def test_branches_skip_rows_that_would_fail(tmp_path, expr):
    frame, envs = _frame(tmp_path, XS, YS)
    got = eng._Compiler()(expr)(frame)
    want = np.array([eval_scalar(expr, env) for env in envs])
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("expr", LP_NORMS)
def test_lp_norms_render_as_they_evaluate(expr):
    con = strict_sqlite()
    con.execute("CREATE TABLE t (a REAL, b REAL)")
    con.executemany("INSERT INTO t VALUES (?, ?)", list(zip(XS, YS)))
    stmt = sf.print_expr(sqlite_dialect(sf.parse_emitted(f"SELECT {render(expr)} FROM t;").select))
    got = [v for (v,) in con.execute(f"SELECT {stmt} FROM t").fetchall()]
    want = [eval_scalar(expr, {"t.a": x, "t.b": y}) for x, y in zip(XS, YS)]
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_live_rows_still_raise(tmp_path):
    frame, envs = _frame(tmp_path, [1.0, -2.0], [1.0, 1.0])
    expr = IfGE(Y, Const(0.5), Ln(X), Const(0.0))  # the negative row takes ln
    with pytest.raises(EvalError):
        eval_scalar(expr, envs[1])
    with pytest.raises(EvalError):
        eng._Compiler()(expr)(frame)


def test_equal_subtrees_are_computed_once(tmp_path):
    frame, _ = _frame(tmp_path, [1.0, 2.0], [3.0, 4.0])
    compile_ = eng._Compiler()
    sig = Sigmoid(2.0, Sum((X, Const(-1.5))))
    twice = Sum((sig, Prod((Sigmoid(2.0, Sum((X, Const(-1.5)))), Y))))
    compile_(twice)(frame)
    assert compile_(sig) is compile_(Sigmoid(2.0, Sum((X, Const(-1.5)))))
    assert len(frame.memo) == len(compile_._done)
