"""Checks of the program's outputs that do not go through its engine.

- `harness_initial`: the original query under SQL semantics, summed with
  `math.fsum` over the generated rows.
- `SqliteDeployment`: the emitted SQL run on stdlib sqlite3, after a dialect
  switch on the parsed statement (`^` -> pow, greatest/least -> max/min).
- `derivative_property`: |F(x') - F(x)| <= h c(x) e^(beta h) when one row
  moves by h units of its table norm.
- `noise_ks`: seeded noise draws against the generalized-Cauchy CDF from
  numerical quadrature, with a DKW bound.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import random
import sqlite3

import inputs

REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# The original queries, computed from the generated rows
# ---------------------------------------------------------------------------


def harness_initial(workload: str, tables: dict[str, list[dict]]) -> float:
    """Exact value of the release query over the rows as generated."""
    if workload == "release_scan":
        limit = 230.3 - 30
        return math.fsum(
            r["l_quantity"] for r in tables["lineitem"]
            if r["l_shipdateG"] <= limit and r["l_returnflag"] == "R" and r["l_linestatus"] == "F"
        )
    dated = {o["o_orderkey"] for o in tables["orders"] if o["o_orderdateG"] <= 200.3}
    return math.fsum(
        r["l_extendedprice"] for r in tables["lineitem"]
        if r["l_returnflag"] == "R" and r["l_orderkey"] in dated
    )


# ---------------------------------------------------------------------------
# sqlite: the emitted SQL on a real SQL engine
# ---------------------------------------------------------------------------


def _sqlite_dialect(node, sf):
    """Rewrite a parsed emitted statement for sqlite."""
    if isinstance(node, tuple):
        return tuple(_sqlite_dialect(n, sf) for n in node)
    if not dataclasses.is_dataclass(node):
        return node
    if isinstance(node, sf.BinOp) and node.op == "^":
        return sf.FuncCall("pow", (_sqlite_dialect(node.lhs, sf), _sqlite_dialect(node.rhs, sf)))
    if isinstance(node, sf.FuncCall) and node.name in ("greatest", "least"):
        name = "max" if node.name == "greatest" else "min"
        return sf.FuncCall(name, _sqlite_dialect(node.args, sf))
    return dataclasses.replace(node, **{
        f.name: _sqlite_dialect(getattr(node, f.name), sf) for f in dataclasses.fields(node)
    })


def sqlite_statement(sql: str, sf) -> str:
    es = _sqlite_dialect(sf.parse_emitted(sql), sf)
    return sf.print_expr(sf.SubQuery(es))[1:-1]


def null_rows_statement(sql: str, sf) -> str | None:
    """For `SELECT agg(x) FROM .. WHERE ..`: count the rows whose x is NULL
    in sqlite (NaN from an overflowed exp turns into NULL)."""
    es = _sqlite_dialect(sf.parse_emitted(sql), sf)
    if not (isinstance(es.select, sf.FuncCall) and len(es.select.args) == 1 and es.tables):
        return None
    x = sf.print_expr(es.select.args[0])
    froms = ", ".join(t if t == a else f"{t} AS {a}" for t, a in es.tables)
    return f"SELECT count(*) - count({x}) FROM {froms} WHERE {sf.print_pred(es.where)}"


class SqliteDeployment:
    """An in-memory sqlite database holding a dataset directory."""

    def __init__(self, data_dir: str, tables: list[str]):
        self.con = sqlite3.connect(":memory:")
        for name in tables:
            cols = [c for c, _ in _columns(name)]
            types = dict(_columns(name))
            decl = ", ".join(f"{c} {'TEXT' if types[c] == 'text' else 'REAL'}" for c in cols)
            self.con.execute(f"CREATE TABLE {name} (ID INTEGER, {decl})")
            self.con.execute(f"CREATE TABLE {name}_sensRows (ID INTEGER, sensitive INTEGER)")
            for suffix, width in (("", len(cols) + 1), ("_sensRows", 2)):
                path = os.path.join(data_dir, f"{name}{suffix}.csv")
                if not os.path.exists(path):
                    continue
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                marks = ",".join("?" * width)
                self.con.executemany(f"INSERT INTO {name}{suffix} VALUES ({marks})", rows)

    def value(self, statement: str) -> float | None:
        return self.con.execute(statement).fetchone()[0]

    def prepares(self, statement: str) -> str | None:
        """None when sqlite accepts the statement, else its error."""
        try:
            self.con.execute("EXPLAIN " + statement).fetchall()
        except sqlite3.Error as exc:
            return str(exc)
        return None

    def close(self) -> None:
        self.con.close()


def _columns(table: str) -> list[tuple[str, str]]:
    out = []
    for line in inputs.TABLE_TEXT[table].splitlines():
        bits = line.split()
        if bits and bits[0] == "col":
            out.append((bits[1], bits[2]))
    return out


# ---------------------------------------------------------------------------
# Derivative sensitivity, observed by moving rows
# ---------------------------------------------------------------------------

STEPS = (1e-3, 0.3, 5.0)


def _cli_json(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"dersens {' '.join(argv[:1])} exited with {rc}")
    return json.loads(buf.getvalue())


def derivative_property(cli, workload: str, seed: int, work_dir: str,
                        release_args: list[str]) -> tuple[dict, list[str]]:
    """Write the companion dataset to <work_dir>/companion, then move its
    worst-group row and two seeded sensitive rows of every sensitive table by
    +-h norm units in each sensitive column the query reads.  Returns
    `dersens run --json` on the unmoved data and the violations of
    |F(x') - F(x)| <= h c(x) e^(beta h)."""
    tables, masks, query = inputs.release_inputs(workload, seed, small=True)
    base = os.path.join(work_dir, "companion")
    inputs.write_dataset(base, tables, masks)
    qpath = os.path.join(work_dir, "companion.sql")
    with open(qpath, "w") as fh:
        fh.write(query)

    def run(data_dir: str) -> dict:
        return _cli_json(cli, ["run", "--query", qpath, "--schema", os.path.join(data_dir, "schema.txt"),
                               "--data", data_dir, "--json", *release_args])

    ref = run(base)
    fx, cx = ref["modified"], ref["sensitivity"]
    beta = max(inputs.BETA, ref["achieved_beta"])
    rng = random.Random(f"{seed}/moves")
    moved = os.path.join(work_dir, "moved")
    bad = []
    for group in ref["groups"]:
        table = group["table"]
        cols = [k.split(".", 1)[1] for k in inputs.COLUMN_SCALE
                if k.startswith(table + ".") and k.split(".", 1)[1] in query]
        sens_ids = [i for i, f in enumerate(masks[table]) if f]
        rows = [int(group["worst_row"]) - 1] + rng.sample(sens_ids, 2)
        for i in rows:
            for col in cols:
                scale = inputs.COLUMN_SCALE[f"{table}.{col}"]
                for h in STEPS:
                    for sign in (1.0, -1.0):
                        data = copy.deepcopy(tables)
                        data[table][i][col] = data[table][i][col] + sign * h / scale
                        inputs.write_dataset(moved, data, masks)
                        fy = run(moved)["modified"]
                        bound = h * cx * math.exp(beta * h)
                        if abs(fy - fx) > bound * (1 + REL_TOL) + 1e-12 * abs(fx):
                            bad.append(f"{table} row {i + 1} {col} {sign * h:+g}: "
                                       f"|dF|={abs(fy - fx):.6g} > {bound:.6g}")
    return ref, bad


# ---------------------------------------------------------------------------
# Noise distribution
# ---------------------------------------------------------------------------

KS_DRAWS = 100_000
KS_ALPHA = 1e-6  # chance that a correct sampler fails the check


def noise_ks(sample, gamma: float, seed: int) -> tuple[float, float]:
    """(an upper bound on the KS distance of KS_DRAWS seeded draws from the
    density ~ 1/(1+|x|^gamma), the DKW bound it must stay under)."""
    import numpy as np
    from scipy.integrate import quad

    draws = np.sort(np.asarray(sample(gamma, seed, KS_DRAWS), dtype=float))
    n = len(draws)

    def density(x):
        return 1.0 / (1.0 + abs(x) ** gamma)

    z = 2.0 * quad(density, 0.0, math.inf)[0]
    pos = np.concatenate([np.arange(0.0, 5.0, 1e-3), 5.0 * 1.01 ** np.arange(0, 1400)])
    half = np.concatenate([[0.0], np.cumsum([quad(density, a, b)[0] for a, b in zip(pos[:-1], pos[1:])])])
    grid = np.concatenate([-pos[:0:-1], pos])
    cdf = np.concatenate([0.5 - half[:0:-1] / z, 0.5 + half / z])
    # Between grid points F and the empirical CDF are monotone, so the
    # largest gap over [g_i, g_i+1] is bounded by its endpoint values.
    grid = np.concatenate([[-math.inf], grid, [math.inf]])
    cdf = np.concatenate([[0.0], cdf, [1.0]])
    below = np.searchsorted(draws, grid, side="left") / n  # F_n just before g
    upto = np.searchsorted(draws, grid, side="right") / n  # F_n at g
    d = max(float(np.max(below[1:] - cdf[:-1])), float(np.max(cdf[1:] - upto[:-1])))
    return d, math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))
