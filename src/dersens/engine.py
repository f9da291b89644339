"""In-process evaluator for initial queries, modified queries and sensitivity
plans; replaces a live database for hermetic runs.

Evaluation is columnar, after the vectorized execution of MonetDB/X100
(Boncz et al., CIDR 2005).  `public_rows` binds the loaded column arrays a
query reads without copying them, applies single-table conjuncts as boolean
masks, runs `a.x = b.y` conjuncts as sort-based equi-joins and the other
cross-table conjuncts as masks on the joined rows (a cross product is formed
and filtered a block at a time), and returns the join as per-alias row
numbers in nested-loop order (first table slowest).  Each ScalarExpr is
compiled once into numpy closures; structurally equal subtrees share one
closure and one value per row set.  Under IfGE, the one branching node,
each branch is evaluated only on the rows that take it, so domain errors
are raised exactly for rows a tree walk would evaluate.  Aggregation is exact
(`math.fsum`, ordered products and ordered per-group accumulation), so
repeated runs are bit-identical.

The engine does not run emitted SQL; the tests run it on sqlite3 and
compare it with `run_modified` and `run_sensitivity`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress
from typing import Callable, Mapping

import numpy as np

from dersens import sqlfront as sf
from dersens.analyzer import SensitivityPlan
from dersens.exprs import (
    Col,
    Const,
    Div,
    EvalError,
    Exp,
    IfGE,
    Ln,
    LpNorm,
    Max,
    Min,
    Opaque,
    Power,
    Prod,
    ScalarExpr,
    Sigmoid,
    SigmoidDeriv,
    Sum,
    Tauoid,
    checked_fsum,
    dual_exponent,
    eval_scalar,  # re-exported: the row-at-a-time oracle of the compiled path
)
from dersens.norms import INF, lp_norm
from dersens.sqlfront import (
    AnalysisContext,
    BinOp,
    BoolOp,
    Cmp,
    ColRef,
    Database,
    FuncCall,
    LikePred,
    NotPred,
    Number,
    Pred,
    SqlExpr,
    StrLit,
    TruePred,
)

__all__ = [
    "EngineError",
    "GroupBreakdown",
    "Relation",
    "eval_scalar",
    "public_rows",
    "run_initial",
    "run_modified",
    "run_sensitivity",
]


class EngineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Row semantics of the SQL subset, shared with the tests' nested-loop oracle
# ---------------------------------------------------------------------------


def _like_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _pow(a, b):
    try:
        out = a**b
    except (ValueError, OverflowError, ZeroDivisionError):
        raise EngineError("power failed: it overflows or is undefined") from None
    if isinstance(out, complex):
        raise EngineError("power failed: a negative value to a non-integer power is not real")
    return out


def _call(name: str, *args):
    """Scalar functions of the SQL subset."""
    if name == "abs":
        return abs(args[0])
    if name == "exp":
        try:
            return math.exp(args[0])
        except OverflowError:
            return math.inf  # as IEEE arithmetic and sqlite give
    if name in ("ln", "sqrt"):
        try:
            return math.log(args[0]) if name == "ln" else math.sqrt(args[0])
        except ValueError:
            raise EngineError(f"{name} of a value outside its domain is undefined") from None
    if name == "greatest":
        return max(args)
    if name == "least":
        return min(args)
    raise EngineError(f"unknown function '{name}' in row context")


def _cmp(op: str, a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        if op == "=":
            return a == b
        if op == "<>":
            return a != b
        raise EngineError("text values only compare with = and <>")
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    raise EngineError(f"unknown comparison '{op}'")


# ---------------------------------------------------------------------------
# Binding: loaded columns, filters and joins
# ---------------------------------------------------------------------------


class Relation:
    """Rows of a join of loaded tables: for each alias, one row number per
    joined row into that alias's column arrays."""

    def __init__(self, tables: Mapping[str, Mapping[str, np.ndarray]],
                 rows: Mapping[str, np.ndarray], n: int):
        self.tables = tables  # alias -> 'alias.column' -> values over the table
        self.rows = rows
        self.n = n
        self._cols: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self.n

    def column(self, name: str) -> np.ndarray | None:
        """Values of 'alias.column' (or 'alias.ID', 'alias.__sens__') per
        joined row; None when no joined alias has it."""
        got = self._cols.get(name)
        if got is None:
            alias = name.partition(".")[0]
            base = self.tables.get(alias, {}).get(name)
            if base is None or alias not in self.rows:
                return None
            got = self._cols[name] = base[self.rows[alias]]
        return got

    def take(self, idx: np.ndarray) -> Relation:
        """The joined rows at positions `idx` (indices or a boolean mask)."""
        rows = {a: r[idx] for a, r in self.rows.items()}
        n = int(np.count_nonzero(idx)) if idx.dtype == bool else len(idx)
        return Relation(self.tables, rows, n)

    def extend(self, alias: str, rows: np.ndarray) -> Relation:
        return Relation(self.tables, {**self.rows, alias: rows}, self.n)


def _load(ctx: AnalysisContext, db: Database) -> dict[str, dict[str, np.ndarray]]:
    """Per alias: the ID and sensitivity arrays and the columns the query
    reads (`ctx.refs`), bound by reference (the loaded arrays are read-only)."""
    tables: dict[str, dict[str, np.ndarray]] = {}
    for table, alias in ctx.query.tables:
        td = db.table(table)
        cols = {f"{alias}.ID": td.ids, f"{alias}.__sens__": td.sensitive}
        for name, r in ctx.refs.items():
            if r.alias == alias and r.column in td.columns:
                cols[name] = td.columns[r.column]
        tables[alias] = cols
    return tables


def _equi_key(c: Pred, rel: Relation, alias: str) -> tuple[str, str] | None:
    """('joined.col', 'alias.col') when `c` is an equality between a column
    of the joined aliases and one of `alias` with values of the same kind."""
    if not (isinstance(c, Cmp) and c.op == "="
            and isinstance(c.lhs, ColRef) and isinstance(c.rhs, ColRef)):
        return None
    for mine, other in ((c.rhs, c.lhs), (c.lhs, c.rhs)):
        if mine.table == alias and other.table in rel.rows:
            a = rel.tables[other.table].get(other.name)
            b = rel.tables[alias].get(mine.name)
            if a is not None and b is not None and (a.dtype == object) == (b.dtype == object):
                return other.name, mine.name
    return None


def _equi_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) with left[i] == right[j], by sorting `right`."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left, "left")
    counts = np.searchsorted(keys, left, "right") - lo
    if left.dtype != object:
        counts[np.isnan(left)] = 0  # NaN equals nothing
    li = np.repeat(np.arange(len(left)), counts)
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return li, order[starts + np.arange(len(li))]


# joined rows a cross product materializes at once, before its filters
_CROSS_CHUNK = 1 << 20


def _cross(rel: Relation, alias: str, rows: np.ndarray, conjuncts: list[Pred]) -> Relation:
    """`rel` times the `rows` of `alias`, filtered by `conjuncts` one block of
    `rel` at a time, so that memory follows the filtered result rather than
    the product."""
    k = len(rows)
    step = max(1, _CROSS_CHUNK // max(k, 1))
    parts = []
    for lo in range(0, max(len(rel), 1), step):
        left = np.arange(lo, min(lo + step, len(rel)))
        part = rel.take(np.repeat(left, k)).extend(alias, np.tile(rows, len(left)))
        for c in conjuncts:
            part = part.take(_mask(c, part))
        parts.append(part)
    joined = {a: np.concatenate([p.rows[a] for p in parts]) for a in parts[0].rows}
    return Relation(rel.tables, joined, sum(len(p) for p in parts))


def _join(ctx: AnalysisContext, db: Database, pred: Pred) -> Relation:
    """The query's tables joined under the conjuncts of `pred`, in
    nested-loop order."""
    tables = _load(ctx, db)
    order = [alias for _, alias in ctx.query.tables]
    cand = {a: np.arange(len(db.table(t).ids)) for t, a in ctx.query.tables}
    pending: list[tuple[Pred, set[str]]] = []
    for c in sf._flatten_and(pred):
        refs = {r.table for r in sf._walk_refs(c)}
        alias = next(iter(refs)) if len(refs) == 1 else None
        if alias in cand:
            rel = Relation(tables, {alias: cand[alias]}, len(cand[alias]))
            cand[alias] = cand[alias][_mask(c, rel)]
        else:
            pending.append((c, refs))

    def apply_ready(rel: Relation, final: bool = False) -> Relation:
        for item in list(pending):
            if final or item[1].issubset(rel.rows):
                pending.remove(item)
                rel = rel.take(_mask(item[0], rel))
        return rel

    def equi_link(rel: Relation, todo: list[str]):
        for b in todo:
            for item in pending:
                key = _equi_key(item[0], rel, b)
                if key is not None:
                    return b, item, key
        return None

    first = order[0]
    rel = apply_ready(Relation(tables, {first: cand[first]}, len(cand[first])))
    todo = order[1:]
    while todo:
        # join a table linked to the joined ones by an equality first
        link = equi_link(rel, todo)
        if link is not None:
            b, item, (lname, rname) = link
            pending.remove(item)
            li, ri = _equi_pairs(rel.column(lname), tables[b][rname][cand[b]])
            rel = rel.take(li).extend(b, cand[b][ri])
        else:
            b = todo[0]
            ready = [item for item in pending if item[1].issubset({*rel.rows, b})]
            for item in ready:
                pending.remove(item)
            rel = _cross(rel, b, cand[b], [c for c, _ in ready])
        todo.remove(b)
        rel = apply_ready(rel)
    rel = apply_ready(rel, final=True)
    if len(order) > 1:
        rel = rel.take(np.lexsort([rel.rows[a] for a in reversed(order)]))
    return rel


def public_rows(ctx: AnalysisContext, db: Database) -> Relation:
    """The queried tables joined under the public filter.

    Single-table conjuncts filter each table before the join; the result,
    in nested-loop order, is identical to filtering the full cross product.
    """
    with np.errstate(all="ignore"):
        return _join(ctx, db, ctx.public_pred)


# ---------------------------------------------------------------------------
# Columnar evaluation of query expressions and predicates
# ---------------------------------------------------------------------------


def _column(rel: Relation, ref: ColRef) -> np.ndarray:
    got = rel.column(ref.name)
    if got is None:
        if len(rel):
            raise EngineError(f"no column '{ref.name}' in row")
        return np.empty(0)
    return got


def _elementwise(fn: Callable, *arrays: np.ndarray) -> np.ndarray:
    out = [fn(*vals) for vals in zip(*(a.tolist() for a in arrays))]
    return np.array(out, dtype=float) if out else np.empty(0)


def _values(e: SqlExpr, rel: Relation) -> np.ndarray:
    n = len(rel)
    if isinstance(e, Number):
        return np.full(n, e.value, dtype=float)
    if isinstance(e, StrLit):
        return np.full(n, e.value, dtype=object)
    if isinstance(e, ColRef):
        return _column(rel, e)
    if isinstance(e, BinOp):
        a, b = _values(e.lhs, rel), _values(e.rhs, rel)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.any(b == 0):
                raise EngineError("division by zero")
            return a / b
        if e.op == "^":
            return _elementwise(_pow, a, b)
    if isinstance(e, FuncCall):
        return _elementwise(partial(_call, e.name), *(_values(a, rel) for a in e.args))
    raise EngineError(f"cannot evaluate {type(e).__name__} over a table")


def _mask(p: Pred, rel: Relation) -> np.ndarray:
    n = len(rel)
    if isinstance(p, TruePred):
        return np.ones(n, dtype=bool)
    if isinstance(p, Cmp):
        a, b = _values(p.lhs, rel), _values(p.rhs, rel)
        if p.op in ("=", "<>") or (a.dtype != object and b.dtype != object):
            return np.asarray(_cmp(p.op, a, b), dtype=bool)
        # ordering on values that may be text: per row, so text raises
        return np.array([_cmp(p.op, x, y) for x, y in zip(a.tolist(), b.tolist())], dtype=bool)
    if isinstance(p, LikePred):
        rx = _like_regex(p.pattern)
        hit = np.array([rx.match(str(v)) is not None for v in _column(rel, p.col).tolist()],
                       dtype=bool)
        return ~hit if p.negated else hit
    if isinstance(p, NotPred):
        return ~_mask(p.arg, rel)
    if isinstance(p, BoolOp):
        masks = [_mask(a, rel) for a in p.args]
        if p.op == "and":
            return np.logical_and.reduce(masks)
        if p.op == "or":
            return np.logical_or.reduce(masks)
        return np.logical_xor.reduce(masks)
    raise EngineError(f"cannot evaluate predicate {type(p).__name__}")


# ---------------------------------------------------------------------------
# Compiled ScalarExpr evaluation
# ---------------------------------------------------------------------------


class _Frame:
    """A set of joined rows being evaluated: the relation, the derived
    values bound to it, and the values of compiled nodes computed so far.
    A frame cut from another reuses its parent's node values."""

    def __init__(self, rel: Relation, bound: dict[str, np.ndarray],
                 parent: _Frame | None = None, sel: np.ndarray | None = None):
        self.rel = rel
        self.n = len(rel)
        self.bound = bound
        self.parent = parent
        self.sel = sel
        self.memo: dict[int, np.ndarray] = {}

    def take(self, mask: np.ndarray) -> _Frame:
        if mask.all():
            return self
        sel = np.flatnonzero(mask)
        bound = {k: v[sel] for k, v in self.bound.items()}
        return _Frame(self.rel.take(sel), bound, self, sel)

    def cached(self, slot: int) -> np.ndarray | None:
        got = self.memo.get(slot)
        if got is None and self.parent is not None:
            got = self.parent.cached(slot)
            if got is not None:
                got = self.memo[slot] = got[self.sel]
        return got

    def binding(self, key: str, what: str) -> np.ndarray:
        got = self.bound.get(key)
        if got is None:
            got = self.rel.column(key)
        if got is None:
            if self.n:
                raise EvalError(f"no binding for {what} '{key}'")
            return np.empty(0)
        return np.asarray(got, dtype=float)


Compiled = Callable[[_Frame], np.ndarray]


def _row_fsum(parts: list[np.ndarray]) -> np.ndarray:
    """Per-row `checked_fsum` of the parts: EvalError where a sum of finite
    parts overflows or inf meets -inf."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        out = parts[0] + parts[1]  # exact rounding, as fsum of two
        if np.isfinite(out).all():
            return out
    return _elementwise(lambda *v: checked_fsum(v), *parts)


class _Compiler:
    """Compiles ScalarExprs into numpy closures.  Structurally equal subtrees
    (the IR is made of frozen dataclasses) share one closure, whose value is
    computed once per frame."""

    def __init__(self):
        self._done: dict[ScalarExpr, Compiled] = {}

    def __call__(self, e: ScalarExpr) -> Compiled:
        fn = self._done.get(e)
        if fn is None:
            # children are compiled, and numbered, before their parent
            raw, slot = self._node(e), len(self._done)

            def fn(fr: _Frame) -> np.ndarray:
                got = fr.cached(slot)
                if got is None:
                    got = fr.memo[slot] = raw(fr)
                return got

            self._done[e] = fn
        return fn

    def _node(self, e: ScalarExpr) -> Compiled:
        if isinstance(e, Const):
            return lambda fr: np.full(fr.n, e.value)
        if isinstance(e, Col):
            return lambda fr: fr.binding(e.name, "column")
        if isinstance(e, Opaque):
            return lambda fr: fr.binding(e.key, "derived value")
        if isinstance(e, (Sum, Prod, Min, Max, LpNorm)):
            return self._nary(e, [self(c) for c in e.children])
        if isinstance(e, IfGE):
            test, threshold = self(e.test), self(e.threshold)
            if_true, if_false = self(e.if_true), self(e.if_false)

            def if_ge(fr):
                # each branch is evaluated only on the rows that take it
                mask = test(fr) >= threshold(fr)
                out = np.empty(fr.n)
                for m, branch in ((mask, if_true), (~mask, if_false)):
                    if m.any():
                        out[m] = branch(fr.take(m))
                return out

            return if_ge
        if isinstance(e, Div):
            num, den = self(e.num), self(e.den)

            def div(fr):
                d = den(fr)
                if np.any(d == 0.0):
                    raise EvalError("division by zero")
                return num(fr) / d

            return div
        child = self(e.child)
        if isinstance(e, Power):
            def power(fr):
                base = child(fr)
                if e.r != round(e.r) and np.any(base < 0.0):
                    raise EvalError("a negative value to a non-integer power is not real")
                out = base**e.r
                if np.any(np.isfinite(base) & ~np.isfinite(out)):
                    raise EvalError("a power of a value overflows")
                return out

            return power
        if isinstance(e, Exp):
            def exp(fr):
                x = e.rate * child(fr)
                out = np.exp(x)
                if np.any(np.isfinite(x) & np.isinf(out)):
                    raise EvalError("exp overflows")
                return out

            return exp
        if isinstance(e, Ln):
            def ln(fr):
                v = child(fr)
                if np.any(v <= 0.0):
                    raise EvalError("ln of a non-positive value")
                return np.log(v)

            return ln
        a = e.alpha
        if isinstance(e, Sigmoid):
            def sigmoid(fr):
                # branch on the sign so the exponential never overflows
                t = a * child(fr)
                z = np.exp(-np.abs(t))
                return np.where(t >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

            return sigmoid
        if isinstance(e, SigmoidDeriv):
            def sigmoid_deriv(fr):
                z = np.exp(-np.abs(a * child(fr)))
                return a * z / (1.0 + z) ** 2

            return sigmoid_deriv
        if isinstance(e, Tauoid):
            def tauoid(fr):
                z = np.exp(-np.abs(a * child(fr)))
                return 2.0 * z / (1.0 + z * z)

            return tauoid
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    @staticmethod
    def _nary(e, kids: list[Compiled]) -> Compiled:
        if isinstance(e, Sum):
            return lambda fr: _row_fsum([k(fr) for k in kids])
        if isinstance(e, Prod):
            return lambda fr: reduce(np.multiply, [k(fr) for k in kids])
        if isinstance(e, Min):
            return lambda fr: reduce(np.minimum, [k(fr) for k in kids])
        if isinstance(e, Max):
            return lambda fr: reduce(np.maximum, [k(fr) for k in kids])
        p = e.p
        if p == INF:
            return lambda fr: reduce(np.maximum, [np.abs(k(fr)) for k in kids])
        if p == 1.0:
            return lambda fr: _row_fsum([np.abs(k(fr)) for k in kids])
        return lambda fr: _row_fsum([np.abs(k(fr)) ** p for k in kids]) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Initial query (exact SQL semantics)
# ---------------------------------------------------------------------------


def _check_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise EngineError(f"{what} overflowed to {value}")
    return value


def _aggregate(agg: str, vals: np.ndarray) -> float:
    if agg in ("SUM", "COUNT"):
        return _check_finite(checked_fsum(vals.tolist()), agg)
    if agg == "PRODUCT":
        return _check_finite(math.prod(vals.tolist(), start=1.0), "PRODUCT")
    if not len(vals):
        raise EngineError(f"{agg} over an empty row set has no value")
    return _check_finite(float(vals.min() if agg == "MIN" else vals.max()), agg)


def run_initial(ctx: AnalysisContext, db: Database, rows: Relation | None = None) -> float:
    """Exact value of the original query: boolean filters, no approximation.
    `rows` is `public_rows(ctx, db)` when the caller has bound it already;
    the WHERE clause is the public filter and the residual conjuncts, so
    only the residual ones are applied to it."""
    if rows is None:
        rows = public_rows(ctx, db)
    q = ctx.query
    agg = q.aggregator.upper()
    with np.errstate(all="ignore"):
        for c in sf._flatten_and(ctx.residual_pred):
            rows = rows.take(_mask(c, rows))
        if agg == "COUNT":
            return float(len(rows))
        return _aggregate(agg, np.asarray(_values(q.select, rows), dtype=float))


# ---------------------------------------------------------------------------
# Modified query and sensitivity
# ---------------------------------------------------------------------------


def _bind(plan: SensitivityPlan, rows: Relation, compile_: _Compiler) -> _Frame:
    """The public rows with the plan's derived values bound."""
    bound: dict[str, np.ndarray] = {}
    for key, spec in plan.opaques.items():
        if spec.kind == "indicator":
            bound[key] = _mask(spec.pred, rows).astype(float)
    frame = _Frame(rows, bound)
    n = len(rows)
    for key, spec in plan.opaques.items():
        if spec.kind == "span":
            vals = compile_(spec.expr)(frame)
            bound[key] = np.full(n, (vals.max() - vals.min()) if n else 0.0)
        elif spec.kind == "prodbound":
            acc = math.prod(np.maximum(compile_(spec.expr)(frame), 1.0).tolist())
            bound[key] = np.full(n, acc)
    return frame


def run_modified(plan: SensitivityPlan, db: Database, rows: Relation | None = None) -> float:
    """Evaluate the continuous rewrite over the public-filtered join.  `rows`
    is `public_rows(plan.ctx, db)` when the caller has bound it already."""
    if rows is None:
        rows = public_rows(plan.ctx, db)
    compile_ = _Compiler()
    with np.errstate(all="ignore"):
        frame = _bind(plan, rows, compile_)
        return _aggregate(plan.aggregator, compile_(plan.row_expr)(frame))


@dataclass
class GroupBreakdown:
    alias: str
    table: str
    groups: dict[str, float]
    argmax: str | None
    value: float


def run_sensitivity(
    plan: SensitivityPlan, db: Database, rows: Relation | None = None
) -> tuple[float, list[GroupBreakdown]]:
    """Max over sensitive-row groups of the per-row smooth sensitivity bound,
    dualized across groups by the declared row combiner and summed across
    sensitive tables.  The breakdown exposes each table's worst group.
    `rows` is `public_rows(plan.ctx, db)` when the caller has bound it."""
    if rows is None:
        rows = public_rows(plan.ctx, db)
    compile_ = _Compiler()
    values: list[float] = []
    breakdown: list[GroupBreakdown] = []
    with np.errstate(all="ignore"):
        frame = _bind(plan, rows, compile_)
        for tp in plan.table_plans:
            groups: dict[str, float] = {}
            argmax = None
            sens = rows.column(f"{tp.alias}.__sens__")
            if sens is not None and sens.any():
                vals = np.abs(compile_(tp.combined)(frame.take(sens)))
                # a group is a row of the table: the loader rejects duplicate IDs
                keys, codes = np.unique(rows.rows[tp.alias][sens], return_inverse=True)
                acc = np.zeros(len(keys))
                (np.add if tp.group_agg == "sum" else np.maximum).at(acc, codes, vals)
                if np.isnan(acc).any():
                    raise EngineError(f"the sensitivity of a {tp.table} row is nan")
                ids = db.table(tp.table).ids[keys].tolist()
                groups = dict(zip(ids, acc.tolist()))
                # the worst group with the smallest ID, whatever the row order
                argmax = min(compress(ids, (acc == acc.max()).tolist()))
            value = _dual_norm(list(groups.values()), tp.rows_p)
            breakdown.append(GroupBreakdown(tp.alias, tp.table, groups, argmax, value))
            values.append(value)
    total = _dual_norm(values, plan.ctx.schema.database_p)
    return _check_finite(total, "sensitivity"), breakdown


def _dual_norm(values: list[float], p: float) -> float:
    """The norm dual to lp of non-negative values: their max for p = 1, their
    sum for p = inf, their lq norm, q = p / (p - 1), otherwise."""
    return lp_norm(values, dual_exponent(p))
