"""Query rewriting: continuous lowering of filters, norm alignment, and
per-sensitive-row sensitivity plans.

A validated query becomes (a) a modified query whose filters over sensitive
data are replaced by sigmoids/tauoids (or exact clamps on integer data) and
(b) one sensitivity query per sensitive table: the per-row smooth bound on
the derivative of the modified query, summed within the rows affected by
each sensitive source row, maximized over rows (for the usual l1 row
combiner), and summed across sensitive tables.

Smoothness accounting treats neighboring databases as differing in the rows
of one table, which is exact for l1-combined rows (the combiner used
throughout the test fixtures) and for the unit changes differential privacy
quantifies over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from dersens import exprs as ex
from dersens.exprs import (
    AnalysisError,
    Col,
    Const,
    Div,
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
    abs_expr,
    add,
    mul,
    sub,
)
from dersens.norms import INF, NormExpr, Scale, Var, norm_vars
from dersens import sqlfront as sf
from dersens.sqlfront import (
    AnalysisContext,
    BinOp,
    BoolOp,
    Cmp,
    ColRef,
    FuncCall,
    LikePred,
    NotPred,
    Number,
    Pred,
    SchemaError,
    SqlExpr,
    StrLit,
    TruePred,
    _fmt_num,
)

__all__ = [
    "OpaqueSpec",
    "PlanParams",
    "SensitivityPlan",
    "TableSensPlan",
    "align_norms",
    "build_plan",
    "emit_sql",
    "lower_aggregation",
    "render",
]

DELTA_KEY = "__span__"
PRODBOUND_KEY = "__prodbound__"


@dataclass(frozen=True)
class PlanParams:
    """Analysis knobs: requested smoothness, filter precision, exact integer
    comparisons, and whether plain OR may be lowered as XOR."""

    beta: float = 0.1
    alpha: float = 5.0
    precise_ints: bool = False
    or_as_xor: bool = False

    def __post_init__(self):
        for name in ("beta", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass
class OpaqueSpec:
    kind: str  # indicator | span | prodbound
    pred: Pred | None = None
    expr: ScalarExpr | None = None


@dataclass
class TableSensPlan:
    alias: str
    table: str
    combined: ScalarExpr  # per joined row, for this table's groups
    group_agg: str  # 'sum' or 'max' within a sensitive-row group
    rows_p: float  # declared row combiner; dual applied across groups
    scales: dict[str, float]  # s_v of each column the query reads, qualified


@dataclass
class SensitivityPlan:
    ctx: AnalysisContext
    aggregator: str
    row_expr: ScalarExpr  # modified per-row value, pre-aggregation
    sigma: ScalarExpr | None
    table_plans: list[TableSensPlan]
    opaques: dict[str, OpaqueSpec]
    params: PlanParams
    beta_achieved: float
    feasible: bool
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Surface expression -> ScalarExpr
# ---------------------------------------------------------------------------


def _constant(node: ScalarExpr, e: SqlExpr) -> float | None:
    """The value of `node`, lowered from `e`, when `e` reads no column (nan
    where it is undefined); None when it reads one."""
    return None if any(sf._walk_refs(e)) else _value(node)


def _value(node: ScalarExpr) -> float:
    """The value of a node that reads no column, nan where it is undefined."""
    try:
        return ex.eval_scalar(node, {})
    except ex.EvalError:
        return math.nan


def _defined(node: ScalarExpr, e: SqlExpr) -> ScalarExpr:
    """`node`, refused when `e` reads no column and has no finite value:
    `run` would refuse it on every database.  A finite constant stays a
    node, printed as it is written."""
    value = _constant(node, e)
    if value is not None and not math.isfinite(value):
        raise SchemaError(f"constant {sf.print_expr(e)} overflows or is undefined")
    return node


def _reads_column(node: ScalarExpr) -> bool:
    return isinstance(node, (Col, Opaque)) or any(map(_reads_column, ex._subexprs(node)))


def _constant_operands(node: ScalarExpr, kind: type) -> list[ScalarExpr]:
    """The operands of the chain of `kind` (Sum or Prod) that `node` heads,
    nested nodes of that kind flattened, that read no column.  In a product,
    a division by a constant is one operand: the constant operands of its
    numerator over the denominator."""
    if isinstance(node, kind):
        return [c for k in node.children for c in _constant_operands(k, kind)]
    if kind is Prod and isinstance(node, Div) and not _reads_column(node.den):
        return [Div(Prod(tuple(_constant_operands(node.num, Prod))), node.den)]
    return [] if _reads_column(node) else [node]


def _folded(node: ScalarExpr, e: SqlExpr) -> ScalarExpr:
    """`node`, lowered from the `+`, `-`, `*` or `/` node `e`, refused when
    the constant operands of the sum or product it heads (a quotient by a
    constant is a product) have no finite sum or product: `run` would then
    refuse the query, or not, by the values of the other operands."""
    kind = Sum if isinstance(node, Sum) else Prod
    operands = _constant_operands(node, kind)
    if operands and not math.isfinite(_value(kind(tuple(operands)))):
        raise SchemaError(f"the constant part of {sf.print_expr(e)} overflows or is undefined")
    return node


class _Lowerer:
    def __init__(self, ctx: AnalysisContext, params: PlanParams):
        self.ctx = ctx
        self.params = params
        self.opaques: dict[str, OpaqueSpec] = {}
        self._n_ind = 0

    def scalar(self, e: SqlExpr) -> ScalarExpr:
        if isinstance(e, Number):
            return Const(e.value)
        if isinstance(e, StrLit):
            raise SchemaError("string literal in numeric context")
        if isinstance(e, ColRef):
            r = self.ctx.refs[e.name]
            if r.type == "text":
                raise SchemaError(f"text column '{r.name}' in numeric context")
            if r.sensitive:
                return Col(r.name)
            return Opaque(key=r.name, sql=r.name)
        if isinstance(e, BinOp):
            lhs = self.scalar(e.lhs)
            if e.op == "^":
                if not isinstance(e.rhs, Number):
                    raise SchemaError("exponent must be a numeric literal")
                return _defined(Power(lhs, e.rhs.value), e)
            rhs = self.scalar(e.rhs)
            fold = {"+": add, "-": sub, "*": mul}.get(e.op)
            if fold is not None:
                return _folded(fold(lhs, rhs), e)
            if e.op == "/":
                den_vars = ex.expr_vars(rhs)
                if den_vars:
                    raise AnalysisError(
                        "a denominator must read only public columns; rewrite the "
                        "query so it does not divide by " + ", ".join(sorted(den_vars))
                    )
                if _constant(rhs, e.rhs) == 0.0:
                    raise SchemaError(f"{sf.print_expr(e)} divides by a constant 0: it overflows "
                                      "or is undefined on every row")
                return _folded(_defined(Div(lhs, rhs), e), e)
        if isinstance(e, FuncCall):
            if e.name == "abs" and len(e.args) == 1:
                return abs_expr(self.scalar(e.args[0]))
            if e.name == "exp" and len(e.args) == 1:
                return _defined(Exp(1.0, self.scalar(e.args[0])), e)
            if e.name == "ln" and len(e.args) == 1:
                return _defined(Ln(self.scalar(e.args[0])), e)
            if e.name == "sqrt" and len(e.args) == 1:
                return _defined(Power(self.scalar(e.args[0]), 0.5), e)
            if e.name == "least" and e.args:
                return Min(tuple(self.scalar(a) for a in e.args))
            if e.name == "greatest" and e.args:
                return Max(tuple(self.scalar(a) for a in e.args))
            raise SchemaError(f"unsupported function '{e.name}'")
        raise SchemaError(f"unsupported expression {type(e).__name__}")

    # -- predicate lowering --------------------------------------------------

    def indicator(self, p: Pred) -> ScalarExpr:
        key = f"__pub{self._n_ind}__"
        self._n_ind += 1
        self.opaques[key] = OpaqueSpec("indicator", pred=p)
        sql = f"case when {sf.print_pred(p)} then 1.0 else 0.0 end"
        return Opaque(key=key, sql=sql, nonneg=True)

    def lower_pred(self, p: Pred) -> ScalarExpr:
        if isinstance(p, TruePred):
            return ex.ONE
        if isinstance(p, LikePred):
            return self.indicator(p)
        if isinstance(p, Cmp):
            if not self.ctx.sensitive(p):
                return self.indicator(p)
            return self._lower_cmp(p)
        if isinstance(p, NotPred):
            return sub(ex.ONE, self.lower_pred(p.arg))
        if isinstance(p, BoolOp):
            parts = [self.lower_pred(a) for a in p.args]
            if p.op == "and":
                out = parts[0]
                for x in parts[1:]:
                    out = mul(out, x)
                return out
            if p.op == "xor" or (p.op == "or" and (p.exclusive or self.params.or_as_xor)):
                out = parts[0]
                for x in parts[1:]:
                    out = add(out, x)
                return out
            out = parts[0]
            for x in parts[1:]:
                out = sub(add(out, x), mul(out, x))
            return out
        raise SchemaError(f"cannot lower predicate {type(p).__name__}")

    def _lower_cmp(self, p: Cmp) -> ScalarExpr:
        alpha = self.params.alpha
        # the grid density of the compared difference, when the exact
        # clamped lowering applies: 1 for integers, k for gridded reals
        grid = None
        if self.params.precise_ints:
            grid = sf.expr_precision(BinOp("-", p.lhs, p.rhs), self.ctx.refs)
        lhs, rhs = self.scalar(p.lhs), self.scalar(p.rhs)
        if p.op in ("<", "<="):
            a, b = lhs, rhs
        elif p.op in (">", ">="):
            a, b = rhs, lhs
        else:
            diff = sub(lhs, rhs)
            if grid is not None:
                eq = sub(ex.ONE, _clamp01(mul(Const(grid), abs_expr(diff))))
            else:
                eq = Tauoid(alpha, diff)
            return eq if p.op == "=" else sub(ex.ONE, eq)
        margin = sub(b, a)  # want a <(=) b, i.e. margin >(=) 0
        if grid is not None:
            margin = mul(Const(grid), margin)
            if p.op in ("<=", ">="):
                margin = add(margin, ex.ONE)
            return _clamp01(margin)
        return Sigmoid(alpha, margin)


def _clamp01(e: ScalarExpr) -> ScalarExpr:
    return Min((ex.ONE, Max((ex.ZERO, e))))


# ---------------------------------------------------------------------------
# Aggregation lowering
# ---------------------------------------------------------------------------


def lower_aggregation(
    aggregator: str, f: ScalarExpr | None, sigma: ScalarExpr | None,
    span: ScalarExpr | None = None,
) -> ScalarExpr:
    """Per-row expression whose aggregation reproduces the filtered query:
    dropped rows contribute the aggregator's neutral element.  MIN/MAX shift
    dropped rows out of range by the span of all values (wrong by design
    when nothing passes the filter; an N/A answer would itself leak)."""
    agg = aggregator.upper()
    if agg == "COUNT":
        return sigma if sigma is not None else ex.ONE
    if f is None:
        raise SchemaError(f"{agg} needs a select expression")
    if sigma is None:
        return f
    if agg == "SUM":
        return mul(f, sigma)
    if agg == "PRODUCT":
        return add(mul(sigma, f), sub(ex.ONE, sigma))
    if agg in ("MIN", "MAX"):
        if span is None:
            raise SchemaError("MIN/MAX lowering needs the value span")
        shift = mul(sub(ex.ONE, sigma), span)
        return add(f, shift) if agg == "MIN" else sub(f, shift)
    raise SchemaError(f"unknown aggregator '{aggregator}'")


# ---------------------------------------------------------------------------
# Norm alignment
# ---------------------------------------------------------------------------


def align_norms(cols: frozenset[str], ndb: NormExpr) -> dict[str, float]:
    """Scales s_v that fit the query columns `cols` of one table under its
    declared norm `ndb`, in normal form (`TableSchema.normal_norm`), by
    bare column name.

    The query norm is the flat l1 of the scaled columns, and it fits
    exactly when sum_v s_v |x_v| <= N(x) for every x, that is when the
    dual norm N*(s) is at most 1.  The scales are a top-down dual budget:
    the root has budget 1, `scaled a` multiplies it by a, and an lp block
    gives each of its m children that hold a query column the budget
    m^(-1/q), 1/p + 1/q = 1, times its own (the whole of it under an l1
    block).  A leaf's budget is its column's scale, so N*(s) = 1.  A column
    that occurs more than once in `ndb` takes its smallest budget, which is
    sound since the dual tree map is monotone.  Each column is charged
    once, however often the query reads it: `exprs.analyze` sums its
    partial derivatives over every occurrence.
    """
    scales: dict[str, float] = {}
    _spend(ndb, 1.0, cols, scales)
    return dict(sorted(scales.items()))


def _spend(n: NormExpr, budget: float, cols: frozenset[str], scales: dict[str, float]) -> None:
    if isinstance(n, Var):
        if n.name in cols:
            scales[n.name] = min(budget, scales.get(n.name, INF))
    elif isinstance(n, Scale):
        _spend(n.child, budget * n.factor, cols, scales)
    else:
        kids = [c for c in n.children if not cols.isdisjoint(norm_vars(c))]
        for c in kids:
            _spend(c, budget * len(kids) ** (1.0 / n.p - 1.0), cols, scales)


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def build_plan(ctx: AnalysisContext, params: PlanParams | None = None) -> SensitivityPlan:
    """Build the modified-query expression and the per-table sensitivity plans,
    under `params` or the defaults."""
    if params is None:
        params = PlanParams()
    low = _Lowerer(ctx, params)
    q = ctx.query
    agg = q.aggregator.upper()

    sigma = None
    if not isinstance(ctx.residual_pred, TruePred):
        sigma = low.lower_pred(ctx.residual_pred)
    f = low.scalar(q.select) if q.select is not None else None

    span = None
    if agg in ("MIN", "MAX") and sigma is not None:
        if f is None:
            raise SchemaError(f"{agg} needs a select expression")
        body = render(f)
        sql = _public_subquery(ctx, f"max({body}) - min({body})")
        span = Opaque(key=DELTA_KEY, sql=sql, nonneg=True)
        low.opaques[DELTA_KEY] = OpaqueSpec("span", expr=f)
    row_expr = lower_aggregation(agg, f, sigma, span)

    # one set of scales per sensitive table, one smooth analysis for the
    # whole row under the scaled query norm lp 1 (scaled s_v v) ..., one slot
    # per column of each table that the row reads
    used = ex.expr_vars(row_expr)
    table_scales: dict[str, dict[str, float]] = {}
    scales: dict[str, float] = {}
    for alias in ctx.sensitive_aliases:
        ts = ctx.schema.table(ctx.aliases[alias])
        prefix = alias + "."
        cols = frozenset(c for c in ts.sensitive_columns if prefix + c in used)
        fit = align_norms(cols, ts.normal_norm)
        table_scales[alias] = {prefix + c: f for c, f in fit.items()}
        scales.update(table_scales[alias])
    env = ex.env_for_scales(scales, params.beta)

    leftover = used - scales.keys()
    if leftover:
        raise SchemaError(
            "sensitive columns without a norm declaration: " + ", ".join(sorted(leftover))
        )

    bound = ex.analyze(row_expr, env)

    # each table's terms meet in the dual of its part of the query norm, the
    # max of its columns' terms, which already carry their scales
    warnings: list[str] = []
    table_plans: list[TableSensPlan] = []
    for alias in ctx.sensitive_aliases:
        table = ctx.aliases[alias]
        ts = ctx.schema.table(table)
        terms = [bound.ds.get(v, ex.ZERO) for v in table_scales[alias]]
        terms = [d for d in terms if d != ex.ZERO]
        if len(terms) > 1:
            combined = ex._fold_max([abs_expr(d) for d in terms])
        else:
            combined = terms[0] if terms else ex.ZERO
        if combined == ex.ZERO:
            warnings.append(f"table '{table}' is sensitive but the query does not touch it")
        elif agg == "PRODUCT":
            body = render(Max((bound.ubf, ex.ONE)))
            sql = _public_subquery(ctx, f"exp(sum(ln({body})))")
            pb = Opaque(key=PRODBOUND_KEY, sql=sql, nonneg=True)
            low.opaques[PRODBOUND_KEY] = OpaqueSpec("prodbound", expr=bound.ubf)
            combined = mul(abs_expr(combined), pb)
        group_agg = "max" if agg in ("MIN", "MAX") else "sum"
        table_plans.append(
            TableSensPlan(alias, table, combined, group_agg, ts.rows_p, table_scales[alias])
        )

    # only the rates of the sensitivity terms: the mechanism needs the released
    # ubds to be beta-smooth, and ubf is never released.  A raw rate r_v is
    # r_v / s_v per unit of the query norm, whose dual takes the max.
    achieved = max((bound.ds_rates.get(v, 0.0) / s for v, s in scales.items()), default=0.0)
    feasible = achieved <= params.beta * (1.0 + 1e-9)
    if not table_plans:
        warnings.append("no sensitive tables in this query; sensitivity is 0")

    return SensitivityPlan(
        ctx=ctx,
        aggregator=agg,
        row_expr=row_expr,
        sigma=sigma,
        table_plans=table_plans,
        opaques=low.opaques,
        params=params,
        beta_achieved=achieved,
        feasible=feasible,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# SQL rendering
# ---------------------------------------------------------------------------


class _Memo(dict):
    """`render`'s memo: id(node) -> entry [node, text, requests, scope], and
    what `_share` reads of the SELECT being rendered, number `scope`.  An
    entry counts the render calls of its node in `scope`, the SELECT that
    last requested it."""

    __slots__ = ("scope", "cols", "row_values", "twice")

    def __init__(self):
        self.scope = 0
        # the scope's row values, which the outer text may only read through
        # a column, in the order rendered: the column references (`cols`,
        # texts with no "(" or " "), and the other public values and the
        # entries of an earlier scope it requested, which it did not render
        # and so counts as a whole (`row_values`)
        self.cols: dict[str, None] = {}
        self.row_values: dict[str, None] = {}
        self.twice: list[list] = []  # the entries of long texts it requested more than once


_SHARED_MIN = 8  # shorter texts pay for a column only when read often; not looked for


def render(e: ScalarExpr, memo: _Memo | None = None) -> str:
    """PostgreSQL-compatible rendering (exp, abs, greatest, ^, case-when).

    `memo` holds the nodes already rendered, so a subtree shared by several
    terms is rendered once; it keeps each node alive, so that its id is not
    reused while the memo lives.  Pass one memo to the render calls of one
    statement."""
    kind = type(e)
    if kind is Const:
        return _fmt_num(e.value)
    if memo is None:
        memo = _Memo()
    if kind is Col:
        memo.cols[e.name] = None
        return e.name
    key = id(e)
    entry = memo.get(key)
    if entry is None:
        text = _render(e, memo)
        memo[key] = [e, text, 1, memo.scope]
        if kind is Opaque:
            (memo.cols if e.sql == e.key else memo.row_values)[text] = None
        return text
    if entry[3] != memo.scope:
        entry[2], entry[3] = 1, memo.scope
        text = entry[1]
        (memo.row_values if "(" in text or " " in text else memo.cols)[text] = None
    else:
        entry[2] += 1
        if entry[2] == 2 and len(entry[1]) >= _SHARED_MIN:
            memo.twice.append(entry)
    return entry[1]


class _Decay:
    """exp(-|alpha c|) of a SigmoidDeriv or Tauoid `of`, in (0, 1] as in
    exprs._tauoid: a node of its own, which their text requests at each of
    its two uses, so that `_share` can name it."""

    __slots__ = ("of",)

    def __init__(self, of: SigmoidDeriv | Tauoid):
        self.of = of


def _render(e: ScalarExpr | _Decay, memo: _Memo) -> str:
    # no node type has a subclass; the node types in about the order of how
    # often a statement holds them
    kind = type(e)
    if kind is Prod:
        out = render(e.children[0], memo)
        for c in e.children[1:]:
            out = f"({out} * {render(c, memo)})"
        return out
    if kind is Sum:
        out = render(e.children[0], memo)
        for c in e.children[1:]:
            if type(c) is Const and c.value < 0:
                out = f"({out} - {_fmt_num(-c.value)})"
            elif (type(c) is Prod and len(c.children) == 2
                  and type(c.children[0]) is Const and c.children[0].value == -1.0):
                # (-1.0) * b, the form `sub` gives a - b, is exactly -b, so
                # a + (-1.0) * b is exactly a - b
                out = f"({out} - {render(c.children[1], memo)})"
            else:
                out = f"({out} + {render(c, memo)})"
        return out
    if kind is LpNorm:
        if len(e.children) == 1:
            return f"abs({render(e.children[0], memo)})"
        if e.p == INF:
            return "greatest(" + ", ".join([f"abs({render(c, memo)})" for c in e.children]) + ")"
        if e.p == 1.0:
            out = f"abs({render(e.children[0], memo)})"
            for c in e.children[1:]:
                out = f"({out} + abs({render(c, memo)}))"
            return out
        terms = [f"(abs({render(c, memo)}) ^ {_fmt_num(e.p)})" for c in e.children]
        out = terms[0]
        for t in terms[1:]:
            out = f"({out} + {t})"
        return f"({out} ^ {_fmt_num(1.0 / e.p)})"
    if kind is Exp:
        return f"exp({_scaled(e.rate, e.child, memo)})"
    if kind is Max:
        return "greatest(" + ", ".join([render(c, memo) for c in e.children]) + ")"
    # The sigmoid and tauoid forms keep every exp() argument at most 709, so
    # none overflows in any SQL engine (exp(709) is below the largest double).
    if kind is SigmoidDeriv or kind is Tauoid:
        z = _Decay(e)
        z1, z2 = render(z, memo), render(z, memo)
        if kind is Tauoid:
            return f"((2.0 * {z1}) / (1.0 + ({z2} ^ 2.0)))"
        return f"(({_fmt_num(e.alpha)} * {z1}) / (({z2} + 1.0) ^ 2.0))"
    if kind is _Decay:
        return f"exp(-abs({_scaled(e.of.alpha, e.of.child, memo)}))"
    if kind is Sigmoid:
        return f"(1.0 / (exp(least({_scaled(-e.alpha, e.child, memo)}, 709.0)) + 1.0))"
    if kind is IfGE:
        return (
            f"case when ({render(e.test, memo)} >= {render(e.threshold, memo)}) "
            f"then {render(e.if_true, memo)} else {render(e.if_false, memo)} end"
        )
    if kind is Div:
        return f"({render(e.num, memo)} / {render(e.den, memo)})"
    if kind is Min:
        return "least(" + ", ".join([render(c, memo) for c in e.children]) + ")"
    if kind is Opaque:
        return e.sql
    if kind is Power:
        return f"({render(e.child, memo)} ^ {_fmt_num(e.r)})"
    if kind is Ln:
        return f"ln({render(e.child, memo)})"
    raise TypeError(f"cannot render {type(e).__name__}")


def _scaled(k: float, e: ScalarExpr, memo: _Memo) -> str:
    """The text of mul(Const(k), e), without building the product."""
    if isinstance(e, Const):
        return _fmt_num(k * e.value)
    if k == 1.0:
        return render(e, memo)
    if k == 0.0:
        return _fmt_num(0.0)
    return f"({_fmt_num(k)} * {render(e, memo)})"


def _share(memo: _Memo, outer: str, names: "_Names") -> tuple[str, list[str]] | None:
    """One level of sharing for the SELECT of `memo.scope`, whose aggregate
    prints `outer`: (that text with columns of an inner select put in, the
    inner select's items `text AS name`), or None when no node is worth a
    column.

    Only a node the scope requested more than once can be printed more
    often than the node that holds it.  Those and the scope's row values
    are put in longest first, so that a text is gone before any shorter
    text it holds is looked for.  A node printed n >= 2 times becomes a
    column tK when its n copies are longer than the column and n reads of
    it; a row value still printed becomes a column cK, so that the outer
    text reads every row value through a column.  A column reference holds
    no other text, so those come last, when the outer text is short."""
    twice = memo.twice
    if not twice:
        return None
    rows, taken = names.rows, names.taken
    # the next free column names tK and cK, and their references
    kt, kc, tname, cname = 0, 0, "t0", "c0"
    while tname in taken:
        kt += 1
        tname = f"t{kt}"
    while cname in taken:
        kc += 1
        cname = f"c{kc}"
    tref, cref = f"{rows}.{tname}", f"{rows}.{cname}"
    # a column costs its text, " AS ", its name and ", ", and each read its
    # reference.  A text requested fewer times than that pays for is not
    # looked for: it is printed more often than requested only inside a
    # longer text printed more often, which is looked for first.
    cost = len(tname) + 6
    # 1: a node that may pay for a column tK, 2: a row value, 3: both
    picks = {}
    for entry in twice:
        text, n = entry[1], entry[2]
        if (n - 1) * len(text) > cost + n * len(tref) and ("(" in text or " " in text):
            picks[text] = 1
    for text in memo.row_values:
        picks[text] = 3 if text in picks else 2
    items: list[str] = []
    named = False
    # sorted is stable: texts of one length keep the order they were
    # rendered in.  The column references come last, also longest first, so
    # that t.ab is gone before t.a is looked for.
    for text in [*sorted(picks, key=len, reverse=True), *sorted(memo.cols, key=len, reverse=True)]:
        kind = picks.get(text, 2)
        if kind & 1:
            parts = outer.split(text)
            n = len(parts) - 1
            if n > 1 and (n - 1) * len(text) > cost + n * len(tref):
                outer = tref.join(parts)
                items.append(f"{text} AS {tname}")
                named = True
                kt += 1
                tname = f"t{kt}"
                while tname in taken:
                    kt += 1
                    tname = f"t{kt}"
                tref = f"{rows}.{tname}"
                cost = len(tname) + 6
                continue
            if kind == 1 or n == 0:
                continue
        put = outer.replace(text, cref)
        if put is not outer:
            outer = put
            items.append(f"{text} AS {cname}")
            kc += 1
            cname = f"c{kc}"
            while cname in taken:
                kc += 1
                cname = f"c{kc}"
            cref = f"{rows}.{cname}"
    return (outer, items) if named else None


class _Names:
    """The names a statement adds: the derived tables `rows` and `sub`, the
    sensitivity column `sdsg`, the group key `group` and the columns tK and
    cK (`_share` numbers those past `taken`), none equal (in any case) to a
    table or alias of the query, a column of its tables, or a name the
    statement reads of a sensitive table."""

    def __init__(self, ctx: AnalysisContext):
        tables = ctx.schema.tables
        taken = {"id", "sensitive"}
        for alias, table in ctx.aliases.items():
            taken.update(map(str.lower, (alias, table, f"{table}_sensRows")))
            taken.update(map(str.lower, tables[table].types))
        self.taken = taken
        fresh = []
        for base in ("r", "g", "sub", "sdsg"):
            name, k = base, 0
            while name in taken:
                k += 1
                name = f"{base}{k}"
            fresh.append(name)
        self.rows, self.group, self.sub, self.sdsg = fresh


def _public_conjuncts(ctx: AnalysisContext) -> list[str]:
    return [sf.print_pred(c) for c in sf._flatten_and(ctx.public_pred)]


def _public_subquery(ctx: AnalysisContext, select: str) -> str:
    """`select` over the query's tables and public filter, as a scalar subquery."""
    where = " AND ".join(_public_conjuncts(ctx))
    tail = f" WHERE {where}" if where else ""
    return f"(SELECT {select} FROM {sf._print_tables(ctx.query.tables)}{tail})"


# how the modified statement aggregates the row values; MIN and MAX as named
_AGGREGATE_SQL = {"COUNT": ("sum(", ")"), "SUM": ("sum(", ")"), "PRODUCT": ("exp(sum(ln(", ")))")}


def emit_sql(plan: SensitivityPlan) -> tuple[str, str]:
    """Render the modified query and the sensitivity query as SQL text.

    In each SELECT that aggregates rows, a node printed more than once is
    computed once, as a column of an inner `SELECT ... FROM <tables> WHERE
    <public filter>` that the aggregate reads as `r.tK` (see `_share`), when
    that makes the SELECT shorter."""
    ctx = plan.ctx
    froms = sf._print_tables(ctx.query.tables)
    pubs = _public_conjuncts(ctx)
    where = f" WHERE {' AND '.join(pubs)}" if pubs else ""
    memo = _Memo()  # shared by every render call
    names = _Names(ctx)

    # the sensitivity statement first: it prints most of what the two share
    live = [tp for tp in plan.table_plans if tp.combined != ex.ZERO]
    if not live and plan.table_plans:
        # keep the group structure with a constant zero per row
        live = plan.table_plans[:1]
    parts = [_emit_table_sensitivity(froms, pubs, tp, memo, names) for tp in live]

    agg = plan.aggregator
    if agg == "COUNT" and plan.sigma is None:
        modified = f"SELECT count(*) FROM {froms}{where};"
    else:
        head, tail = _AGGREGATE_SQL[agg] if agg in _AGGREGATE_SQL else (f"{agg.lower()}(", ")")
        modified = _rows_select(memo, names, plan.row_expr, head, tail, f" FROM {froms}{where}") + ";"
    q = ex.dual_exponent(ctx.schema.database_p)
    if not parts:
        sensitivity = "SELECT 0.0;"
    elif len(parts) == 1:
        sensitivity = parts[0] + ";"
    elif q == 1.0:
        sensitivity = "SELECT " + " + ".join(f"({p})" for p in parts) + ";"
    elif q == INF:
        sensitivity = "SELECT greatest(" + ", ".join(f"({p})" for p in parts) + ");"
    else:
        # the lq norm across tables, q dual to the database combiner
        powers = " + ".join(f"(({p}) ^ {_fmt_num(q)})" for p in parts)
        sensitivity = f"SELECT (({powers}) ^ {_fmt_num(1.0 / q)});"
    return modified, sensitivity


def _rows_select(
    memo: _Memo, names: _Names, e: ScalarExpr, head: str, tail: str, source: str,
    group: str | None = None,
) -> str:
    """`SELECT head e tail source [GROUP BY group]`, or the same with the
    row values read from an inner select over `source`, whichever is
    shorter; the inner select carries the group key too."""
    memo.scope += 1
    memo.cols, memo.row_values, memo.twice = {}, {}, []
    body = render(e, memo)
    grouped = "" if group is None else f" GROUP BY {group}"
    shared = _share(memo, body, names)
    if shared is not None:
        outer, items = shared
        rows = names.rows
        nested = f"SELECT {head}{outer}{tail} FROM (SELECT {', '.join(items)}"
        if group is None:
            nested += f"{source}) AS {rows}"
        else:
            nested += f", {group} AS {names.group}{source}) AS {rows} GROUP BY {rows}.{names.group}"
        # the flat statement is "SELECT " and the parts below
        if len(nested) < 7 + len(head) + len(body) + len(tail) + len(source) + len(grouped):
            return nested
    return f"SELECT {head}{body}{tail}{source}{grouped}"


def _emit_table_sensitivity(
    froms: str, pubs: list[str], tp: TableSensPlan, memo: _Memo, names: _Names
) -> str:
    sens_table = f"{tp.table}_sensRows"
    join = f"{sens_table}.ID = {tp.alias}.ID"
    inner_cond = " AND ".join(pubs + [join])
    source = f" FROM {froms}, {sens_table} WHERE ({inner_cond}) AND {sens_table}.sensitive"
    sdsg = names.sdsg
    inner = _rows_select(
        memo, names, tp.combined, f"{tp.group_agg}(abs(", f")) AS {sdsg}", source,
        group=f"{sens_table}.ID",
    )
    q = ex.dual_exponent(tp.rows_p)
    if q == INF:
        outer_agg = f"max({sdsg})"
    elif q == 1.0:
        outer_agg = f"sum({sdsg})"
    else:
        # the lq norm across groups, q dual to the row combiner
        outer_agg = f"(sum(({sdsg} ^ {_fmt_num(q)})) ^ {_fmt_num(1.0 / q)})"
    return f"SELECT {outer_agg} FROM ({inner}) AS {names.sub}"
