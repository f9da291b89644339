"""Scalar expression IR with derivative-sensitivity and smooth-bound calculus.

Expressions are immutable trees over table columns.  Two views matter:

* exact evaluation (`eval_scalar`), the row-at-a-time reference of the
  engine's compiled evaluation;
* smooth upper bounds (`analyze`): expressions dominating the function and
  its sensitivity whose logarithm moves at a bounded rate per unit of norm
  distance, which is what makes the noise magnitude itself safe to reveal.

`analyze` applies the ordinary rules of calculus node by node.  Each bound
carries one rate map for its value bound and one for all its sensitivity
terms at once; sums, min/max and lp combinations of subexpressions meet in
one fold (`_joined`), and the exponential-family leaves share one rule.  A
product-rule term is the plain product of a factor's term and its cofactor:
where the term is 0 and the cofactor is not finite, the row's bound is NaN,
which the engine refuses, rather than 0.  A subexpression that reads no sensitive column and that no
rule covers is a data constant.

Bounds are measured in the query norm lp 1 (scaled s_v v) ..., one slot per
sensitive column at its metric scale s_v; `env_for_scales` turns the scales
into budgets.  The dual of that norm is a max, so `analyzer.build_plan`, the
one driver, takes each table's sensitivity as the max of its columns' terms
and the achieved beta as the max over columns of rate / s_v.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Union

from dersens.norms import INF

__all__ = [
    "AnalysisError",
    "Bound",
    "Col",
    "Const",
    "Div",
    "EvalError",
    "Exp",
    "IfGE",
    "Ln",
    "LpNorm",
    "Max",
    "Min",
    "Opaque",
    "Power",
    "Prod",
    "ScalarExpr",
    "Sigmoid",
    "SigmoidDeriv",
    "Sum",
    "Tauoid",
    "abs_expr",
    "add",
    "analyze",
    "checked_fsum",
    "dual_exponent",
    "env_for_scales",
    "eval_scalar",
    "expr_vars",
    "mul",
    "sub",
]


class EvalError(ValueError):
    """Raised for missing bindings or numeric domain errors during evaluation."""


class AnalysisError(ValueError):
    """Raised when an expression leaves the fragment the smooth calculus covers."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Col:
    """A sensitive column reference, named 'table.column'."""

    name: str


@dataclass(frozen=True)
class Opaque:
    """A data-dependent value that carries no sensitivity (insensitive columns,
    public filter indicators, cross-row constants).  `sql` is its rendering,
    `key` the binding the engine supplies per row."""

    key: str
    sql: str
    nonneg: bool = False


@dataclass(frozen=True)
class Power:
    child: "ScalarExpr"
    r: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError("power exponent must be finite")


@dataclass(frozen=True)
class Exp:
    """e^(rate * child)."""

    rate: float
    child: "ScalarExpr"


@dataclass(frozen=True)
class Ln:
    """Natural log, lowered from `ln()` in a query; `analyze` takes it only as
    a data constant, over an argument that reads no sensitive column."""

    child: "ScalarExpr"


@dataclass(frozen=True)
class Sigmoid:
    """e^(a c) / (e^(a c) + 1): smooth indicator of c > 0 with precision alpha."""

    alpha: float
    child: "ScalarExpr"

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("sigmoid precision must be positive")


@dataclass(frozen=True)
class SigmoidDeriv:
    """a e^(a c) / (e^(a c) + 1)^2, the derivative of Sigmoid in its child."""

    alpha: float
    child: "ScalarExpr"


@dataclass(frozen=True)
class Tauoid:
    """2 / (e^(-a c) + e^(a c)): smooth indicator of c = 0 with precision alpha."""

    alpha: float
    child: "ScalarExpr"

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("tauoid precision must be positive")


@dataclass(frozen=True)
class Sum:
    children: tuple["ScalarExpr", ...]


@dataclass(frozen=True)
class Prod:
    children: tuple["ScalarExpr", ...]


@dataclass(frozen=True)
class Min:
    children: tuple["ScalarExpr", ...]


@dataclass(frozen=True)
class Max:
    children: tuple["ScalarExpr", ...]


@dataclass(frozen=True)
class LpNorm:
    p: float
    children: tuple["ScalarExpr", ...]

    def __post_init__(self):
        if self.p != INF and not self.p >= 1.0:
            raise ValueError("lp exponent must be >= 1 or inf")


@dataclass(frozen=True)
class Div:
    """Quotient; user-level division over sensitive data is desugared away,
    internal bounds keep quotients for faithful SQL rendering."""

    num: "ScalarExpr"
    den: "ScalarExpr"


@dataclass(frozen=True)
class IfGE:
    """CASE WHEN test >= threshold THEN if_true ELSE if_false END."""

    test: "ScalarExpr"
    threshold: "ScalarExpr"
    if_true: "ScalarExpr"
    if_false: "ScalarExpr"


ScalarExpr = Union[
    Const, Col, Opaque, Power, Exp, Ln, Sigmoid, SigmoidDeriv, Tauoid,
    Sum, Prod, Min, Max, LpNorm, Div, IfGE,
]

ZERO = Const(0.0)
ONE = Const(1.0)


def abs_expr(e: ScalarExpr) -> ScalarExpr:
    if isinstance(e, Const):
        return Const(abs(e.value))
    if isinstance(e, LpNorm):
        return e
    return LpNorm(1.0, (e,))


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Sum((a, b))


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(b, Const):
        return add(a, Const(-b.value))
    return Sum((a, Prod((Const(-1.0), b))))


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 1.0:
            return b
        if a.value == 0.0:
            return ZERO
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return ZERO
    return Prod((a, b))


def expr_vars(e: ScalarExpr) -> frozenset[str]:
    """Sensitive column names referenced by the expression."""
    if isinstance(e, Col):
        return frozenset((e.name,))
    if isinstance(e, (Const, Opaque)):
        return frozenset()
    out: frozenset[str] = frozenset()
    for c in _subexprs(e):
        out |= expr_vars(c)
    return out


def _subexprs(e: ScalarExpr) -> Iterator[ScalarExpr]:
    if isinstance(e, (Sum, Prod, Min, Max, LpNorm)):
        yield from e.children
    elif isinstance(e, (Power, Exp, Ln, Sigmoid, SigmoidDeriv, Tauoid)):
        yield e.child
    elif isinstance(e, Div):
        yield e.num
        yield e.den
    elif isinstance(e, IfGE):
        yield e.test
        yield e.threshold
        yield e.if_true
        yield e.if_false


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _sigmoid(a: float, x: float) -> float:
    # branch on the sign so the exponential never overflows
    t = a * x
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    z = math.exp(t)
    return z / (1.0 + z)


def _sigmoid_deriv(a: float, x: float) -> float:
    t = a * x
    z = math.exp(-abs(t))
    return a * z / (1.0 + z) ** 2


def _tauoid(a: float, x: float) -> float:
    t = abs(a * x)
    z = math.exp(-t)
    return 2.0 * z / (1.0 + z * z)


def checked_fsum(values: Iterable[float]) -> float:
    """`math.fsum`, raising EvalError where the sum of finite values
    overflows or inf meets -inf."""
    vals = list(values)
    try:
        return math.fsum(vals)
    except (OverflowError, ValueError) as exc:
        raise EvalError(f"sum of {len(vals)} terms: {exc}") from None


def eval_scalar(e: ScalarExpr, row: Mapping[str, float]) -> float:
    """IEEE double evaluation of the expression at one row binding."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Col):
        try:
            return float(row[e.name])
        except KeyError:
            raise EvalError(f"no binding for column '{e.name}'") from None
    if isinstance(e, Opaque):
        try:
            return float(row[e.key])
        except KeyError:
            raise EvalError(f"no binding for derived value '{e.key}'") from None
    if isinstance(e, Power):
        base = eval_scalar(e.child, row)
        if base < 0.0 and e.r != round(e.r):
            raise EvalError(f"negative base {base} with non-integer exponent {e.r}")
        try:
            return base**e.r
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(str(exc)) from None
    if isinstance(e, Exp):
        x = e.rate * eval_scalar(e.child, row)
        try:
            return math.exp(x)
        except OverflowError:
            raise EvalError(f"exp overflows at {x}") from None
    if isinstance(e, Ln):
        v = eval_scalar(e.child, row)
        if v <= 0.0:
            raise EvalError(f"ln of non-positive value {v}")
        return math.log(v)
    if isinstance(e, Sigmoid):
        return _sigmoid(e.alpha, eval_scalar(e.child, row))
    if isinstance(e, SigmoidDeriv):
        return _sigmoid_deriv(e.alpha, eval_scalar(e.child, row))
    if isinstance(e, Tauoid):
        return _tauoid(e.alpha, eval_scalar(e.child, row))
    if isinstance(e, Sum):
        return checked_fsum([eval_scalar(c, row) for c in e.children])
    if isinstance(e, Prod):
        out = 1.0
        for c in e.children:
            out *= eval_scalar(c, row)
        return out
    if isinstance(e, Min):
        return min(eval_scalar(c, row) for c in e.children)
    if isinstance(e, Max):
        return max(eval_scalar(c, row) for c in e.children)
    if isinstance(e, LpNorm):
        vals = [abs(eval_scalar(c, row)) for c in e.children]
        if e.p == INF:
            return max(vals)
        if e.p == 1.0:
            return checked_fsum(vals)
        try:
            powers = [v**e.p for v in vals]
        except OverflowError:
            raise EvalError(f"{e.p} power of a value in {min(vals)}..{max(vals)} overflows") from None
        return checked_fsum(powers) ** (1.0 / e.p)
    if isinstance(e, Div):
        num = eval_scalar(e.num, row)
        den = eval_scalar(e.den, row)
        if den == 0.0:
            raise EvalError("division by zero")
        return num / den
    if isinstance(e, IfGE):
        if eval_scalar(e.test, row) >= eval_scalar(e.threshold, row):
            return eval_scalar(e.if_true, row)
        return eval_scalar(e.if_false, row)
    raise EvalError(f"cannot evaluate {type(e).__name__}")


# ---------------------------------------------------------------------------
# Dual norms
# ---------------------------------------------------------------------------


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; 1 and inf are each other's duals."""
    if p == INF:
        return 1.0
    if p == 1.0:
        return INF
    return p / (p - 1.0)


def _fold_max(parts: list[ScalarExpr]) -> ScalarExpr:
    if all(isinstance(p, Const) for p in parts):
        return Const(max(p.value for p in parts))
    return Max(tuple(parts))


# ---------------------------------------------------------------------------
# Smooth upper bounds
# ---------------------------------------------------------------------------


@dataclass
class Bound:
    """Result of analyzing one expression.

    `ubf` dominates |expr|; `ds[v]` dominates the summed magnitude of the
    partial derivatives over all occurrences of v, already divided by v's
    metric scale.  Both are nonnegative, also over data constants: products
    multiply sensitivity terms by `ubf` and sums add the terms, so a signed
    one could cancel another.  `ubf_rates` holds the per-raw-coordinate
    log-Lipschitz rates of `ubf`, `ds_rates` those of all the `ds` terms at
    once (their coordinatewise max).

    A release's achieved beta counts `ds_rates` only: the mechanism needs the
    released `ubds` to be beta-smooth, and `ubf` is never released.
    `ubf_rates` feed the rates of products and powers that multiply by `ubf`.
    """

    ubf: ScalarExpr
    ubf_rates: dict[str, float] = field(default_factory=dict)
    ds: dict[str, ScalarExpr] = field(default_factory=dict)
    ds_rates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _Env:
    """Per-variable budgets: targets[v] is the admissible raw log-Lipschitz
    rate for v (requested beta times v's metric scale), seeds[v] the factor
    each occurrence's sensitivity picks up (one over the metric scale)."""

    targets: Mapping[str, float]
    seeds: Mapping[str, float]


def _rate_max(*dicts: Mapping[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for d in dicts:
        for k, r in d.items():
            out[k] = max(out.get(k, 0.0), r)
    return out


def _rate_sum(*dicts: Mapping[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for d in dicts:
        for k, r in d.items():
            out[k] = out.get(k, 0.0) + r
    return out


def _as_affine(e: ScalarExpr) -> tuple[dict[str, float], bool] | None:
    """Coefficients of sensitive columns if e is affine in them (any opaque or
    constant offset is allowed); None otherwise."""
    if isinstance(e, (Const, Opaque)):
        return {}, True
    if isinstance(e, Col):
        return {e.name: 1.0}, False
    if isinstance(e, Sum):
        total: dict[str, float] = {}
        const_only = True
        for c in e.children:
            got = _as_affine(c)
            if got is None:
                return None
            coeffs, is_const = got
            const_only = const_only and is_const
            total = _rate_sum(total, coeffs)
        return total, const_only
    if isinstance(e, Prod):
        scale = 1.0
        carrier: dict[str, float] | None = None
        for c in e.children:
            got = _as_affine(c)
            if got is None:
                return None
            coeffs, is_const = got
            if is_const:
                if isinstance(c, Const):
                    scale *= c.value
                else:
                    return None  # opaque factor: bounded but not a fixed coefficient
            elif carrier is None:
                carrier = coeffs
            else:
                return None
        if carrier is None:
            return {}, True
        return {v: a * scale for v, a in carrier.items()}, False
    return None


def _budget(coeffs: Mapping[str, float], env: _Env) -> float:
    """Largest per-argument rate B so that B*|c_v| stays within every budget."""
    b = INF
    for v, c in coeffs.items():
        if c == 0.0:
            continue
        try:
            b = min(b, env.targets[v] / abs(c))
        except KeyError:
            raise AnalysisError(
                f"column '{v}' is not covered by the norm; declare it insensitive"
            ) from None
    return b


def _identity_ubf(e: ScalarExpr, b: float) -> ScalarExpr:
    """Smooth envelope of |e|: |e| where it is at least 1/b, exponential cap below."""
    a = abs_expr(e)
    cap = Div(Exp(1.0, sub(mul(Const(b), a), ONE)), Const(b))
    return IfGE(a, Const(1.0 / b), a, cap)


def _cap_factor(k: float, r: float, b: float) -> Const:
    """k (r / b)^r, the factor of a power's exponential cap below r / b; it
    must be finite, or the cap would be inf."""
    try:
        value = k * (r / b) ** r
    except OverflowError:
        value = INF
    if value == INF:
        raise AnalysisError(
            "the smooth bound of a power of sensitive data overflows the doubles; lower "
            "the exponent, or raise --beta or the column's scale in the norm"
        )
    return Const(value)


def _power_ubf(e: ScalarExpr, r: float, b: float) -> ScalarExpr:
    if r == 1.0:
        return _identity_ubf(e, b)
    a = abs_expr(e)
    cap = mul(Exp(1.0, sub(mul(Const(b), a), Const(r))), _cap_factor(1.0, r, b))
    return IfGE(a, Const(r / b), Power(a, r), cap)


def _power_ds_piece(e: ScalarExpr, r: float, b: float) -> ScalarExpr:
    if r == 1.0:
        return ONE
    a = abs_expr(e)
    main = mul(Const(r), Power(a, r - 1.0))
    cap = mul(Exp(1.0, sub(mul(Const(b), a), Const(r - 1.0))), _cap_factor(r, r - 1.0, b))
    return IfGE(a, Const((r - 1.0) / b), main, cap)


def _seeded(
    env: _Env, coeffs: Mapping[str, float], piece: ScalarExpr = ONE
) -> dict[str, ScalarExpr]:
    """Each column's sensitivity term: `piece` times |c_v| over v's metric scale."""
    out = {}
    for v, c in coeffs.items():
        if c != 0.0:
            out[v] = mul(piece, Const(abs(c) * env.seeds.get(v, 1.0)))
    return out


def _affine_power(base: ScalarExpr, coeffs: Mapping[str, float], r: float, env: _Env) -> Bound:
    """|base|^r, r >= 1, for a base affine in the columns of `coeffs` (its
    nonzero coefficients).  Both branches of each envelope move at rate b per
    argument unit; at r = 1 the sensitivity terms are constant."""
    b = _budget(coeffs, env)
    rates = {v: abs(c) * b for v, c in coeffs.items()}
    ds = _seeded(env, coeffs, _power_ds_piece(base, r, b))
    return Bound(_power_ubf(base, r, b), rates, ds, rates if r != 1.0 else {})


def _sum_of(parts: list[ScalarExpr]) -> ScalarExpr:
    return functools.reduce(add, parts)


def _max_of(parts: list[ScalarExpr]) -> ScalarExpr:
    return parts[0] if len(parts) == 1 else Max(tuple(parts))


def _joined(
    kids: list[Bound], ubf: ScalarExpr, join: Callable[[list[ScalarExpr]], ScalarExpr]
) -> Bound:
    """The bound of a node that adds, maxes or lp-combines its children:
    `ubf` is its value bound, each variable's sensitivity is `join` of the
    children's terms in child order, and each rate map the children's max."""
    parts: dict[str, list[ScalarExpr]] = {}
    for k in kids:
        for v, dv in k.ds.items():
            parts.setdefault(v, []).append(dv)
    return Bound(
        ubf,
        _rate_max(*(k.ubf_rates for k in kids)),
        {v: join(ps) for v, ps in parts.items()},
        _rate_max(*(k.ds_rates for k in kids)),
    )


def _refused(e: ScalarExpr, why: str) -> Bound:
    """The bound of a node that no rule covers: a data constant if it reads no
    sensitive column, else an AnalysisError saying `why`."""
    if expr_vars(e):
        raise AnalysisError(why)
    return Bound(ubf=abs_expr(e))


def analyze(e: ScalarExpr, env: _Env) -> Bound:
    """Bottom-up smooth analysis; see module docstring for the contract."""
    if isinstance(e, Const):
        return Bound(ubf=Const(abs(e.value)))
    if isinstance(e, Opaque):
        return Bound(ubf=e if e.nonneg else abs_expr(e))

    affine = _as_affine(e)
    if affine is not None and not affine[1]:
        coeffs = {v: c for v, c in affine[0].items() if c != 0.0}
        if not coeffs:
            return Bound(ubf=abs_expr(e))  # the columns cancel: a data constant
        return _affine_power(e, coeffs, 1.0, env)

    if isinstance(e, (Sigmoid, Tauoid, Exp)):
        affine = _as_affine(e.child)
        if affine is None:
            return _refused(
                e, f"{type(e).__name__} argument must be affine in sensitive columns"
            )
        # the logs of e and of its derivative both move at |k c_v| per unit
        # of v; the three differ only in the derivative factor
        k = e.rate if isinstance(e, Exp) else e.alpha
        rates = {v: abs(k * c) for v, c in affine[0].items() if c != 0.0}
        deriv = SigmoidDeriv(e.alpha, e.child) if isinstance(e, Sigmoid) else mul(Const(abs(k)), e)
        return Bound(e, rates, _seeded(env, affine[0], deriv), rates)

    if isinstance(e, Ln):
        return _refused(
            e,
            "ln is supported only over public columns; its argument reads "
            "sensitive data, so rewrite the query without it",
        )

    if isinstance(e, Power):
        if e.r == 1.0:
            return analyze(e.child, env)
        if e.r <= 0.0:
            return _refused(e, "desugar non-positive powers before analysis")
        affine = _as_affine(e.child)
        if affine is not None:
            coeffs = {v: c for v, c in affine[0].items() if c != 0.0}
            if not coeffs:
                return Bound(ubf=abs_expr(e))  # data-constant base, of either sign
            if e.r < 1.0:
                # the derivative blows up near zero: no sound sensitivity bound
                raise AnalysisError(
                    f"powers with exponent {e.r} < 1 over sensitive data admit a "
                    "value bound but no sensitivity bound"
                )
            return _affine_power(e.child, coeffs, e.r, env)
        child = analyze(e.child, env)
        ubf = Power(child.ubf, e.r)
        rates_f = {v: e.r * r for v, r in child.ubf_rates.items()}
        if e.r < 1.0:
            if child.ds:
                raise AnalysisError(
                    "sensitivity bounds for powers need exponent >= 1 on composite bases"
                )
            return Bound(ubf, rates_f)
        base = mul(Const(e.r), Power(child.ubf, e.r - 1.0))
        ds = {v: mul(base, dv) for v, dv in child.ds.items()}
        rates_d = {w: (e.r - 1.0) * r for w, r in child.ubf_rates.items()}
        return Bound(ubf, rates_f, ds, _rate_sum(rates_d, child.ds_rates) if ds else {})

    if isinstance(e, Sum):
        kids = [analyze(c, env) for c in e.children]
        return _joined(kids, _sum_of([k.ubf for k in kids]), _sum_of)

    if isinstance(e, Prod):
        kids = [analyze(c, env) for c in e.children]
        # the product rule: each factor's terms times the other factors'
        # value bounds (its cofactor), summed; a term's Bound carries its
        # cofactor as ubf, and only its terms are joined
        terms: list[Bound] = []
        for i, k in enumerate(kids):
            if k.ds:
                others = kids[:i] + kids[i + 1 :]
                cof = functools.reduce(mul, (o.ubf for o in others), ONE)
                cof_rates = _rate_sum(*(o.ubf_rates for o in others))
                ds = {v: mul(dv, cof) for v, dv in k.ds.items()}
                terms.append(Bound(cof, ds=ds, ds_rates=_rate_sum(k.ds_rates, cof_rates)))
        out = _joined(terms, functools.reduce(mul, (k.ubf for k in kids)), _sum_of)
        out.ubf_rates = _rate_sum(*(k.ubf_rates for k in kids))
        return out

    if isinstance(e, (Min, Max)):
        kids = [analyze(c, env) for c in e.children]
        return _joined(kids, _max_of([k.ubf for k in kids]), _max_of)

    if isinstance(e, LpNorm):
        if all(isinstance(c, Col) for c in e.children) and len(
            {c.name for c in e.children}
        ) == len(e.children):
            coeffs = {c.name: 1.0 for c in e.children}
            b = _budget(coeffs, env)
            return Bound(_identity_ubf(e, b), {v: b for v in coeffs}, _seeded(env, coeffs))
        kids = [analyze(c, env) for c in e.children]
        return _joined(kids, LpNorm(e.p, tuple(k.ubf for k in kids)), _sum_of)

    if isinstance(e, Div):
        den_vars = expr_vars(e.den)
        if den_vars:
            raise AnalysisError(
                "a denominator must read only public columns; rewrite the query "
                "so it does not divide by " + ", ".join(sorted(den_vars))
            )
        num = analyze(e.num, env)
        ubf = Div(num.ubf, abs_expr(e.den))
        ds = {v: Div(dv, abs_expr(e.den)) for v, dv in num.ds.items()}
        return Bound(ubf, num.ubf_rates, ds, num.ds_rates)

    return _refused(e, f"no smooth-bound rule for {type(e).__name__}")


def env_for_scales(scales: Mapping[str, float], beta: float) -> _Env:
    """Budgets for the query norm lp 1 (scaled s_v v) ... with `scales` the
    s_v: the target rate beta s_v and the sensitivity seed 1 / s_v."""
    return _Env(
        targets={v: beta * s for v, s in scales.items()},
        seeds={v: 1.0 / s for v, s in scales.items()},
    )
