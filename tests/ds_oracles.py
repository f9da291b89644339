"""Test oracles for derivative sensitivity: exact a.e. partial derivatives
of the scalar IR (`partial_expr`), the dual-norm length of that symbolic
gradient (`ds_expr`) and of a central-difference one (`finite_diff_ds`).
The tests hold the analyzer's ubds to them: `build_plan`'s for a query, and
`release_bound`'s for one expression under any composite norm, which folds
the terms and rates of `analyze` in the dual of that norm as a release folds
them in the dual of its flat l1 query norm."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from dersens.exprs import (
    ONE,
    ZERO,
    AnalysisError,
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
    _fold_max,
    _rate_max,
    abs_expr,
    add,
    analyze,
    dual_exponent,
    env_for_scales,
    eval_scalar,
    expr_vars,
    mul,
    sub,
)
from dersens.norms import INF, Combine, NormExpr, Scale, Var, _occurrences, lp_norm, normalize


def partial_expr(e: ScalarExpr, v: str) -> ScalarExpr:
    """Symbolic partial derivative d e / d v, valid away from ties and kinks."""
    if isinstance(e, (Const, Opaque)):
        return ZERO
    if isinstance(e, Col):
        return ONE if e.name == v else ZERO
    if isinstance(e, Power):
        d = partial_expr(e.child, v)
        if d == ZERO:
            return ZERO
        return mul(mul(Const(e.r), Power(e.child, e.r - 1.0)), d)
    if isinstance(e, Exp):
        d = partial_expr(e.child, v)
        if d == ZERO:
            return ZERO
        return mul(mul(Const(e.rate), Exp(e.rate, e.child)), d)
    if isinstance(e, Ln):
        d = partial_expr(e.child, v)
        if d == ZERO:
            return ZERO
        return mul(d, Power(e.child, -1.0))
    if isinstance(e, Sigmoid):
        d = partial_expr(e.child, v)
        if d == ZERO:
            return ZERO
        return mul(SigmoidDeriv(e.alpha, e.child), d)
    if isinstance(e, Tauoid):
        # tau' = -a tanh(a c) tau
        d = partial_expr(e.child, v)
        if d == ZERO:
            return ZERO
        a, c = e.alpha, e.child
        tanh = Div(sub(Exp(a, c), Exp(-a, c)), add(Exp(-a, c), Exp(a, c)))
        return mul(mul(mul(Const(-a), tanh), e), d)
    if isinstance(e, SigmoidDeriv):
        # s'' = a s' (1 - 2 sigma)
        d = partial_expr(e.child, v)
        if d == ZERO:
            return ZERO
        inner = sub(ONE, mul(Const(2.0), Sigmoid(e.alpha, e.child)))
        return mul(mul(Const(e.alpha), mul(SigmoidDeriv(e.alpha, e.child), inner)), d)
    if isinstance(e, Sum):
        parts = [partial_expr(c, v) for c in e.children]
        parts = [p for p in parts if p != ZERO]
        if not parts:
            return ZERO
        out = parts[0]
        for p in parts[1:]:
            out = add(out, p)
        return out
    if isinstance(e, Prod):
        terms = []
        for i, c in enumerate(e.children):
            d = partial_expr(c, v)
            if d == ZERO:
                continue
            rest = d
            for j, other in enumerate(e.children):
                if j != i:
                    rest = mul(rest, other)
            terms.append(rest)
        if not terms:
            return ZERO
        out = terms[0]
        for t in terms[1:]:
            out = add(out, t)
        return out
    if isinstance(e, (Min, Max)):
        return _minmax_partial(e, v)
    if isinstance(e, LpNorm):
        return _lpnorm_partial(e, v)
    if isinstance(e, Div):
        dn = partial_expr(e.num, v)
        dd = partial_expr(e.den, v)
        if dn == ZERO and dd == ZERO:
            return ZERO
        # (n' d - n d') / d^2
        return Div(sub(mul(dn, e.den), mul(e.num, dd)), Power(e.den, 2.0))
    raise EvalError(f"no derivative rule for {type(e).__name__}")


def _minmax_partial(e: Min | Max, v: str) -> ScalarExpr:
    # fold to binary selections: the active branch's derivative wins
    kids = list(e.children)
    cur, dcur = kids[0], partial_expr(kids[0], v)
    for c in kids[1:]:
        dc = partial_expr(c, v)
        if isinstance(e, Min):
            # min(cur, c): if c >= cur use cur's derivative
            dcur = IfGE(c, cur, dcur, dc)
            cur = Min((cur, c))
        else:
            dcur = IfGE(c, cur, dc, dcur)
            cur = Max((cur, c))
    return dcur


def _lpnorm_partial(e: LpNorm, v: str) -> ScalarExpr:
    if e.p == INF:
        # derivative of the largest |child|, sign included
        kids = list(e.children)
        cur = abs_expr(kids[0])
        dcur = _abs_partial(kids[0], v)
        for c in kids[1:]:
            ac = abs_expr(c)
            dcur = IfGE(ac, cur, _abs_partial(c, v), dcur)
            cur = Max((cur, ac))
        return dcur
    if e.p == 1.0:
        parts = [_abs_partial(c, v) for c in e.children]
        parts = [p for p in parts if p != ZERO]
        if not parts:
            return ZERO
        out = parts[0]
        for p in parts[1:]:
            out = add(out, p)
        return out
    terms = []
    for c in e.children:
        dc = partial_expr(c, v)
        if dc == ZERO:
            continue
        # |c|^(p-1) * sign(c) * c' = |c|^(p-2) * c * c'
        terms.append(mul(mul(Power(abs_expr(c), e.p - 2.0), c), dc))
    if not terms:
        return ZERO
    num = terms[0]
    for t in terms[1:]:
        num = add(num, t)
    return mul(num, Power(e, 1.0 - e.p))


def _abs_partial(c: ScalarExpr, v: str) -> ScalarExpr:
    dc = partial_expr(c, v)
    if dc == ZERO:
        return ZERO
    # sign(c) * c'
    return IfGE(c, ZERO, dc, mul(Const(-1.0), dc))


def _fold_lp(q: float, parts: list[ScalarExpr]) -> ScalarExpr:
    if all(isinstance(p, Const) for p in parts):
        return Const(lp_norm([abs(p.value) for p in parts], q))
    return LpNorm(q, tuple(parts))


def _dual_combine_exprs(norm: NormExpr, leaf: Callable[[str], ScalarExpr]) -> ScalarExpr:
    if isinstance(norm, Var):
        return leaf(norm.name)
    if isinstance(norm, Scale):
        return mul(_dual_combine_exprs(norm.child, leaf), Const(1.0 / norm.factor))
    parts = [_dual_combine_exprs(c, leaf) for c in norm.children]
    q = dual_exponent(norm.p)
    live = [p for p in parts if p != ZERO]
    if not live:
        return ZERO
    if len(live) == 1:
        return abs_expr(live[0])
    if q == INF:
        return _fold_max([abs_expr(p) for p in live])
    return _fold_lp(q, live)


def _check_norm_for_ds(f: ScalarExpr, norm: NormExpr) -> None:
    occs: dict[str, int] = {}
    stack = [norm]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            occs[n.name] = occs.get(n.name, 0) + 1
        elif isinstance(n, Scale):
            stack.append(n.child)
        else:
            stack.extend(n.children)
    dup = [v for v, k in occs.items() if k > 1]
    if dup:
        raise AnalysisError(
            f"norm repeats variables {sorted(dup)}; normalize it before taking gradients"
        )
    missing = expr_vars(f) - set(occs)
    if missing:
        raise AnalysisError(
            "columns not covered by the norm (declare them insensitive upstream): "
            + ", ".join(sorted(missing))
        )


def _is_matching_lpnorm(f: ScalarExpr, norm: NormExpr) -> bool:
    # ||x_1..x_n||_p measured in the same unscaled lp norm has sensitivity 1
    if not isinstance(f, LpNorm):
        return False
    cols = [c for c in f.children if isinstance(c, Col)]
    if len(cols) != len(f.children) or len({c.name for c in cols}) != len(cols):
        return False
    if isinstance(norm, Var):
        return len(cols) == 1 and cols[0].name == norm.name
    if not isinstance(norm, Combine) or norm.p != f.p:
        return False
    names = {c.name for c in cols}
    nkids = norm.children
    return all(isinstance(k, Var) for k in nkids) and {k.name for k in nkids} == names


def ds_expr(f: ScalarExpr, norm: NormExpr) -> ScalarExpr:
    """Expression computing the operator norm of the derivative of f: the
    length of the gradient in the dual of the given composite norm."""
    _check_norm_for_ds(f, norm)
    if _is_matching_lpnorm(f, norm):
        return ONE
    return _dual_combine_exprs(norm, lambda v: abs_expr(partial_expr(f, v)))


@dataclass(frozen=True)
class ReleaseBound:
    ubf: ScalarExpr
    ubds: ScalarExpr
    beta: float  # achieved by ubf and ubds together; the request if nothing binds
    feasible: bool


def release_bound(f: ScalarExpr, beta: float, norm: NormExpr) -> ReleaseBound:
    """`analyze` of f under `norm`, each variable budgeted at its strictest
    leaf scale, with its terms and rates folded in the dual of the norm.  The
    achieved beta covers the rates of ubf as well as of ubds, since the tests
    check the smoothness of both."""
    norm = normalize(norm)
    scales: dict[str, float] = {}
    for v, s in _occurrences(norm):
        scales[v] = max(scales.get(v, 0.0), s)
    b = analyze(f, env_for_scales(scales, beta))
    rates = _rate_max(b.ubf_rates, b.ds_rates)
    achieved = _dual_value(norm, lambda v: rates.get(v, 0.0))
    return ReleaseBound(
        b.ubf,
        _dual_ds(norm, b.ds),
        achieved if achieved > 0 else beta,
        achieved <= beta * (1.0 + 1e-9),
    )


def _dual_ds(norm: NormExpr, ds: Mapping[str, ScalarExpr]) -> ScalarExpr:
    """The dual-norm length of per-variable sensitivity bounds that already
    absorbed their leaf scales (`Bound.ds`), so Scale factors are not applied
    again."""
    if isinstance(norm, Var):
        return ds.get(norm.name, ZERO)
    if isinstance(norm, Scale):
        return _dual_ds(norm.child, ds)
    live = [p for p in (_dual_ds(c, ds) for c in norm.children) if p != ZERO]
    if len(live) <= 1:
        return live[0] if live else ZERO
    q = dual_exponent(norm.p)
    if q == INF:
        return _fold_max([abs_expr(p) for p in live])
    if q == 1.0:
        return functools.reduce(add, live)
    return _fold_lp(q, live)


def finite_diff_ds(
    f: ScalarExpr, norm: NormExpr, point: Mapping[str, float], h: float = 1e-5
) -> float:
    """Dual-norm length of the central-difference gradient; test oracle only."""
    if not h > 0:
        raise ValueError("step must be positive")
    grads: dict[str, float] = {}
    for v in sorted(expr_vars(f)):
        hi = dict(point)
        lo = dict(point)
        hi[v] = float(point[v]) + h
        lo[v] = float(point[v]) - h
        grads[v] = (eval_scalar(f, hi) - eval_scalar(f, lo)) / (2.0 * h)
    return _dual_value(norm, lambda v: abs(grads.get(v, 0.0)))


def _dual_value(norm: NormExpr, leaf: Callable[[str], float]) -> float:
    if isinstance(norm, Var):
        return leaf(norm.name)
    if isinstance(norm, Scale):
        return _dual_value(norm.child, leaf) / norm.factor
    vals = [_dual_value(c, leaf) for c in norm.children]
    q = dual_exponent(norm.p)
    if q == INF:
        return max(vals)
    if q == 1.0:
        return math.fsum(vals)
    return math.fsum(v**q for v in vals) ** (1.0 / q)
