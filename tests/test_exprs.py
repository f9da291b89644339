import math
import random

import pytest

from dersens import exprs as ex
from dersens.exprs import (
    AnalysisError,
    Col,
    Const,
    Div,
    EvalError,
    Exp,
    Ln,
    LpNorm,
    Max,
    Min,
    Opaque,
    Power,
    Prod,
    Sigmoid,
    Sum,
    Tauoid,
    eval_scalar,
    expr_vars,
)
from dersens.norms import Combine, Scale, Var, eval_norm, parse_norm
from ds_oracles import ds_expr, finite_diff_ds, release_bound

X, Y, Z = Col("x"), Col("y"), Col("z")
K = Opaque("k", "k")
INF = math.inf


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_sigmoid_at_zero():
    assert eval_scalar(Sigmoid(0.1, Const(0.0)), {}) == 0.5


def test_eval_tauoid_at_zero():
    assert eval_scalar(Tauoid(1.0, Const(0.0)), {}) == 1.0


def test_eval_min():
    assert eval_scalar(Min((Const(3), Const(5), Const(1))), {}) == 1.0


def test_eval_missing_binding():
    with pytest.raises(EvalError):
        eval_scalar(X, {})


def test_eval_domain_error():
    with pytest.raises(EvalError):
        eval_scalar(Power(X, 0.5), {"x": -2.0})


def test_eval_exp_overflow_is_an_eval_error():
    with pytest.raises(EvalError, match="exp overflows"):
        eval_scalar(Exp(1.0, X), {"x": 1000.0})


@pytest.mark.parametrize("n", [2, 3])
def test_eval_sum_overflow_is_an_eval_error(n):
    with pytest.raises(EvalError, match="overflow"):
        eval_scalar(Sum((X,) * n), {"x": 1e308})
    with pytest.raises(EvalError, match="overflow"):
        eval_scalar(LpNorm(1.0, (X,) * n), {"x": 1e308})
    with pytest.raises(EvalError, match="overflow"):
        eval_scalar(LpNorm(2.0, (X,) * n), {"x": 1e200})


def test_eval_sum_of_inf_and_minus_inf_is_an_eval_error():
    with pytest.raises(EvalError, match="inf"):
        eval_scalar(Sum((X, Y, Z)), {"x": INF, "y": -INF, "z": 1.0})


def test_eval_sigmoid_extreme_is_stable():
    assert eval_scalar(Sigmoid(5.0, X), {"x": 1e6}) == 1.0
    assert eval_scalar(Sigmoid(5.0, X), {"x": -1e6}) == 0.0
    assert eval_scalar(ex.SigmoidDeriv(5.0, X), {"x": 1e6}) == 0.0


def test_eval_division_desugar_equivalence():
    # x / y against the exp/ln rewrite it desugars to
    rewritten = Prod((X, Exp(-1.0, Ln(Y))))
    for x, y in [(3.0, 2.0), (1.5, 0.25), (10.0, 7.0)]:
        assert eval_scalar(Div(X, Y), {"x": x, "y": y}) == pytest.approx(
            eval_scalar(rewritten, {"x": x, "y": y})
        )


# ---------------------------------------------------------------------------
# exact sensitivity expressions
# ---------------------------------------------------------------------------


def test_ds_matching_lpnorm_is_one():
    assert ds_expr(LpNorm(2.0, (X, Y)), parse_norm("lp 2.0 x y")) == Const(1.0)


def test_ds_linear_sum_l1():
    assert ds_expr(Sum((X, Y)), parse_norm("lp 1.0 x y")) == Const(1.0)


def test_ds_product_point_value():
    # dual-l_inf of the gradient (y, x) at (2, 3) is 3
    d = ds_expr(Prod((X, Y)), parse_norm("lp 1.0 x y"))
    assert eval_scalar(d, {"x": 2, "y": 3}) == pytest.approx(3.0)
    fd = finite_diff_ds(Prod((X, Y)), parse_norm("lp 1.0 x y"), {"x": 2, "y": 3})
    assert fd == pytest.approx(3.0, rel=1e-6)


def test_ds_linf_limsup_is_one():
    assert ds_expr(LpNorm(INF, (X, Y)), parse_norm("linf x y")) == Const(1.0)


def test_ds_norm_must_cover_columns():
    with pytest.raises(AnalysisError):
        ds_expr(Sum((X, Y)), parse_norm("lp 1.0 x"))


def test_finite_diff_square():
    got = finite_diff_ds(Power(X, 2.0), Var("x"), {"x": 3.0})
    assert got == pytest.approx(6.0, rel=1e-6)


def test_finite_diff_lp_norm_is_one():
    got = finite_diff_ds(LpNorm(2.0, (X, Y)), parse_norm("lp 2.0 x y"), {"x": 1.3, "y": -0.7})
    assert got == pytest.approx(1.0, rel=1e-6)


def test_finite_diff_sigmoid_quarter_alpha():
    got = finite_diff_ds(Sigmoid(5.0, X), Var("x"), {"x": 0.0})
    assert got == pytest.approx(1.25, rel=1e-6)


def _interior_point(rng, f, vs):
    # keep clear of min/max ties and power-domain boundaries
    for _ in range(100):
        pt = {v: rng.uniform(0.3, 4.0) * rng.choice([1.0, -1.0]) for v in vs}
        if isinstance(f, (Min, Max, LpNorm)):
            vals = sorted(abs(eval_scalar(c, pt)) for c in f.children)
            if len(vals) > 1 and vals[1] - vals[0] < 0.05:
                continue
        if any(isinstance(n, (Power, Ln)) for n in _walk(f)):
            pt = {v: abs(x) + 0.3 for v, x in pt.items()}
        return pt
    raise RuntimeError("no interior point found")


def _walk(e):
    yield e
    for c in ex._subexprs(e):
        yield from _walk(c)


GRADIENT_CASES = [
    ("const", Const(4.2), Var("x")),
    ("col", X, Var("x")),
    ("power", Power(X, 3.0), Var("x")),
    ("exp", Exp(0.3, X), Var("x")),
    ("ln", Ln(X), Var("x")),
    ("sigmoid", Sigmoid(2.0, X), Var("x")),
    ("sigmoid_deriv", ex.SigmoidDeriv(2.0, X), Var("x")),
    ("tauoid", Tauoid(1.5, X), Var("x")),
    ("sum", Sum((X, Prod((Y, Y)))), parse_norm("lp 2.0 x y")),
    ("prod", Prod((X, Y)), parse_norm("lp 2.0 x y")),
    ("min", Min((X, Y)), parse_norm("lp 1.0 x y")),
    ("max", Max((X, Y)), parse_norm("lp 1.0 x y")),
    ("lpnorm", LpNorm(3.0, (X, Y)), parse_norm("lp 2.0 x y")),
    ("lpnorm_inf", LpNorm(INF, (X, Y)), parse_norm("lp 1.0 x y")),
    ("div", Div(X, Const(2.0)), Var("x")),
    ("div_col", Div(X, Y), parse_norm("lp 1.0 x y")),
]


@pytest.mark.parametrize("name,f,norm", GRADIENT_CASES, ids=[c[0] for c in GRADIENT_CASES])
def test_gradient_matches_finite_differences(name, f, norm):
    rng = random.Random(hash(name) & 0xFFFF)
    d = ds_expr(f, norm)
    vs = sorted(expr_vars(f) | {"x"})
    for _ in range(50):
        pt = _interior_point(rng, f, vs)
        sym = eval_scalar(d, pt)
        num = finite_diff_ds(f, norm, pt, h=1e-5)
        assert sym == pytest.approx(num, rel=1e-4, abs=1e-7), (name, pt)


# ---------------------------------------------------------------------------
# smooth bounds
# ---------------------------------------------------------------------------


def test_power_ubf_values():
    sb = release_bound(Power(X, 2.0), 1.0, Var("x"))
    assert eval_scalar(sb.ubf, {"x": 3.0}) == pytest.approx(9.0)
    assert eval_scalar(sb.ubf, {"x": 1.0}) == pytest.approx(4.0 * math.exp(-1.0))
    assert sb.feasible and sb.beta == pytest.approx(1.0)


def test_identity_ubds_is_one():
    for beta in (0.05, 0.7, 3.0):
        sb = release_bound(X, beta, Var("x"))
        assert sb.ubds == Const(1.0)
        assert sb.feasible


def test_exp_infeasible_reports_minimal_beta():
    sb = release_bound(Exp(0.5, X), 0.1, Var("x"))
    assert not sb.feasible
    assert sb.beta == pytest.approx(0.5)


def test_sigmoid_achieves_alpha():
    sb = release_bound(Sigmoid(5.0, X), 0.1, Var("x"))
    assert sb.beta == pytest.approx(5.0)
    assert not sb.feasible
    sb2 = release_bound(Sigmoid(0.05, X), 0.1, Var("x"))
    assert sb2.feasible


def test_tauoid_achieves_alpha():
    sb = release_bound(Tauoid(2.0, X), 2.0, Var("x"))
    assert sb.feasible and sb.beta == pytest.approx(2.0)


def test_power_fractional_exponent_rejects_sensitivity_bounds():
    # a zero bound would be unsound (the derivative diverges near zero)
    with pytest.raises(AnalysisError, match="< 1"):
        release_bound(Power(X, 0.5), 1.0, Var("x"))
    with pytest.raises(AnalysisError):
        release_bound(Power(LpNorm(2.0, (X, Y)), 0.5), 1.0, parse_norm("lp 2.0 x y"))
    # over insensitive data the value bound is still available
    sb = release_bound(Power(Opaque("k", "k", nonneg=True), 0.5), 1.0, Var("x"))
    assert sb.feasible


def test_constants_are_zero_smooth():
    sb = release_bound(Const(7.0), 0.3, Var("x"))
    assert sb.ubds == Const(0.0)
    assert sb.beta == pytest.approx(0.3)  # nothing binds; request is met


def test_ln_rejected_without_log_metric():
    with pytest.raises(AnalysisError):
        release_bound(Ln(X), 0.5, Var("x"))


def test_dependent_product_betas_add():
    # two factors over one variable: achieved smoothness is the sum
    f = Prod((Sigmoid(0.3, X), Sigmoid(0.4, X)))
    sb = release_bound(f, 1.0, Var("x"))
    assert sb.beta == pytest.approx(0.7)


def test_independent_product_under_l1_takes_max():
    f = Prod((Sigmoid(0.3, X), Sigmoid(0.4, Y)))
    sb = release_bound(f, 1.0, parse_norm("lp 1.0 x y"))
    assert sb.beta == pytest.approx(0.4)


def test_independent_product_under_linf_adds():
    f = Prod((Sigmoid(0.3, X), Sigmoid(0.4, Y)))
    sb = release_bound(f, 1.0, parse_norm("linf x y"))
    assert sb.beta == pytest.approx(0.7)


def test_minmax_and_nonneg_sum_take_max_beta():
    fmin = Min((Sigmoid(0.3, X), Sigmoid(0.5, X)))
    assert release_bound(fmin, 1.0, Var("x")).beta == pytest.approx(0.5)
    fmax = Max((Sigmoid(0.3, X), Sigmoid(0.5, X)))
    assert release_bound(fmax, 1.0, Var("x")).beta == pytest.approx(0.5)
    fsum = Sum((Sigmoid(0.3, X), Sigmoid(0.5, X)))
    assert release_bound(fsum, 1.0, Var("x")).beta == pytest.approx(0.5)


def test_n_ary_nodes_join_their_childrens_terms_flat():
    # one greatest() over the terms of all children, in child order, and one
    # left-nested sum: the emitted SQL depends on these shapes
    kids = tuple(Sigmoid(a, X) for a in (0.1, 0.2, 0.3))
    d1, d2, d3 = (ex.SigmoidDeriv(a, X) for a in (0.1, 0.2, 0.3))
    for node in (Min(kids), Max(kids)):
        assert release_bound(node, 1.0, Var("x")).ubds == Max((d1, d2, d3))
    for node in (Sum(kids), LpNorm(2.0, kids)):
        assert release_bound(node, 1.0, Var("x")).ubds == Sum((Sum((d1, d2)), d3))


def test_norm_scaling_divides_beta_and_ds():
    inner = Sigmoid(0.4, X)
    plain = release_bound(inner, 1.0, Var("x"))
    scaled = release_bound(inner, 1.0, Scale(2.0, Var("x")))
    assert scaled.beta == pytest.approx(plain.beta / 2.0)
    pt = {"x": 0.7}
    assert eval_scalar(scaled.ubds, pt) == pytest.approx(eval_scalar(plain.ubds, pt) / 2.0)


SMOOTH_CASES = [
    ("identity", X, Var("x"), 0.5),
    ("power2", Power(X, 2.0), Var("x"), 0.5),
    ("power3", Power(X, 3.0), Var("x"), 0.5),
    ("exp", Exp(0.5, X), Var("x"), 0.5),
    ("sigmoid", Sigmoid(0.5, X), Var("x"), 0.5),
    ("tauoid", Tauoid(0.5, X), Var("x"), 0.5),
    ("l2norm", LpNorm(2.0, (X, Y)), parse_norm("lp 2.0 x y"), 0.5),
    ("linfnorm", LpNorm(INF, (X, Y)), parse_norm("linf x y"), 0.5),
    ("prod_indep", Prod((X, Sigmoid(0.5, Y))), parse_norm("lp 1.0 x y"), 0.5),
    ("prod_dep", Prod((Sigmoid(0.25, X), Sigmoid(0.25, X))), Var("x"), 0.5),
    ("sum", Sum((Sigmoid(0.5, X), Sigmoid(0.5, Y))), parse_norm("lp 1.0 x y"), 0.5),
    ("min", Min((X, Y)), parse_norm("lp 1.0 x y"), 0.5),
    ("max", Max((Power(X, 2.0), Y)), parse_norm("lp 1.0 x y"), 0.5),
    ("scaled", Sigmoid(0.5, X), Scale(0.5, Var("x")), 1.0),
    ("composite_power", Power(LpNorm(2.0, (X, Y)), 2.0), parse_norm("lp 2.0 x y"), 0.5),
    ("affine", Sum((Const(2.0), Prod((Const(-3.0), X)))), Var("x"), 0.5),
    # x (k - 50)^3 + x^2 with the public k at 48: the cube is -8, and a
    # signed value bound of it would cancel the square's term
    ("signed_public_factor",
     Sum((Prod((X, Power(Sum((K, Const(-50.0))), 3.0))), Power(X, 2.0))), Var("x"), 0.5),
]

# the bindings of the public values the cases read
OPAQUE_POINT = {"k": 48.0}


# an lp atom of several columns is charged per coordinate: its rate b = beta
# on each column has dual-norm length 2^(1/2) beta under lp 2 and 2 beta
# under linf
INFEASIBLE = {"l2norm", "linfnorm", "composite_power"}


@pytest.mark.parametrize("name,f,norm,beta", SMOOTH_CASES, ids=[c[0] for c in SMOOTH_CASES])
def test_smoothness_and_upper_bound(name, f, norm, beta):
    rng = random.Random(hash(name) & 0xFFFF)
    sb = release_bound(f, beta, norm)
    assert sb.feasible == (name not in INFEASIBLE), name
    if name == "composite_power":
        # squaring a base doubles its achieved smoothness
        assert sb.beta == pytest.approx(2 * release_bound(f.child, beta, norm).beta)
    beta_eff = max(sb.beta, beta)
    vs = sorted(expr_vars(f))
    for _ in range(300):
        p1 = {v: rng.uniform(-6, 6) for v in vs}
        p2 = {v: rng.uniform(-6, 6) for v in vs}
        if name.startswith(("power", "composite_power")):
            p1 = {v: abs(x) + 1e-3 for v, x in p1.items()}
            p2 = {v: abs(x) + 1e-3 for v, x in p2.items()}
        d = eval_norm(norm, {v: p1[v] - p2[v] for v in vs})
        p1, p2 = {**OPAQUE_POINT, **p1}, {**OPAQUE_POINT, **p2}
        grow = math.exp(beta_eff * d) * (1 + 1e-9)
        for g in (sb.ubf, sb.ubds):
            v1, v2 = eval_scalar(g, p1), eval_scalar(g, p2)
            assert v1 <= grow * v2 + 1e-12, (name, p1, p2)
        # bound dominates the function and its finite-difference sensitivity
        assert eval_scalar(sb.ubf, p1) >= abs(eval_scalar(f, p1)) - 1e-9
        fd = finite_diff_ds(f, norm, p1, h=1e-6)
        assert eval_scalar(sb.ubds, p1) >= fd * (1 - 1e-3) - 1e-9, (name, p1)


# ---------------------------------------------------------------------------
# block combination: the paper's ship example
# ---------------------------------------------------------------------------


def test_ship_voyage_bound():
    # travel time of one ship: distance over speed, with the speed tracked in
    # log-scale so the reciprocal stays analyzable; the bound comes out as
    # max(sqrt(2) e^{-w/zeta}, (1/zeta) e^{-w/zeta} ubf(r)) under
    # ||(||s,t||_2, w)||_1, and must dominate finite differences everywhere
    zeta = 2.0
    f = Prod((LpNorm(2.0, (Col("s"), Col("t"))), Exp(-1.0 / zeta, Col("w"))))
    norm = Combine(1.0, (Combine(2.0, (Var("s"), Var("t"))), Var("w")))
    sb = release_bound(f, 1.0 / zeta, norm)
    # the rate 1/zeta of s and of t has lp 2 length 2^(1/2) / zeta
    assert not sb.feasible and sb.beta == pytest.approx(math.sqrt(2.0) / zeta)
    rng = random.Random(99)
    for _ in range(200):
        pt = {"s": rng.uniform(-5, 5), "t": rng.uniform(-5, 5), "w": rng.uniform(-2, 2)}
        if math.hypot(pt["s"], pt["t"]) < 0.1:
            continue
        got = eval_scalar(sb.ubds, pt)
        fd = finite_diff_ds(f, norm, pt, h=1e-6)
        assert got >= fd * (1 - 1e-4)
        r = math.hypot(pt["s"], pt["t"])
        ub_r = r if r >= zeta else zeta * math.exp(r / zeta - 1.0)
        expected = max(math.sqrt(2.0), ub_r / zeta) * math.exp(-pt["w"] / zeta)
        assert got == pytest.approx(expected, rel=1e-9)
