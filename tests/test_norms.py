import math
import random

import pytest

from dersens.norms import (
    Combine,
    NormError,
    Scale,
    Var,
    compare,
    eval_norm,
    hammer_bounds,
    min_weight_injection,
    norm_vars,
    normalize,
    parse_norm,
    print_norm,
    scale_elaborate,
    scale_straightforward,
)

INF = math.inf


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------


def test_parse_nested_example():
    n = parse_norm("linf(scaled 30.0 (lp 1.0 d1 d2 d3))")
    assert n == Combine(
        INF, (Scale(30.0, Combine(1.0, (Var("d1"), Var("d2"), Var("d3")))),)
    )


def test_parse_flat():
    assert parse_norm("lp 2.0 x y") == Combine(2.0, (Var("x"), Var("y")))


@pytest.mark.parametrize(
    "text",
    ["scaled -1.0 x", "scaled 0 x", "lp 0.5 x", "lp 2.0", "lp 2.0 (x", "scaled 2.0"],
)
def test_parse_errors(text):
    with pytest.raises(NormError):
        parse_norm(text)


def test_parse_error_carries_position():
    try:
        parse_norm("lp 2.0 x\nscaledwrong )")
    except NormError as exc:
        assert exc.line is not None
    else:
        pytest.fail("expected a syntax error")


def _random_norm(rng, vars_avail, depth):
    if depth == 0 or rng.random() < 0.3:
        v = Var(rng.choice(vars_avail))
        return Scale(math.exp(rng.uniform(-2, 2)), v) if rng.random() < 0.5 else v
    kids = tuple(_random_norm(rng, vars_avail, depth - 1) for _ in range(rng.randint(1, 3)))
    n = Combine(rng.choice([1.0, 1.5, 2.0, 3.0, INF]), kids)
    return Scale(math.exp(rng.uniform(-1, 1)), n) if rng.random() < 0.3 else n


def test_print_parse_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        n = _random_norm(rng, ["x", "y", "z"], rng.randint(0, 3))
        assert parse_norm(print_norm(n)) == n


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_345():
    assert eval_norm(Combine(2.0, (Var("x"), Var("y"))), {"x": 3, "y": 4}) == 5.0


def test_eval_linf_abs():
    assert eval_norm(Combine(INF, (Var("x"), Var("y"))), {"x": -3, "y": 2}) == 3.0


def test_eval_scale_homogeneous():
    n = Scale(2.0, Combine(1.0, (Var("x"), Var("y"))))
    assert eval_norm(n, {"x": 1, "y": 1}) == 4.0


def test_eval_missing_binding():
    with pytest.raises(NormError):
        eval_norm(Var("x"), {})


def test_seminorm_axioms():
    rng = random.Random(2)
    for _ in range(100):
        n = _random_norm(rng, ["x", "y", "z"], rng.randint(0, 3))
        vs = sorted(norm_vars(n))
        x = {v: rng.uniform(-5, 5) for v in vs}
        y = {v: rng.uniform(-5, 5) for v in vs}
        a = rng.uniform(-3, 3)
        ex = eval_norm(n, x)
        assert ex >= 0.0
        scaled = eval_norm(n, {v: a * x[v] for v in vs})
        assert abs(scaled - abs(a) * ex) <= 1e-9 * max(1.0, scaled)
        both = eval_norm(n, {v: x[v] + y[v] for v in vs})
        assert both <= ex + eval_norm(n, y) + 1e-9


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_pushes_scales():
    n = normalize(Scale(2.0, Combine(1.0, (Var("x"), Var("y")))))
    assert n == Combine(1.0, (Scale(2.0, Var("x")), Scale(2.0, Var("y"))))


def test_normalize_merges_repeats_sqrt2():
    n = normalize(Combine(2.0, (Var("x"), Var("x"), Var("y"))))
    ((coeff,),) = [
        [c.factor for c in n.children if isinstance(c, Scale)]
    ]
    assert coeff == pytest.approx(math.sqrt(2))


def test_normalize_merges_repeats_whose_powers_overflow():
    # the squares of the coefficients overflow, their l2 norm does not
    n = normalize(Combine(2.0, (Scale(1e200, Var("x")), Scale(1e200, Var("x")))))
    assert isinstance(n, Scale) and n.child == Var("x")
    assert n.factor == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    assert eval_norm(Combine(3.0, (Var("x"), Var("y"))), {"x": 1e300, "y": 1e300}) == \
        pytest.approx(2.0 ** (1 / 3) * 1e300, rel=1e-15)


def test_normalize_flattens_same_exponent():
    inner1 = Combine(2.0, (Var("x"), Var("y")))
    inner2 = Combine(2.0, (Var("z"), Var("w")))
    n = normalize(Combine(2.0, (inner1, inner2)))
    assert n == Combine(2.0, (Var("w"), Var("x"), Var("y"), Var("z")))


def test_normalize_is_idempotent():
    rng = random.Random(4)
    for _ in range(500):
        n = normalize(_random_norm(rng, ["x", "y", "z"], rng.randint(0, 3)))
        assert normalize(n) == n, print_norm(n)


def test_normalize_keeps_a_lone_scale_exactly():
    # (0.1^3)^(1/3) is 0.10000000000000003: a lone variable keeps its factor
    n = normalize(parse_norm("lp 3.0 (scaled 0.1 e) f"))
    assert n == Combine(3.0, (Scale(0.1, Var("e")), Var("f")))


def test_normalize_preserves_value():
    rng = random.Random(3)
    for _ in range(200):
        n = _random_norm(rng, ["x", "y", "z"], rng.randint(0, 3))
        m = normalize(n)
        for _ in range(10):
            x = {v: rng.uniform(-5, 5) for v in norm_vars(n)}
            a, b = eval_norm(n, x), eval_norm(m, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# hammer bounds
# ---------------------------------------------------------------------------


def test_hammer_exponents_nested():
    lo, hi = hammer_bounds(normalize(parse_norm("lp 1.0 (lp 2.0 x y) z")))
    assert lo.exponent == 2.0
    assert hi.exponent == 1.0


def test_hammer_flat_identity():
    lo, hi = hammer_bounds(normalize(parse_norm("lp 2.0 x y")))
    assert (lo.exponent, hi.exponent) == (2.0, 2.0)
    assert lo.coeffs == {"x": 1.0, "y": 1.0} == hi.coeffs


def test_hammer_repeat_merges_to_two():
    # grid check: |2x| agrees with |x| + |x| everywhere
    n = Combine(1.0, (Var("x"), Var("x")))
    lo, hi = hammer_bounds(n)
    assert hi.coeffs["x"] == pytest.approx(2.0)
    for x in [-3.0, -1.0, -0.25, 0.0, 0.5, 2.0]:
        assert eval_norm(hi.as_norm(), {"x": x}) == pytest.approx(eval_norm(n, {"x": x}))


def test_hammer_sound_on_random_assignments():
    rng = random.Random(4)
    for _ in range(50):
        n = normalize(_random_norm(rng, ["x", "y", "z"], rng.randint(0, 3)))
        lo, hi = hammer_bounds(n)
        for _ in range(20):
            x = {v: rng.uniform(-10, 10) for v in norm_vars(n)}
            vn = eval_norm(n, x)
            assert eval_norm(lo.as_norm(), x) <= vn * (1 + 1e-9) + 1e-12
            assert vn <= eval_norm(hi.as_norm(), x) * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_regrouping_example():
    c = compare(parse_norm("lp 1.0 (lp 2.0 x y) z"), parse_norm("lp 1.0 x y z"))
    assert c.proved


def test_compare_reflexive():
    assert compare(parse_norm("lp 2.0 x"), parse_norm("lp 2.0 x")).proved


def test_compare_exponent_gap_fails_with_hint():
    c = compare(parse_norm("lp 1.0 x y"), parse_norm("lp 2.0 x y"))
    assert not c.proved
    assert "scaling" in c.failure


def test_compare_steps_and_failure_text():
    proved = compare(parse_norm("lp 1.0 x (lp 2.0 y z)"),
                     parse_norm("lp 2.0 (scaled 2.0 x) (scaled 3.0 (linf y z))"))
    assert proved.proved and proved.failure is None
    assert proved.steps == (
        "exponent step 1.0 -> 2.0 scales lp 1.0 x (lp 2.0 y z) by 0.707107",
        "exponent step 2.0 -> inf scales lp 2.0 y z by 0.707107",
        "match y <= scaled 3.0 y",
        "match z <= scaled 3.0 z",
        "match x <= scaled 2.0 x",
        "match lp 2.0 y z <= linf (scaled 3.0 y) (scaled 3.0 z)",
    )
    failed = compare(parse_norm("linf (lp 2.0 x y) z"), parse_norm("lp 1.0 x (linf y z)"))
    assert not failed.proved
    assert failed.steps == ("exponent step 2.0 -> inf scales lp 2.0 x y by 0.707107",)
    assert failed.failure == "cannot fit z under x: different variables"


def test_compare_free_variable_error():
    with pytest.raises(NormError):
        compare(parse_norm("lp 1.0 x q"), parse_norm("lp 1.0 x y"))


def test_compare_sound_on_random_pairs():
    rng = random.Random(5)
    proved = 0
    for _ in range(300):
        nq = _random_norm(rng, ["x", "y"], rng.randint(0, 2))
        ndb = _random_norm(rng, ["x", "y", "z"], rng.randint(0, 3))
        missing = norm_vars(nq) - norm_vars(ndb)
        if missing:
            ndb = Combine(1.0, (ndb, *(Var(v) for v in sorted(missing))))
        c = compare(nq, ndb)
        if not c.proved:
            continue
        proved += 1
        for _ in range(40):
            x = {v: rng.uniform(-10, 10) for v in norm_vars(nq) | norm_vars(ndb)}
            assert eval_norm(nq, x) <= eval_norm(ndb, x) * (1 + 1e-9) + 1e-12
    assert proved >= 20  # the check must actually exercise proofs


# ---------------------------------------------------------------------------
# scaling witnesses
# ---------------------------------------------------------------------------


def test_straightforward_identity():
    w = scale_straightforward(parse_norm("lp 1.0 x"), parse_norm("lp 1.0 x"))
    assert w.var_scale == {"x": 1.0}
    assert w.global_scale == 1.0


def test_straightforward_exponent_factor():
    w = scale_straightforward(parse_norm("lp 1.0 x y"), parse_norm("lp 2.0 x y"))
    assert w.global_scale == pytest.approx(2 ** -0.5)


def test_elaborate_identity():
    w = scale_elaborate(parse_norm("lp 2.0 x y"), parse_norm("lp 2.0 x y"))
    assert w.var_scale == {"x": 1.0, "y": 1.0}
    assert w.global_scale == 1.0


def test_elaborate_prefers_unscaled_matching():
    # the block can sit on its twin, leaving the lone variable for the lp-3 slot
    w = scale_elaborate(
        parse_norm("lp 1.0 (lp 2.0 x y) x"),
        parse_norm("lp 1.0 (lp 2.0 x y) (lp 3.0 x y)"),
    )
    assert w.method == "elaborate"
    assert w.var_scale["x"] == pytest.approx(1.0)
    assert w.var_scale["y"] == pytest.approx(1.0)


def test_elaborate_reaps_declared_scale():
    w = scale_elaborate(
        parse_norm("lp 1.0 q sd"),
        parse_norm("lp 1.0 q (scaled 30.0 (linf sd cd rd))"),
    )
    assert w.var_scale["sd"] == pytest.approx(30.0)
    assert w.var_scale["q"] == pytest.approx(1.0)


def _witness_suite(seed, n=50):
    rng = random.Random(seed)
    out = []
    names = ["a", "b", "c", "d", "e", "f"]
    for _ in range(n):
        vq = rng.sample(names, rng.randint(1, 4))
        slots = [Var(v) for v in vq]
        if rng.random() < 0.4:
            slots.append(Var(rng.choice(vq)))
        pq = rng.choice([1.0, 2.0, INF])
        nq = slots[0] if len(slots) == 1 else Combine(pq, tuple(slots))
        rest = [v for v in names if v not in vq]
        vdb = vq + rest[: rng.randint(0, 2)]
        rng.shuffle(vdb)
        cut = max(1, len(vdb) - rng.randint(0, 2))
        kids = [
            Scale(math.exp(rng.uniform(-2, 2)), Var(v)) if rng.random() < 0.8 else Var(v)
            for v in vdb[:cut]
        ]
        if vdb[cut:]:
            block = Combine(rng.choice([2.0, INF]), tuple(Var(v) for v in vdb[cut:]))
            kids.append(Scale(math.exp(rng.uniform(-1, 2)), block))
        ndb = kids[0] if len(kids) == 1 else Combine(1.0, tuple(kids))
        out.append((nq, ndb))
    return out


def _check_witness_sound(nq, ndb, w, rng, points=1000):
    scaled = w.apply(nq)
    for _ in range(points):
        x = {v: rng.uniform(-10, 10) for v in norm_vars(ndb)}
        assert eval_norm(scaled, x) <= eval_norm(ndb, x) * (1 + 1e-9) + 1e-12, (
            print_norm(nq), print_norm(ndb), w)


def test_scaling_sound_both_methods_random_suite():
    rng = random.Random(6)
    for nq, ndb in _witness_suite(0):
        _check_witness_sound(nq, ndb, scale_straightforward(nq, ndb), rng, points=40)
        _check_witness_sound(nq, ndb, scale_elaborate(nq, ndb), rng, points=40)


def test_random_pair_witness_thousand_points():
    rng = random.Random(7)
    nq, ndb = _witness_suite(1, n=1)[0]
    _check_witness_sound(nq, ndb, scale_straightforward(nq, ndb), rng, points=1000)
    _check_witness_sound(nq, ndb, scale_elaborate(nq, ndb), rng, points=1000)


def test_elaborate_weakly_dominates_straightforward():
    # fixed 50-pair suite: the structural method never ends up with a smaller
    # effective per-variable scaling than the flat-envelope method
    for nq, ndb in _witness_suite(0):
        wsf = scale_straightforward(nq, ndb)
        wel = scale_elaborate(nq, ndb)
        for v in norm_vars(nq):
            assert wel.effective(v) >= wsf.effective(v) * (1 - 1e-9)


@pytest.mark.parametrize("pads", [1, 12, 20])
def test_database_children_the_query_does_not_read_leave_the_witness(pads):
    # a child that holds no query variable matches no slot; the matcher
    # drops such children, so padding a norm with them, even past the 16
    # children the subset DP takes, changes no witness
    for nq, ndb in _witness_suite(0) + _witness_suite(3):
        if not isinstance(ndb, Combine):
            continue
        padded = Combine(ndb.p, ndb.children + tuple(Var(f"pad{k}") for k in range(pads)))
        assert scale_elaborate(nq, padded) == scale_elaborate(nq, ndb), (print_norm(nq), print_norm(ndb))


def test_min_weight_injection_deterministic_ties():
    # two equal-weight matchings: lexicographically smallest column wins
    w = [[1.0, 1.0], [1.0, 1.0]]
    assert min_weight_injection(w) == [0, 1]
    assert min_weight_injection([[math.inf, 2.0], [3.0, math.inf]]) == [1, 0]
    assert min_weight_injection([[math.inf, math.inf], [1.0, 2.0]]) is None


def test_scaling_methods_concurrent_safety_smoke():
    # pure functions over immutable trees: repeated calls agree exactly
    nq, ndb = parse_norm("lp 1.0 x y"), parse_norm("lp 2.0 x y z")
    w1 = scale_elaborate(nq, ndb)
    w2 = scale_elaborate(nq, ndb)
    assert w1 == w2


# The wide composite norm of the benchmark's meter table.
METER_NORM = ("lp 1.0 (scaled 2.0 (lp 2.0 m_kwh m_peak)) (linf m_volt m_amp) "
              "(scaled 0.5 (lp 1.0 m_temp m_hum)) (scaled 10.0 (linf m_lat m_lon))")


@pytest.mark.parametrize("query_norm, method", [
    ("lp 1.0 m_kwh m_volt m_temp m_lat", "elaborate"),
    ("lp 1.0 m_kwh (scaled 0.5 m_peak) m_volt m_amp m_temp m_hum (scaled 0.25 m_kwh) m_peak",
     "straightforward"),
])
def test_scale_elaborate_formats_no_matcher_text(monkeypatch, query_norm, method):
    # scale_elaborate reads no step or failure text, so beyond the calls its
    # two normalize calls make (their sort key prints combinations) it must
    # print no norm
    from dersens import norms

    calls = []

    def counting(n):
        calls.append(n)
        return print_norm(n)

    monkeypatch.setattr(norms, "print_norm", counting)
    nq, ndb = parse_norm(query_norm), parse_norm(METER_NORM)
    normalize(nq)
    normalize(ndb)
    by_normalize = len(calls)
    assert by_normalize > 0
    calls.clear()
    assert scale_elaborate(nq, ndb).method == method
    assert len(calls) == by_normalize
