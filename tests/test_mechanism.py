import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from conftest import B1_5_SQL, LINEITEM_COLS, LINEITEM_SCHEMA, lineitem_row, write_table
from dersens import engine as eng
from dersens.analyzer import PlanParams, build_plan
from dersens.mechanism import (
    GenCauchy,
    InfeasibleParams,
    NoiseParams,
    derive_b,
    privatize,
    sample,
)
from dersens.norms import compare, parse_norm
from dersens.sqlfront import load_database, parse_query, parse_schema, validate
from privacy_oracles import ddp_check, guessing_posterior_bound


# ---------------------------------------------------------------------------
# parameter arithmetic
# ---------------------------------------------------------------------------


def test_derive_b_defaults_exact():
    assert derive_b(1.0, 0.1, 4) == 0.1


def test_derive_b_boundary_reports_minimal_epsilon():
    with pytest.raises(InfeasibleParams) as exc:
        derive_b(0.5, 0.1, 4)
    assert exc.value.min_epsilon == pytest.approx(0.5)


def test_derive_b_arithmetic():
    assert derive_b(2.5, 0.1, 4) == pytest.approx(0.4)


def test_noise_params_invariant():
    p = NoiseParams(1.0, 0.1, 4.0)
    assert p.b == 0.1
    with pytest.raises(InfeasibleParams):
        NoiseParams(0.4, 0.1, 4.0)
    # b is derived from epsilon, beta and gamma, never set: a caller-set b
    # would bypass the epsilon accounting of derive_b
    with pytest.raises(TypeError):
        NoiseParams(1.0, 0.1, 4.0, 0.5)
    with pytest.raises(TypeError):
        NoiseParams(1.0, 0.1, 4.0, b=0.5)


@pytest.mark.parametrize("epsilon, beta, gamma", [
    (math.inf, 0.1, 4.0), (math.nan, 0.1, 4.0), (1.0, math.nan, 4.0), (1.0, math.inf, 4.0),
    (1.0, 0.1, math.nan), (1.0, 0.1, math.inf), (1.0, 0.1, 1.0),
])
def test_derive_b_rejects_non_finite_parameters(epsilon, beta, gamma):
    with pytest.raises(InfeasibleParams):
        derive_b(epsilon, beta, gamma)


# ---------------------------------------------------------------------------
# the noise distribution
# ---------------------------------------------------------------------------


def _oracle_cdf(gamma, x):
    # independent route: regularized incomplete beta function
    x = np.asarray(x, dtype=float)
    z = np.abs(x) ** gamma / (1.0 + np.abs(x) ** gamma)
    return 0.5 * (1.0 + np.sign(x) * special.betainc(1.0 / gamma, 1.0 - 1.0 / gamma, z))


def test_normalization_constant_gamma4():
    g = GenCauchy(4.0)
    assert g.z == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-10)


def test_density_integrates_to_one():
    # piecewise on a log-spaced partition so the quartic tails are resolved
    g = GenCauchy(4.0)
    cuts = [0.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6]
    val = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        piece, _ = integrate.quad(g.pdf, lo, hi, limit=200)
        val += 2.0 * piece  # symmetric halves
    assert val == pytest.approx(1.0, abs=1e-8)


def test_quantile_within_reported_band():
    s = sample(4.0, seed=20240, n=100_000)
    frac = float(np.mean(np.abs(s) <= 1.0))
    assert 0.77 <= frac <= 0.79


def test_sample_median_near_zero():
    s = sample(4.0, seed=7, n=100_000)
    assert abs(float(np.median(s))) <= 0.02


def test_sampling_deterministic_per_seed():
    a = sample(4.0, seed=99, n=1000)
    b = sample(4.0, seed=99, n=1000)
    assert np.array_equal(a, b)
    c = sample(4.0, seed=100, n=1000)
    assert not np.array_equal(a, c)


def test_ks_statistic_against_oracle():
    s = np.sort(sample(4.0, seed=31337, n=100_000))
    emp_hi = np.arange(1, len(s) + 1) / len(s)
    emp_lo = np.arange(0, len(s)) / len(s)
    cdf = _oracle_cdf(4.0, s)
    ks = max(float(np.max(np.abs(emp_hi - cdf))), float(np.max(np.abs(cdf - emp_lo))))
    assert ks <= 0.006


# The draws are tested as a whole: Kolmogorov-Smirnov distance to the exact
# CDF under the Dvoretzky-Kiefer-Wolfowitz bound at alpha = 1e-6, and the
# share of heavy-tail draws against a binomial interval at the same alpha.
_ALPHA = 1e-6
_DRAWS = 200_000


@pytest.mark.parametrize("gamma, seed", [(1.5, 1), (2.0, 2), (3.0, 3), (6.0, 4)])
def test_ks_within_dkw_bound(gamma, seed):
    s = np.sort(sample(gamma, seed=seed, n=_DRAWS))
    cdf = _oracle_cdf(gamma, s)
    n = len(s)
    ks = max(float(np.max(np.arange(1, n + 1) / n - cdf)), float(np.max(cdf - np.arange(n) / n)))
    assert ks <= math.sqrt(math.log(2.0 / _ALPHA) / (2.0 * n))


def test_heavy_tail_is_not_clamped():
    # at gamma = 1.5 about 0.32% of the mass lies beyond |x| = 65,535
    gamma, t = 1.5, 65_535.0
    p = float(special.betaincc(1.0 / gamma, 1.0 - 1.0 / gamma, t**gamma / (1.0 + t**gamma)))
    beyond = int(np.sum(np.abs(sample(gamma, seed=5, n=_DRAWS)) > t))
    lo, hi = stats.binom.interval(1.0 - _ALPHA, _DRAWS, p)
    assert lo <= beyond <= hi


@pytest.mark.parametrize("gamma", [1.5, 4.0])
def test_fewer_draws_are_a_prefix_of_more(gamma):
    many = sample(gamma, seed=17, n=5000)
    assert sample(gamma, seed=17) == many[0]
    for n in (2, 3, 20, 1000):
        assert np.array_equal(sample(gamma, seed=17, n=n), many[:n])


def _blake2b_draws(gamma, seed, n):
    # the documented stream, from hashlib alone: candidate k's uniforms are
    # the four big-endian words of BLAKE2b-256(seed bytes || k as 8 bytes)
    key = seed.to_bytes((seed.bit_length() + 7) // 8, "big")
    out = []
    for k in itertools.count():
        if len(out) == n:
            return out
        digest = hashlib.blake2b(key + k.to_bytes(8, "big"), digest_size=32).digest()
        branch, pos, accept, sign = (
            (int.from_bytes(digest[i:i + 8], "big") >> 11) / 2**53 for i in range(0, 32, 8))
        if branch < (gamma - 1.0) / gamma:
            x = pos
        else:
            try:
                x = (1.0 - pos) ** (-1.0 / (gamma - 1.0))
            except OverflowError:
                x = math.inf
        ratio = 1.0 / (1.0 + min(x, 1.0 / x if x else math.inf) ** gamma)
        if accept < ratio:
            out.append(x if sign >= 0.5 else -x)


@pytest.mark.parametrize("gamma", [1.0001, 1.5, 4.0])
@pytest.mark.parametrize("seed", [0, 3, 2**128 - 1])
def test_seeded_draws_follow_the_blake2b_stream(gamma, seed):
    want = _blake2b_draws(gamma, seed, 20)
    assert sample(gamma, seed) == want[0]
    assert sample(gamma, seed, n=20).tolist() == want


def test_seeds_whose_bytes_share_a_prefix_give_different_streams():
    # 0, 1 and 256 are the byte strings b"", b"\x01" and b"\x01\x00";
    # 2**64 and 2**64 + 1 share their first eight bytes
    streams = [sample(4.0, seed, n=8).tolist() for seed in (0, 1, 256, 2**64, 2**64 + 1)]
    for i, a in enumerate(streams):
        for b in streams[i + 1:]:
            assert all(x != y for x, y in zip(a, b))


def test_tail_overflow_fails_closed():
    # near gamma = 1 a Pareto draw overflows to inf: no release
    p = NoiseParams(1.0, 0.1, 1.0001)
    with pytest.raises(InfeasibleParams, match="not finite"):
        privatize(1.0, 1.0, p, seed=3)


# ---------------------------------------------------------------------------
# release
# ---------------------------------------------------------------------------


def test_zero_sensitivity_releases_exactly():
    p = NoiseParams(1.0, 0.1)
    assert privatize(42.0, 0.0, p, seed=5) == 42.0


def test_noise_scales_with_sensitivity_over_b():
    p = NoiseParams(1.0, 0.1)
    eta = sample(4.0, seed=11)
    assert privatize(100.0, 1.0, p, seed=11) == pytest.approx(100.0 + 10.0 * eta)


def test_release_reproducible():
    p = NoiseParams(1.0, 0.1)
    assert privatize(1.0, 2.0, p, seed=3) == privatize(1.0, 2.0, p, seed=3)


def test_privatize_rejects_bad_sensitivity():
    p = NoiseParams(1.0, 0.1)
    with pytest.raises(ValueError):
        privatize(0.0, float("nan"), p, seed=1)
    with pytest.raises(ValueError):
        privatize(0.0, -1.0, p, seed=1)


# ---------------------------------------------------------------------------
# privacy oracles
# ---------------------------------------------------------------------------


def test_ddp_identical_is_zero():
    assert ddp_check((3.0, 1.0), (3.0, 1.0)) == 0.0


def test_ddp_shift_within_analytic_bound():
    r = ddp_check((0.0, 1.0), (1.0, 1.0), gamma=4.0)
    assert 0.0 < r <= 5.0 * 1.0  # (gamma+1) |a2-a1| / max(c)


def test_ddp_stretch_hits_tail_limit():
    # scales 1 vs e: the sup of the log ratio sits in the tails at gamma-1
    r = ddp_check((0.0, 1.0), (0.0, math.e), gamma=4.0)
    assert r == pytest.approx(3.0, rel=1e-6)
    assert r <= 5.0


def test_guessing_bound_closed_form():
    got = guessing_posterior_bound(1.0, 1.0, 0.5, 0.5)
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))


def test_guessing_bound_no_information_limit():
    assert guessing_posterior_bound(1e-12, 1.0, 0.5, 0.5) == pytest.approx(0.5)


def test_guessing_bound_degenerate_prior():
    assert guessing_posterior_bound(1.0, 1.0, 0.3, 1.0) == 1.0
    with pytest.raises(ValueError):
        guessing_posterior_bound(1.0, 1.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# norm monotonicity of the computed sensitivity
# ---------------------------------------------------------------------------


def test_larger_norm_never_increases_sensitivity(tmp_path):
    rows = [lineitem_row(sd=sd) for sd in (150.0, 195.0, 240.0)]
    write_table(str(tmp_path), "lineitem", LINEITEM_COLS, rows)
    small_norm = "norm lp 1.0 l_quantity (scaled 0.0001 l_extendedprice) (scaled 50.0 l_discount) (linf l_shipdateG l_commitdateG l_receiptdateG)"
    big_norm = small_norm.replace("(linf", "(scaled 30.0 (linf") + ")"
    values = {}
    for tag, norm_line in (("small", small_norm), ("big", big_norm)):
        text = "\n".join(
            norm_line if line.startswith("norm ") else line
            for line in LINEITEM_SCHEMA.splitlines()
        )
        schema = parse_schema(text)
        db = load_database(str(tmp_path), schema)
        ctx = validate(parse_query(B1_5_SQL), schema)
        plan = build_plan(ctx, PlanParams(beta=0.1, alpha=0.1))
        values[tag], _ = eng.run_sensitivity(plan, db)
    proof = compare(
        parse_norm("linf sd cd rd"), parse_norm("scaled 30.0 (linf sd cd rd)")
    )
    assert proof.proved  # small norm is dominated by the big one
    assert values["small"] >= values["big"] * (1.0 - 1e-12)
    assert values["small"] == pytest.approx(values["big"] * 30.0, rel=1e-9)


def test_ddp_budget_assertion():
    ddp_check((0.0, 1.0), (0.1, 1.0), gamma=4.0, budget=1.0)
    with pytest.raises(AssertionError, match="exceeds"):
        ddp_check((0.0, 1.0), (5.0, 1.0), gamma=4.0, budget=0.01)
