"""Composite seminorms over named variables: parsing, evaluation, comparison, rescaling.

A norm is a tree of variables, positive scalings and nested lp combinators.
Every table declares one such norm over its numeric columns, and the schema
reader keeps its normal form, which `analyzer.align_norms` fits each query's
columns under in closed form.  The structural comparison and the paper's two
scaling methods (`compare`, `scale_elaborate`, `scale_straightforward`) fit
one norm tree under another by search; no release calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Sequence, Union

INF = math.inf

_EPS = 1e-12


class NormError(ValueError):
    """Raised for malformed norm text or invalid norm structure."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Var:
    """A single named coordinate; evaluates to the absolute value of its binding."""

    name: str


@dataclass(frozen=True)
class Scale:
    """A positive rescaling of a subnorm."""

    factor: float
    child: "NormExpr"

    def __post_init__(self):
        if not (self.factor > 0.0):
            raise NormError(f"scale factor must be positive, got {self.factor}")


@dataclass(frozen=True)
class Combine:
    """An lp combination of subnorms; p is a real >= 1 or math.inf."""

    p: float
    children: tuple["NormExpr", ...]

    def __post_init__(self):
        if self.p != INF and not (self.p >= 1.0):
            raise NormError(f"lp exponent must be >= 1 or inf, got {self.p}")
        if not self.children:
            raise NormError("lp combination needs at least one argument")
        object.__setattr__(self, "children", tuple(self.children))


NormExpr = Union[Var, Scale, Combine]


def norm_vars(n: NormExpr) -> frozenset[str]:
    """Variables used by a norm: the union over its subterms."""
    if isinstance(n, Var):
        return frozenset((n.name,))
    if isinstance(n, Scale):
        return norm_vars(n.child)
    out: frozenset[str] = frozenset()
    for c in n.children:
        out |= norm_vars(c)
    return out


def eval_norm(n: NormExpr, assignment: Mapping[str, float]) -> float:
    """Evaluate the seminorm at a point; absolute values are applied at leaves."""
    if isinstance(n, Var):
        try:
            return abs(float(assignment[n.name]))
        except KeyError:
            raise NormError(f"no binding for norm variable '{n.name}'") from None
    if isinstance(n, Scale):
        return n.factor * eval_norm(n.child, assignment)
    return lp_norm([eval_norm(c, assignment) for c in n.children], n.p)


def lp_norm(values: Sequence[float], p: float) -> float:
    """The lp norm of non-negative values: their max for p = inf, their sum
    for p = 1, 0.0 for none.  Where the powers overflow, the norm is taken of
    the values scaled by their max, so that a result within range comes out
    finite."""
    if not values:
        return 0.0
    if p == INF:
        return max(values)
    if p == 1.0:
        return math.fsum(values)
    try:
        return math.fsum(v**p for v in values) ** (1.0 / p)
    except OverflowError:
        top = max(values)
        return top * math.fsum((v / top) ** p for v in values) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_KEYWORDS = {"lp", "linf", "scaled"}


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    toks = []
    line, col = 1, 1
    buf, bl, bc = "", 0, 0
    for ch in text + "\n":
        if ch in "()" or ch.isspace():
            if buf:
                toks.append((buf, bl, bc))
                buf = ""
            if ch in "()":
                toks.append((ch, line, col))
        else:
            if not buf:
                bl, bc = line, col
            buf += ch
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    return toks


class _NormParser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        t = self._peek()
        if t is None:
            raise NormError("unexpected end of norm expression")
        self.pos += 1
        return t

    def _fail(self, msg, tok):
        raise NormError(msg, tok[1], tok[2])

    def _float(self) -> float:
        tok = self._next()
        try:
            return float(tok[0])
        except ValueError:
            self._fail(f"expected a number, got '{tok[0]}'", tok)

    def parse(self) -> NormExpr:
        n = self.norm()
        if self._peek() is not None:
            self._fail(f"trailing token '{self._peek()[0]}'", self._peek())
        return n

    def norm(self) -> NormExpr:
        tok = self._next()
        word = tok[0]
        if word == "(":
            n = self.norm()
            closer = self._next()
            if closer[0] != ")":
                self._fail(f"expected ')', got '{closer[0]}'", closer)
            return n
        if word == "lp":
            p = self._float()
            if not p >= 1.0:
                self._fail(f"lp exponent must be >= 1, got {p}", tok)
            return Combine(p, tuple(self._items(tok)))
        if word == "linf":
            return Combine(INF, tuple(self._items(tok)))
        if word == "scaled":
            a = self._float()
            if not a > 0.0:
                self._fail(f"non-positive scale factor {a}", tok)
            return Scale(a, self.norm())
        if word == ")":
            self._fail("unexpected ')'", tok)
        return Var(word)

    def _items(self, head) -> Iterator[NormExpr]:
        got = False
        while True:
            t = self._peek()
            if t is None or t[0] == ")":
                break
            if t[0] == "(":
                yield self.norm()
            elif t[0] in _KEYWORDS:
                break
            else:
                self.pos += 1
                yield Var(t[0])
            got = True
        if not got:
            self._fail("lp/linf needs at least one argument", head)


def parse_norm(text: str) -> NormExpr:
    """Parse the whitespace-separated s-expression norm syntax.

    Grammar: norm := "lp" FLOAT item+ | "linf" item+ | "scaled" FLOAT norm
                   | "(" norm ")" | VAR
    """
    return _NormParser(text).parse()


def print_norm(n: NormExpr) -> str:
    """Render a norm in the concrete syntax; parse_norm round-trips it."""
    if isinstance(n, Var):
        return n.name
    if isinstance(n, Scale):
        child = print_norm(n.child)
        if not isinstance(n.child, Var):
            child = f"({child})"
        return f"scaled {n.factor!r} {child}"
    head = "linf" if n.p == INF else f"lp {n.p!r}"
    parts = [print_norm(c) if isinstance(c, Var) else f"({print_norm(c)})" for c in n.children]
    return " ".join([head, *parts])


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _push_scale(a: float, n: NormExpr) -> NormExpr:
    if isinstance(n, Var):
        return n if abs(a - 1.0) <= _EPS else Scale(a, n)
    if isinstance(n, Scale):
        return _push_scale(a * n.factor, n.child)
    return Combine(n.p, tuple(_push_scale(a, c) for c in n.children))


def _leaf_key(n: NormExpr) -> tuple:
    if isinstance(n, Var):
        return (0, n.name, 1.0)
    if isinstance(n, Scale):
        return (0, n.child.name, n.factor)  # scales wrap vars after pushing
    return (1, -n.p if n.p != INF else -math.inf, print_norm(n))


def normalize(n: NormExpr) -> NormExpr:
    """Canonical form: scales directly on variables, same-p nests flattened,
    repeated variables under one combinator merged, children sorted.

    Merging k >= 2 scaled occurrences of one variable at exponent p uses the
    coefficient (sum_j a_j^p)^(1/p) (max for p = inf), which preserves the
    evaluated function exactly.  A lone occurrence keeps its factor as it
    is, since (a^p)^(1/p) may move its last bits; so normalizing a normal
    form returns it unchanged.
    """
    n = _push_scale(1.0, n)
    return _normalize_pushed(n)


def _normalize_pushed(n: NormExpr) -> NormExpr:
    if isinstance(n, (Var, Scale)):
        return n
    kids: list[NormExpr] = []
    for c in n.children:
        c = _normalize_pushed(c)
        if isinstance(c, Combine) and c.p == n.p:
            kids.extend(c.children)
        else:
            kids.append(c)
    by_var: dict[str, list[float]] = {}
    rest: list[NormExpr] = []
    for c in kids:
        if isinstance(c, Var):
            by_var.setdefault(c.name, []).append(1.0)
        elif isinstance(c, Scale) and isinstance(c.child, Var):
            by_var.setdefault(c.child.name, []).append(c.factor)
        else:
            rest.append(c)
    merged: list[NormExpr] = []
    for name, coefs in by_var.items():
        a = coefs[0] if len(coefs) == 1 else lp_norm(coefs, n.p)
        merged.append(Var(name) if abs(a - 1.0) <= _EPS else Scale(a, Var(name)))
    out = sorted(merged + rest, key=_leaf_key)
    if len(out) == 1:
        return out[0]
    return Combine(n.p, tuple(out))


# ---------------------------------------------------------------------------
# Hammer bounds: flat lp envelopes of a composite norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HammerBound:
    """A flat bound ||a_i x_i||_p on a composite norm (one side of the envelope)."""

    exponent: float
    coeffs: dict[str, float] = field(hash=False)

    def as_norm(self) -> NormExpr:
        kids = tuple(
            Var(v) if abs(a - 1.0) <= _EPS else Scale(a, Var(v))
            for v, a in sorted(self.coeffs.items())
        )
        return kids[0] if len(kids) == 1 else Combine(self.exponent, kids)


def _occurrences(n: NormExpr, acc: float = 1.0) -> Iterator[tuple[str, float]]:
    if isinstance(n, Var):
        yield (n.name, acc)
    elif isinstance(n, Scale):
        yield from _occurrences(n.child, acc * n.factor)
    else:
        for c in n.children:
            yield from _occurrences(c, acc)


def _exponents(n: NormExpr) -> Iterator[float]:
    if isinstance(n, Scale):
        yield from _exponents(n.child)
    elif isinstance(n, Combine):
        yield n.p
        for c in n.children:
            yield from _exponents(c)


def _merge_coeffs(occ: list[tuple[str, float]], p: float) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for v, a in occ:
        groups.setdefault(v, []).append(a)
    return {v: lp_norm(coefs, p) for v, coefs in groups.items()}


def hammer_bounds(n: NormExpr) -> tuple[HammerBound, HammerBound]:
    """Flat envelopes (lower, upper) with ||low|| <= ||.||_n <= ||up||.

    The lower bound uses the largest exponent appearing in the norm, the
    upper bound the smallest; repeated occurrences of one variable merge at
    the bound's own exponent.
    """
    exps = list(_exponents(n))
    occ = list(_occurrences(n))
    p_large = max(exps) if exps else 1.0
    p_small = min(exps) if exps else 1.0
    lower = HammerBound(p_large, _merge_coeffs(occ, p_large))
    upper = HammerBound(p_small, _merge_coeffs(occ, p_small))
    return lower, upper


# ---------------------------------------------------------------------------
# Structural comparison and scaling witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """Outcome of a domination check between two norms."""

    proved: bool
    steps: tuple[str, ...] = ()
    failure: str | None = None


@dataclass(frozen=True)
class ScalingWitness:
    """Per-variable scalings that fit a query norm under a database norm.

    Contract: global_scale * ||(var_scale[v] * x_v)_v||_query <= ||x||_db
    for every assignment.  Larger scalings mean proportionally less noise,
    since the derivative sensitivity is divided by them.
    """

    var_scale: dict[str, float] = field(hash=False)
    global_scale: float = 1.0
    method: str = "elaborate"

    def effective(self, v: str) -> float:
        return self.global_scale * self.var_scale[v]

    def apply(self, nq: NormExpr) -> NormExpr:
        """The scaled query norm the contract refers to."""
        scaled = _substitute_scales(nq, self.var_scale)
        return normalize(_push_scale(self.global_scale, scaled))


def _substitute_scales(n: NormExpr, factors: Mapping[str, float]) -> NormExpr:
    if isinstance(n, Var):
        f = factors.get(n.name, 1.0)
        return n if abs(f - 1.0) <= _EPS else Scale(f, n)
    if isinstance(n, Scale):
        return Scale(n.factor, _substitute_scales(n.child, factors))
    return Combine(n.p, tuple(_substitute_scales(c, factors) for c in n.children))


def _normal_pair(nq: NormExpr, ndb: NormExpr) -> tuple[NormExpr, NormExpr]:
    """Both norms in normal form, once ndb is checked to cover nq's variables."""
    missing = norm_vars(nq) - norm_vars(ndb)
    if missing:
        raise NormError(
            "query norm uses variables absent from the database norm: "
            + ", ".join(sorted(missing))
        )
    return normalize(nq), normalize(ndb)


def _min_merge(dst: dict[str, float], src: Mapping[str, float]) -> None:
    for v, f in src.items():
        dst[v] = min(dst.get(v, INF), f)


def _flatten_lhs(p: float, children: tuple[NormExpr, ...]) -> tuple[NormExpr, ...]:
    # Splitting an inner block whose exponent is >= the node's only grows the
    # value, so the flattened form still lower-bounds anything the original did.
    out: list[NormExpr] = []
    for c in children:
        if isinstance(c, Combine) and c.p >= p:
            out.extend(_flatten_lhs(p, c.children))
        else:
            out.append(c)
    return tuple(out)


def _flatten_rhs(q: float, children: tuple[NormExpr, ...]) -> tuple[NormExpr, ...]:
    # Splitting an inner block whose exponent is <= the node's only shrinks the
    # value, so matching against the flattened form is sound.
    out: list[NormExpr] = []
    for c in children:
        if isinstance(c, Combine) and c.p <= q:
            out.extend(_flatten_rhs(q, c.children))
        else:
            out.append(c)
    return tuple(out)


class _Matcher:
    """Recursive structural matcher; finds per-variable scalings f with
    ||f*x||_v <= ||x||_w, preferring the largest total scaling."""

    def __init__(self):
        # Steps and the first failure are kept as nodes and formatted only
        # by compare(): scale_elaborate reads neither.  A step is (v, w,
        # penalty), penalty None for a matched pair; a failure is (v, w, why).
        self.steps: list[tuple[NormExpr, NormExpr, float | None]] = []
        self.failure: tuple[NormExpr, NormExpr, str] | None = None

    def _note_fail(self, v, w, why):
        if self.failure is None:
            self.failure = (v, w, why)

    def match(self, v: NormExpr, w: NormExpr) -> dict[str, float] | None:
        if isinstance(v, Scale):
            m = self.match(v.child, w)
            if m is None:
                return None
            return {x: f / v.factor for x, f in m.items()}
        if isinstance(w, Scale):
            m = self.match(v, w.child)
            if m is None:
                return None
            return {x: f * w.factor for x, f in m.items()}
        if isinstance(v, Var):
            if isinstance(w, Var):
                if v.name == w.name:
                    return {v.name: 1.0}
                self._note_fail(v, w, "different variables")
                return None
            # embed the atom into the best child of the combination
            best = None
            for c in w.children:
                m = self.match(v, c)
                if m is not None and (best is None or m[v.name] > best[v.name]):
                    best = m
            if best is None:
                self._note_fail(v, w, "no child contains the variable")
            return best
        if isinstance(w, Var):
            self._note_fail(v, w, "a combination cannot embed into an atom")
            return None
        return self._match_blocks(v, w)

    def _match_blocks(self, v: Combine, w: Combine) -> dict[str, float] | None:
        attempts = [(v.children, w.children)]
        flat_v = _flatten_lhs(v.p, v.children)
        flat_w = _flatten_rhs(w.p, w.children)
        if flat_v != v.children:
            attempts.append((flat_v, w.children))
        if flat_w != w.children:
            attempts.append((v.children, flat_w))
        if flat_v != v.children and flat_w != w.children:
            attempts.append((flat_v, flat_w))
        penalty = 1.0
        if v.p < w.p:
            # fitting a smaller exponent under a larger one costs m^(1/q - 1/p)
            m = len(v.children)
            penalty = m ** (1.0 / w.p - 1.0 / v.p) if w.p != INF else m ** (-1.0 / v.p)
            self.steps.append((v, w, penalty))
        best: dict[str, float] | None = None
        best_score = -INF
        for vs, ws in attempts:
            got = self._match_injective(vs, ws)
            if got is None:
                continue
            score = math.fsum(math.log(f) for f in got.values())
            if score > best_score + _EPS:
                best, best_score = got, score
        if best is None:
            self._note_fail(v, w, "no injective matching of subterms")
            return None
        if penalty != 1.0:
            best = {x: f * penalty for x, f in best.items()}
        return best

    def _match_injective(
        self, vs: tuple[NormExpr, ...], ws: tuple[NormExpr, ...]
    ) -> dict[str, float] | None:
        # every match ends in a variable matched to itself, so a child that
        # holds none of the slots' variables matches no slot: dropping it
        # leaves the injection, and the DP's size follows the query's width
        slot_vars = frozenset().union(*map(norm_vars, vs))
        ws = tuple(w for w in ws if not slot_vars.isdisjoint(norm_vars(w)))
        m, n = len(vs), len(ws)
        if m > n or n > 16:
            return None
        edges: list[list[dict[str, float] | None]] = []
        weights: list[list[float]] = []
        for vi in vs:
            row, wrow = [], []
            for wj in ws:
                got = self.match(vi, wj)
                row.append(got)
                if got is None:
                    wrow.append(INF)
                else:
                    wrow.append(-math.fsum(math.log(f) for f in got.values()))
            edges.append(row)
            weights.append(wrow)
        assign = min_weight_injection(weights)
        if assign is None:
            return None
        out: dict[str, float] = {}
        for i, j in enumerate(assign):
            self.steps.append((vs[i], ws[j], None))
            _min_merge(out, edges[i][j])
        return out


def min_weight_injection(weights: list[list[float]]) -> list[int] | None:
    """Minimum-total-weight injective assignment of rows to columns.

    Exact bitmask dynamic program; ties resolve to the lexicographically
    smallest column vector so results are deterministic.  Entries of +inf
    mark forbidden pairs.  Returns None when no full injection exists.
    """
    m = len(weights)
    if m == 0:
        return []
    n = len(weights[0])

    @lru_cache(maxsize=None)
    def go(i: int, used: int) -> float:
        if i == m:
            return 0.0
        best = INF
        for j in range(n):
            if used >> j & 1 or weights[i][j] == INF:
                continue
            cand = weights[i][j] + go(i + 1, used | 1 << j)
            if cand < best:
                best = cand
        return best

    if go(0, 0) == INF:
        go.cache_clear()
        return None
    out: list[int] = []
    used = 0
    for i in range(m):
        target = go(i, used)
        chosen = None
        for j in range(n):
            if used >> j & 1 or weights[i][j] == INF:
                continue
            cand = weights[i][j] + go(i + 1, used | 1 << j)
            if cand <= target + 1e-9 * max(1.0, abs(target)):
                chosen = j
                break
        if chosen is None:
            go.cache_clear()
            return None
        out.append(chosen)
        used |= 1 << chosen
    go.cache_clear()
    return out


def compare(nq: NormExpr, ndb: NormExpr) -> Comparison:
    """Check nq <= ndb pointwise via the structural rule system.

    A successful result carries the derivation steps; a failure carries a
    hint naming the first subterm pair that could not be matched (the
    straightforward scaling method stays available as a complete fallback).
    """
    nq, ndb = _normal_pair(nq, ndb)
    matcher = _Matcher()
    factors = matcher.match(nq, ndb)
    steps = tuple(
        f"match {print_norm(v)} <= {print_norm(w)}" if penalty is None
        else f"exponent step {v.p} -> {w.p} scales {print_norm(v)} by {penalty:.6g}"
        for v, w, penalty in matcher.steps
    )
    if factors is None:
        v, w, why = matcher.failure  # match notes a failure before it returns None
        return Comparison(False, steps, f"cannot fit {print_norm(v)} under {print_norm(w)}: {why}")
    bad = [v for v, f in factors.items() if f < 1.0 - 1e-9]
    if bad:
        hint = ", ".join(f"{v} would need scaling {factors[v]:.6g}" for v in sorted(bad))
        return Comparison(False, steps, hint)
    return Comparison(True, steps)


def scale_straightforward(nq: NormExpr, ndb: NormExpr) -> ScalingWitness:
    """Fit nq under ndb by flattening both norms to their hammer envelopes.

    Always succeeds for composite norms whose variables are covered by ndb,
    at the price of a conservative global factor when the envelope exponents
    disagree.
    """
    return _fit_envelopes(*_normal_pair(nq, ndb))


def _fit_envelopes(nq: NormExpr, ndb: NormExpr) -> ScalingWitness:
    """scale_straightforward on normal forms whose variables ndb covers, so
    that scale_elaborate's fallback normalizes neither norm twice."""
    _, q_upper = hammer_bounds(nq)
    db_lower, _ = hammer_bounds(ndb)
    p, q = q_upper.exponent, db_lower.exponent
    alphas = q_upper.coeffs
    betas = db_lower.coeffs
    gammas = {v: min(alphas[v], betas[v]) for v in alphas}
    if p <= q:
        m = max(len(alphas), 1)
        if q == INF:
            g = m ** (0.0 - 1.0 / p) if p != INF else 1.0
        else:
            g = m ** (1.0 / q - 1.0 / p)
    else:
        g = 1.0
    return ScalingWitness(
        var_scale={v: gammas[v] / alphas[v] for v in alphas},
        global_scale=g,
        method="straightforward",
    )


def scale_elaborate(nq: NormExpr, ndb: NormExpr) -> ScalingWitness:
    """Fit nq under ndb by recursive structural matching.

    Follows the norm trees top-down, resolving repeated-variable ambiguity
    with a minimum-weight injective matching (edge weight -log of the scaling
    it forces, so the minimum-weight choice maximizes the total scaling).
    Falls back to the straightforward method when matching fails.
    """
    nq, ndb = _normal_pair(nq, ndb)
    factors = _Matcher().match(nq, ndb)
    if factors is None:
        return _fit_envelopes(nq, ndb)
    return ScalingWitness(var_scale=dict(sorted(factors.items())), global_scale=1.0)
