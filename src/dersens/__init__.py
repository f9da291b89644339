"""Derivative-sensitivity analysis and private release for SQL aggregates.

The pipeline: parse a query plus a schema with per-table row norms and CSV
data, rewrite the query into a continuous form, derive a smooth upper bound
on its derivative sensitivity aligned with the declared norms, evaluate
everything on the local data, and release the result with generalized-Cauchy
noise.

Importing the package loads no numpy: the analysis (parse, lower, align
norms, bound, emit SQL) and the noise of a release are pure Python, and numpy
is loaded only by the CSV loader, the engine, `dersens.bench` and the
sampler's batches of more than one draw.  The noise bits come from BLAKE2b
keyed by the seed, taken from CPython's `_blake2` (which `hashlib.blake2b`
is), so that no release loads OpenSSL.  The engine's functions are imported from
`dersens.engine`.
"""

from dersens.analyzer import (
    PlanParams,
    SensitivityPlan,
    build_plan,
    emit_sql,
    lower_aggregation,
)
from dersens.exprs import (
    AnalysisError,
    EvalError,
    ScalarExpr,
    eval_scalar,
)
from dersens.mechanism import (
    GenCauchy,
    InfeasibleParams,
    NoiseParams,
    Release,
    derive_b,
    privatize,
    sample,
)
from dersens.norms import (
    Combine,
    HammerBound,
    NormError,
    NormExpr,
    Scale,
    ScalingWitness,
    Var,
    compare,
    eval_norm,
    hammer_bounds,
    normalize,
    parse_norm,
    print_norm,
    scale_elaborate,
    scale_straightforward,
)
from dersens.sqlfront import (
    Database,
    ParseError,
    QuerySpec,
    Schema,
    SchemaError,
    load_database,
    parse_emitted,
    parse_query,
    parse_schema,
    print_query,
    validate,
)

__version__ = "0.1.0"
