"""Derivative-sensitivity analysis and private release for SQL aggregates.

The pipeline: parse a query plus a schema with per-table row norms and CSV
data, rewrite the query into a continuous form, derive a smooth upper bound
on its derivative sensitivity aligned with the declared norms, evaluate
everything on the local data, and release the result with generalized-Cauchy
noise.

The package re-exports nothing, so `import dersens` loads none of its
modules: import the one you use (`dersens.sqlfront`, `dersens.analyzer`,
`dersens.engine`, `dersens.mechanism`, ...).  The analysis (parse, lower,
align norms, bound, emit SQL) and the noise of a release are pure Python:
numpy is loaded only by the CSV loader, the engine, `dersens.bench` and the
sampler's batches of more than one draw, and no release loads OpenSSL (the
noise bits come from CPython's `_blake2`).
"""

__version__ = "0.1.0"
