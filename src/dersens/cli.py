"""Command-line entry point: analyze, run, privatize, bench.

Exit codes: 0 success, 1 input error, 2 infeasible privacy parameters.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from dersens import analyzer as an
from dersens import sqlfront as sf
from dersens.exprs import AnalysisError, EvalError
from dersens.mechanism import InfeasibleParams, NoiseParams, privatize
from dersens.norms import NormError

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _read(path: str, what: str) -> str:
    if path is None:
        raise CliError(f"missing required --{what} path")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from None


def _load_inputs(args) -> tuple[sf.AnalysisContext, an.SensitivityPlan]:
    # argparse reads nan and inf as floats; PlanParams rejects them, naming
    # the field, which is the flag's name
    try:
        params = an.PlanParams(
            beta=args.beta, alpha=args.alpha,
            precise_ints=args.precise, or_as_xor=args.xor,
        )
    except ValueError as exc:
        raise CliError(f"--{exc}") from None
    try:
        schema = sf.parse_schema(_read(args.schema, "schema"))
        if args.norm:
            schema = sf.parse_schema(_read(args.norm, "norm"), base=schema)
        query = sf.parse_query(_read(args.query, "query"))
        ctx = sf.validate(query, schema)
        plan = an.build_plan(ctx, params)
    except (sf.ParseError, sf.SchemaError, NormError, AnalysisError) as exc:
        raise CliError(str(exc)) from None
    return ctx, plan


def _effective_beta(args, plan) -> float:
    return max(args.beta, plan.beta_achieved)


def _noise_params(args, plan) -> NoiseParams:
    beta = _effective_beta(args, plan)
    try:
        return NoiseParams(args.epsilon, beta, args.gamma)
    except InfeasibleParams as exc:
        msg = str(exc)
        if exc.min_epsilon is not None and plan.beta_achieved > args.beta:
            msg += (
                f"; the query only admits smoothness beta={plan.beta_achieved:.6g}"
                f" (requested {args.beta:.6g})"
            )
        raise CliError(msg, EXIT_INFEASIBLE) from None


def _seed(args) -> int | None:
    """--seed, else DERSENS_SEED, else None.  The noise is drawn from a
    BLAKE2b stream of the seed's bytes and bench data from numpy's Philox
    stream; neither takes a negative seed."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif (env := os.environ.get("DERSENS_SEED")) is not None:
        try:
            seed, source = int(env), "DERSENS_SEED"
        except ValueError:
            raise CliError(f"DERSENS_SEED must be an integer, got '{env}'") from None
    else:
        return None
    if seed < 0:
        raise CliError(f"{source} must be non-negative, got {seed}")
    return seed


def cmd_analyze(args) -> int:
    ctx, plan = _load_inputs(args)
    params = _noise_params(args, plan)  # aborts with exit 2 when infeasible
    modified, sensitivity = an.emit_sql(plan)
    if args.emit_sql:
        try:
            os.makedirs(args.emit_sql, exist_ok=True)
            with open(os.path.join(args.emit_sql, "modified.sql"), "w") as fh:
                fh.write(modified + "\n")
            with open(os.path.join(args.emit_sql, "sensitivity.sql"), "w") as fh:
                fh.write(sensitivity + "\n")
        except OSError as exc:
            raise CliError(f"cannot write the SQL files to {args.emit_sql}: {exc}") from None
        print(f"wrote modified.sql and sensitivity.sql to {args.emit_sql}")
    else:
        print("-- modified query")
        print(modified)
        print("-- sensitivity query")
        print(sensitivity)
    print(f"-- achieved beta: {plan.beta_achieved:.6g} "
          f"(requested {args.beta:.6g}); b = {params.b:.6g}")
    for tp in plan.table_plans:
        scales = ", ".join(f"{v}={s:.6g}" for v, s in tp.scales.items()) or "none"
        print(f"-- scaling for {tp.table}: {scales}")
    for w in plan.warnings:
        print(f"-- warning: {w}")
    return EXIT_OK


def _evaluate(args, analyst: bool) -> tuple:
    """The plan, and the initial (analyst view only), modified and
    sensitivity values with the sensitivity's breakdown on the data."""
    # imported here, not with the module, so that `analyze` loads no numpy;
    # calls go through the module, where a tracer that rebinds them sees them
    from dersens import engine as eng

    ctx, plan = _load_inputs(args)
    if args.data is None:
        raise CliError("missing required --data directory")
    try:
        db = sf.load_database(args.data, ctx.schema, ctx.reads())
        rows = eng.public_rows(ctx, db)
        initial = eng.run_initial(ctx, db, rows) if analyst else None
        modified = eng.run_modified(plan, db, rows)
        sens, breakdown = eng.run_sensitivity(plan, db, rows)
    except (sf.SchemaError, eng.EngineError, EvalError) as exc:
        raise CliError(str(exc)) from None
    return plan, initial, modified, sens, breakdown


def _run_report(args) -> dict:
    """The analyst's view: exact and modified values, the sensitivity and
    its worst rows.  Nothing in it is private."""
    plan, initial, modified, sens, breakdown = _evaluate(args, analyst=True)
    report = {
        "report_version": REPORT_VERSION,
        "initial": initial,
        "modified": modified,
        "sensitivity": sens,
        "rel_error": _rel_error(initial, modified, sens),
        "achieved_beta": plan.beta_achieved,
        "requested_beta": args.beta,
        "warnings": list(plan.warnings),
        "groups": [
            {"table": b.table, "worst_row": b.argmax, "value": b.value}
            for b in breakdown
        ],
        "private": False,
    }
    if sens == 0.0 and any("sensitive" in w for w in plan.warnings):
        report["warnings"].append("sensitivity is 0; nothing to protect?")
    return report


def _release(args) -> dict:
    """The noised value and the public parameters it was released under;
    no value computed from the data is printed beside it."""
    plan, _, modified, sens, _ = _evaluate(args, analyst=False)
    params = _noise_params(args, plan)
    seed = _seed(args)
    # an unseeded release draws its seed from OS entropy and does not print
    # it: with the seed a reader could recompute the noise
    try:
        noised = privatize(modified, sens, params,
                           int.from_bytes(os.urandom(16), "big") if seed is None else seed)
    except InfeasibleParams as exc:
        raise CliError(str(exc), EXIT_INFEASIBLE) from None
    report = {
        "report_version": REPORT_VERSION,
        "noised": noised,
        "epsilon": params.epsilon,
        "beta": params.beta,
        "gamma": params.gamma,
        "b": params.b,
        # a seed that was given can be given again, to recompute the noise
        "private": seed is None,
    }
    if seed is not None:
        report["seed"] = seed
    return report


def _rel_error(initial: float, modified: float, sens: float) -> float | None:
    if initial == 0.0:
        return None
    return abs((modified + 10.0 * sens) - initial) / abs(initial) * 100.0


def _print_report(report: dict, compact: bool) -> None:
    """Print the report as strict JSON, which has no NaN or infinity."""
    try:
        text = json.dumps(report, indent=None if compact else 2, allow_nan=False)
    except ValueError:
        raise CliError("the report has a non-finite value") from None
    print(text)


def cmd_run(args) -> int:
    _print_report(_run_report(args), args.json)
    return EXIT_OK


def cmd_privatize(args) -> int:
    _print_report(_release(args), args.json)
    return EXIT_OK


def cmd_bench(args) -> int:
    from dersens import bench as bn

    if args.rows < 1:
        raise CliError(f"--rows must be at least 1, got {args.rows}")
    data_dir = args.data or tempfile.mkdtemp(prefix="dersens_bench_")
    seed = _seed(args)
    query_path = os.path.join(data_dir, "b1_1.sql")
    try:
        bn.write_dataset(data_dir, rows=args.rows, seed=0 if seed is None else seed)
        with open(query_path, "w") as fh:
            fh.write(bn.B1_1_QUERY)
    except OSError as exc:
        raise CliError(f"cannot write the bench data to {data_dir}: {exc}") from None
    args.schema = os.path.join(data_dir, "schema.txt")
    args.query = query_path
    args.norm = None
    args.data = data_dir
    report = _run_report(args)
    report["rows"] = args.rows
    report["data_dir"] = data_dir
    _print_report(report, args.json)
    return EXIT_OK


# built on the first call, not at import: a parser costs about 50
# add_argument calls, each asking the terminal for its size.  parse_args
# leaves the parser as it was and returns a fresh Namespace each call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dersens",
        description="Smooth derivative-sensitivity analysis and private release "
        "for SQL aggregates under composite table norms.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # bench writes its own query and schema, so it takes no input files
    def common(p, inputs=True, data=False):
        if inputs:
            p.add_argument("--query", help="SQL query file")
            p.add_argument("--schema", help="schema file (tables, columns, norms)")
            p.add_argument("--norm", help="optional norm file overriding schema norms")
        if data:
            p.add_argument("--data", help="directory with <table>.csv and <table>_sensRows.csv")
        p.add_argument("--epsilon", type=float, default=1.0, help="privacy level (default 1.0)")
        p.add_argument("--beta", type=float, default=0.1, help="smoothness (default 0.1)")
        p.add_argument("--gamma", type=float, default=4.0, help="noise shape (default 4.0)")
        p.add_argument("--alpha", type=float, default=5.0,
                       help="sigmoid/tauoid filter precision (default 5.0)")
        p.add_argument("--precise", action="store_true",
                       help="exact clamped lowering for integer comparisons")
        p.add_argument("--xor", action="store_true",
                       help="lower OR as XOR (caller asserts mutual exclusion)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to DERSENS_SEED; without either, "
                       "privatize draws an unprinted seed from OS entropy and "
                       "bench generates its data with seed 0)")
        p.add_argument("--json", action="store_true", help="compact JSON output")

    p = sub.add_parser("analyze", help="emit modified and sensitivity SQL")
    common(p)
    p.add_argument("--emit-sql", metavar="DIR", help="write the SQL files here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="evaluate initial/modified/sensitivity on local data")
    common(p, data=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("privatize", help="run and release a noised value")
    common(p, data=True)
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("bench", help="generate seeded micro data and run the benchmark query")
    common(p, inputs=False, data=True)
    p.add_argument("--rows", type=int, default=1000, help="lineitem rows")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except RecursionError:
        # the parser and the calculus recurse once per nesting level
        print("error: the query nests too deeply to analyse", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
