"""The measuring process of one benchmark run.

run.py writes the inputs to disk and then starts this process, one per run,
single-threaded.  It imports the package, runs one untimed warm-up
operation, then repeats rounds of the workload's operation until the run
length is used up, with `gc.collect()` before each operation.  Peak RSS is
read right after the last round, before the benchmark builds any data of its
own; the correctness checks run after that.  The result is written as JSON
to the file named by --result.

A round of a release workload is the timed `dersens privatize` call plus
the two emitted statements run on sqlite, which is what a deployment on a
live DBMS executes; the sqlite statements of every round run after the peak
RSS is read.  A round of analyze_mix is one timed analysis pass.  With
--trace 1, every other round is traced, and the untraced rounds in between
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import checks
import inputs

# (metric, unit, the span or counter it is read from, if the tracer records it)
PER_LAYER = [
    ("sqlfront.load_database.s", "s", "sqlfront.load_database"),
    ("sqlfront.rows_loaded", "rows", "sqlfront.rows_loaded"),
    ("sqlfront.parse_validate.s", "s", "sqlfront.parse_validate"),
    ("analyzer.build_plan.s", "s", "analyzer.build_plan"),
    ("exprs.analyze.s", "s", "exprs.analyze"),
    ("norms.scale_elaborate.s", "s", "norms.scale_elaborate"),
    ("norms.scale_elaborate.calls", "count", "norms.scale_elaborate"),
    ("analyzer.emit_sql.s", "s", "analyzer.emit_sql"),
    ("engine.run_initial.s", "s", "engine.run_initial"),
    ("engine.run_modified.s", "s", "engine.run_modified"),
    ("engine.run_sensitivity.s", "s", "engine.run_sensitivity"),
    ("engine.public_rows.s", "s", "engine.public_rows"),
    ("engine.public_rows.calls", "count", "engine.public_rows"),
    ("engine.public_rows.rows", "rows", "engine.public_rows.rows"),
    ("engine.eval_scalar.calls", "count", "engine.eval_scalar.calls"),
    ("runtime.gc.s", "s", "runtime.gc"),
    ("mechanism.sampler_build.s", "s", None),
    ("mechanism.privatize.s", "s", "mechanism.privatize"),
    ("cli.main.self_s", "s", "cli.main"),
    ("trace.overhead_s", "s", None),
]


def mean(times: list[float]) -> float:
    return math.fsum(times) / len(times)


def _cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def release_args() -> list[str]:
    return ["--epsilon", repr(inputs.EPSILON), "--beta", repr(inputs.BETA),
            "--gamma", repr(inputs.GAMMA), "--alpha", repr(inputs.ALPHA)]


def mix_pass(sf, an, schema_text: str) -> list[tuple[object, str, str]]:
    """One analysis pass over the query list: (plan, modified, sensitivity)."""
    schema = sf.parse_schema(schema_text)
    out = []
    for _, alpha, flags, sql in inputs.MIX:
        ctx = sf.validate(sf.parse_query(sql), schema)
        plan = an.build_plan(ctx, an.PlanParams(beta=inputs.BETA, alpha=alpha, **flags))
        modified, sensitivity = an.emit_sql(plan)
        out.append((plan, modified, sensitivity))
    return out


class Run:
    def __init__(self, args):
        self.args = args
        self.problems: list[str] = []  # failed checks: the run is not correct
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.tracer = None

    def check(self, ok: bool, what: str) -> None:
        print(f"check {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.problems.append(what)

    # -- the timed loop -----------------------------------------------------

    def loop(self, op) -> None:
        """Rounds of `op` until --seconds of wall time have passed."""
        end = time.perf_counter() + self.args.seconds
        while self.rounds == 0 or time.perf_counter() < end:
            traced = self.tracer is not None and self.rounds % 2 == 0
            gc.collect()
            if traced:
                mark = self.tracer.mark()
                self.tracer.install()
                root = self.tracer.open("op")
            t0 = time.perf_counter()
            out = op()
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.close(root)
                self.tracer.remove()
                self.layers.append(self.tracer.figures_since(mark))
                self.traced.append(dt)
            else:
                self.untraced.append(dt)
            self.attempted += 1
            self.on_op(out)
            self.rounds += 1

    def on_op(self, out) -> None:
        raise NotImplementedError

    # -- results --------------------------------------------------------------

    def per_layer(self, sampler_build: float | None) -> dict[str, dict]:
        """Median over the traced operations of each layer's figure.  A layer
        the workload does not call reads 0; a layer whose function is gone
        from the package reads null."""
        missing = set(self.tracer.missing)
        print("trace: cannot measure " + (", ".join(sorted(missing)) or "-"))
        out = {}
        for name, unit, source in PER_LAYER:
            if source in missing:
                value = None
            elif name == "mechanism.sampler_build.s":
                value = sampler_build or 0.0
            elif name == "trace.overhead_s":
                value = mean(self.traced) - mean(self.untraced)
            else:
                key = "cli.main.s" if name == "cli.main.self_s" else name
                value = statistics.median(f.get(key, 0.0) for f in self.layers)
            out[name] = {"value": value, "unit": unit}
        return out

    def end_to_end(self, extra: dict[str, tuple[float, str]]) -> dict[str, dict]:
        out = {
            "ops_per_s": (1.0 / mean(self.untraced), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        out.update(extra)
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def read_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Release workloads
# ---------------------------------------------------------------------------


class ReleaseRun(Run):
    def main(self) -> dict:
        from dersens import cli, mechanism
        from dersens import sqlfront as sf

        a = self.args
        d = a.dir
        qpath, spath = os.path.join(d, "query.sql"), os.path.join(d, "schema.txt")
        common = ["--query", qpath, "--schema", spath, *release_args()]
        privatize = ["privatize", *common, "--data", d, "--seed", str(a.seed), "--json"]
        if a.trace:
            import tracing

            self.tracer = tracing.Tracer()
        sampler_build = None
        if self.tracer is not None:
            t0 = time.perf_counter()
            mechanism.sample(inputs.GAMMA, 0)  # the first draw builds the CDF table
            sampler_build = time.perf_counter() - t0

        rc, warm = _cli(cli, privatize)  # untimed warm-up
        self.check(rc == 0, f"warm-up privatize exits 0 (got {rc})")
        rc, out = _cli(cli, ["run", *common, "--data", d, "--json"])
        self.check(rc == 0, f"run --json exits 0 (got {rc})")
        ref = json.loads(out)
        sql_dir = os.path.join(d, "sql")
        rc, _ = _cli(cli, ["analyze", *common, "--emit-sql", sql_dir])
        self.check(rc == 0, f"analyze --emit-sql exits 0 (got {rc})")
        emitted = {}
        for part in ("modified", "sensitivity"):
            with open(os.path.join(sql_dir, f"{part}.sql")) as fh:
                emitted[part] = fh.read().rstrip("\n")
        self.warm = warm
        self.wrong_outputs = 0

        self.loop(lambda: _cli(cli, privatize))
        self.read_rss()

        # -- the deployment and the checks, after the measurement ---------
        tables = inputs.release_inputs(a.workload, a.seed)[0]
        db = checks.SqliteDeployment(d, list(tables))
        statements = {p: checks.sqlite_statement(s, sf) for p, s in emitted.items()}
        deployed: dict[str, list] = {"modified": [], "sensitivity": []}
        for _ in range(self.rounds):
            for part, stmt in statements.items():
                self.attempted += 1
                got = db.value(stmt)
                deployed[part].append(got)
                if got is None or not checks.close(got, ref[part]):
                    self.failed += 1

        self.check(self.wrong_outputs == 0,
                   f"every release printed the warm-up's output ({self.wrong_outputs} differ)")
        rel = json.loads(warm)
        expect = inputs.EPSILON / (inputs.GAMMA + 1.0) - max(inputs.BETA, ref["achieved_beta"])
        self.check(checks.close(rel["b"], expect, 1e-12), f"b = eps/(gamma+1) - beta: {rel['b']!r} vs {expect!r}")
        initial = checks.harness_initial(a.workload, tables)
        self.check(ref["initial"] == initial, f"initial {ref['initial']!r} == fsum over the rows {initial!r}")
        for part in ("modified", "sensitivity"):
            got = deployed[part][0]
            same = all(v == got for v in deployed[part])
            self.check(same, f"sqlite {part} is the same in every round")
            if got is not None and checks.close(got, ref[part]):
                self.check(True, f"sqlite {part} {got!r} ~ engine {ref[part]!r}")
                continue
            nulls = db.value(checks.null_rows_statement(emitted[part], sf))
            print(f"known fault: sqlite {part} {got!r} vs engine {ref[part]!r}; "
                  f"{nulls} rows overflow exp() to NULL (sigmoid rendering in analyzer.render)")
            self.check(bool(nulls), f"a sqlite {part} mismatch comes with overflowed rows")
        db.close()
        companion, bad = checks.derivative_property(cli, a.workload, a.seed, d, release_args())
        for line in bad:
            print("derivative property:", line)
        self.check(not bad, f"derivative property holds on the companion data ({len(bad)} violations)")
        # No sigmoid argument of the companion data reaches 709, so here the
        # emitted SQL must match the engine whatever the rendering does.
        db = checks.SqliteDeployment(os.path.join(d, "companion"), list(tables))
        for part, stmt in statements.items():
            got = db.value(stmt)
            self.check(got is not None and checks.close(got, companion[part]),
                       f"companion data: sqlite {part} {got!r} ~ engine {companion[part]!r}")
        db.close()
        d_ks, bound = checks.noise_ks(mechanism.sample, inputs.GAMMA, a.seed)
        self.check(d_ks <= bound, f"noise KS distance {d_ks:.5f} <= {bound:.5f} over {checks.KS_DRAWS} draws")

        if self.tracer is not None:
            return self.per_layer(sampler_build)
        noise_rel = ref["sensitivity"] / (rel["b"] * abs(ref["initial"]))
        return self.end_to_end({
            "emitted_sql_bytes": (float(sum(len(s.encode()) for s in emitted.values())), "bytes"),
            "noise_rel": (noise_rel, "ratio"),
        })

    def on_op(self, out) -> None:
        rc, text = out
        if rc != 0:
            self.failed += 1
        elif text != self.warm:
            self.wrong_outputs += 1


# ---------------------------------------------------------------------------
# analyze_mix
# ---------------------------------------------------------------------------


class MixRun(Run):
    def main(self) -> dict:
        from dersens import analyzer as an
        from dersens import engine as eng
        from dersens import mechanism
        from dersens import sqlfront as sf

        a = self.args
        schema_text = inputs.schema_text(list(inputs.TABLE_TEXT))
        if a.trace:
            import tracing

            self.tracer = tracing.Tracer()
        warm = mix_pass(sf, an, schema_text)
        self.first = [(m, s) for _, m, s in warm]
        self.wrong_outputs = 0
        self.bytes: list[int] = []

        self.loop(lambda: mix_pass(sf, an, schema_text))
        self.read_rss()

        self.check(self.wrong_outputs == 0,
                   f"every pass emitted the warm-up's SQL ({self.wrong_outputs} differ)")
        db = checks.SqliteDeployment(os.path.join(a.dir, "companion"), list(inputs.TABLE_TEXT))
        dbc = sf.load_database(os.path.join(a.dir, "companion"), sf.parse_schema(schema_text))
        ratios = []
        for (name, alpha, flags, _), (plan, modified, sensitivity) in zip(inputs.MIX, warm):
            feasible = plan.beta_achieved <= inputs.BETA * (1.0 + 1e-9)
            self.check(plan.feasible == feasible,
                       f"{name}: feasible={plan.feasible} matches beta_achieved={plan.beta_achieved:.6g}")
            for part, sql in (("modified", modified), ("sensitivity", sensitivity)):
                err = db.prepares(checks.sqlite_statement(sql, sf))
                self.check(err is None, f"{name}: sqlite prepares the {part} statement ({err or 'ok'})")
            initial = eng.run_initial(plan.ctx, dbc)
            sens, _ = eng.run_sensitivity(plan, dbc)
            b = mechanism.derive_b(inputs.MIX_EPSILON, max(inputs.BETA, plan.beta_achieved), inputs.GAMMA)
            ratio = sens / (b * abs(initial)) if initial else math.inf
            print(f"{name}: beta_achieved={plan.beta_achieved:.6g} sql_bytes={len(modified) + len(sensitivity)}"
                  f" initial={initial:.10g} sensitivity={sens:.6g} b={b:.6g} noise_rel={ratio:.6g}")
            self.check(math.isfinite(ratio) and ratio > 0.0, f"{name}: noise_rel is positive and finite")
            ratios.append(ratio)
        db.close()

        if self.tracer is not None:
            return self.per_layer(None)
        finite = [r for r in ratios if math.isfinite(r) and r > 0.0]
        noise_rel = math.exp(math.fsum(math.log(r) for r in finite) / max(1, len(finite)))
        return self.end_to_end({
            "emitted_sql_bytes": (statistics.median(self.bytes), "bytes"),
            "noise_rel": (noise_rel, "ratio"),
        })

    def on_op(self, out) -> None:
        self.bytes.append(sum(len(m.encode()) + len(s.encode()) for _, m, s in out))
        if [(m, s) for _, m, s in out] != self.first:
            self.wrong_outputs += 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", required=True, help="input directory written by run.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, help="file to write the result JSON to")
    args = ap.parse_args()
    run = (MixRun if args.workload == "analyze_mix" else ReleaseRun)(args)
    metrics = run.main()
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics,
              "op_seconds": {"untraced": run.untraced, "traced": run.traced}}
    if run.tracer is not None:
        with open(args.result + ".spans.json", "w") as fh:
            json.dump(run.tracer.spans, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
