#!/usr/bin/env python3
"""Regenerate the inputs and the reference figures of README.md.

    python3 perfbench/reference.py

Runs every workload once untraced and once traced through run.py, with seed
0 and the run length of BENCHMARK.json, then prints Markdown tables: the
end-to-end figures, the per-layer figures with the tracing overhead, and
beta_achieved and SQL bytes per analyze_mix query.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import inputs
import measure
import run

HERE = Path(__file__).resolve().parent
SEED = 0


def bench(workload: str, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def table(results: dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print("| metric | unit | " + " | ".join(results) + " |")
    print("|---|---|" + "---|" * len(results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        cells = []
        for r in results.values():
            v = r["metrics"][name]["value"]
            cells.append("missing" if v is None else f"{v:.6g}")
        print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    print("| attempted / failed | | " + " | ".join(f"{r['attempted']} / {r['failed']}" for r in results.values()) + " |")
    print()


def mix_queries() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from dersens import analyzer as an
    from dersens import sqlfront as sf

    plans = measure.mix_pass(sf, an, inputs.schema_text(list(inputs.TABLE_TEXT)))
    print("| query | alpha | flags | beta_achieved | feasible at beta 0.1 | SQL bytes |")
    print("|---|---|---|---|---|---|")
    for (name, alpha, flags, _), (plan, modified, sensitivity) in zip(inputs.MIX, plans):
        print(f"| {name} | {alpha:g} | {', '.join(flags) or '-'} | {plan.beta_achieved:.6g} "
              f"| {plan.feasible} | {len(modified.encode()) + len(sensitivity.encode())} |")
    print()


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for trace in (0, 1):
        print(f"### {'Per-layer, traced' if trace else 'End-to-end, untraced'} (seed {SEED}, {seconds} s)\n")
        table({w: bench(w, seconds, trace) for w in run.WORKLOADS})
    print("### analyze_mix queries\n")
    mix_queries()
    return 0


if __name__ == "__main__":
    sys.exit(main())
