#!/usr/bin/env python3
"""Benchmark of dersens: analysing queries and releasing private values.

    python3 perfbench/run.py --workload release_scan --seed 1 --seconds 36 --trace 0

Run from the root of a source tree (the package is imported from `src/`).
The workload's inputs are generated from --seed and written under
perfbench/.work/ before the measuring process (measure.py) starts; that
process runs single-threaded and alone.  The set-up time is the median of
several fresh processes that import the package and, for the release
workloads, build the noise sampler's CDF table.  The last line printed is
the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("release_scan", "release_join", "analyze_mix")
SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s

_PROBE = """\
import time
t0 = time.perf_counter()
import dersens
from dersens import mechanism
if {release}:
    mechanism.sample({gamma!r}, 0)  # the first draw builds the CDF table
print(time.perf_counter() - t0)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def write_inputs(workload: str, seed: int, work: Path) -> None:
    if workload == "analyze_mix":
        tables, masks = inputs.mix_inputs()
        inputs.write_dataset(str(work / "companion"), tables, masks)
        return
    tables, masks, query = inputs.release_inputs(workload, seed)
    inputs.write_dataset(str(work), tables, masks)
    (work / "query.sql").write_text(query)


def setup_seconds(workload: str, env: dict[str, str], deadline: float) -> float:
    code = _PROBE.format(release=workload != "analyze_mix", gamma=inputs.GAMMA)
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=max(1.0, deadline - time.monotonic()))
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dersens").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'dersens'}", file=sys.stderr)
        return 1

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = HERE / ".work" / tag
    results = HERE / ".work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{tag}.json"
    result_file.unlink(missing_ok=True)
    env = child_env()
    try:
        write_inputs(args.workload, args.seed, work)
        setup_s = setup_seconds(args.workload, env, deadline)
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
               "--dir", str(work), "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_file)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not result_file.exists():
        print(f"error: measuring process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_file.read_text())
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    result_file.write_text(json.dumps(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
