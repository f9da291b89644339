"""The analysis path (parse, lower, align norms, bound, emit SQL) and the
release of a value (`mechanism.privatize`, one draw from a BLAKE2b stream)
import no numpy: only the CSV loader, the engine, `dersens.bench` and the
sampler's batches of more than one draw load it.  The package itself
re-exports nothing, so importing it loads none of its modules, and a draw
loads only `dersens.mechanism`.  Each check runs in a fresh interpreter,
since this one has numpy and the package's modules loaded by other tests."""

import json
import os
import subprocess
import sys

from conftest import B1_1_SQL, B16_SQL, GOLDEN_DIR, LINEITEM_SCHEMA, TPCH_MINI_SCHEMA
from dersens.cli import main
from dersens.mechanism import NoiseParams, privatize

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# Reads {"argv", "schema", "sql"} from stdin; prints the exit code and output
# of `dersens <argv>`, the SQL that build_plan/emit_sql give for `sql`, the
# noised value of a seeded release, and whether numpy then fails to import.
_CHILD = """\
import contextlib, io, json, sys
import dersens
import dersens.cli
from dersens import analyzer as an
from dersens import mechanism
from dersens import sqlfront as sf

job = json.load(sys.stdin)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = dersens.cli.main(job["argv"])
ctx = sf.validate(sf.parse_query(job["sql"]), sf.parse_schema(job["schema"]))
modified, sensitivity = an.emit_sql(an.build_plan(ctx, an.PlanParams(beta=0.1, alpha=0.1)))
noised = mechanism.privatize(100.0, 2.0, mechanism.NoiseParams(1.0, 0.1), seed=7)
try:
    import numpy
    blocked = False
except ImportError:
    blocked = True
print(json.dumps({"rc": rc, "stdout": out.getvalue(), "modified": modified,
                  "sensitivity": sensitivity, "noised": noised, "numpy_blocked": blocked}))
"""


def _python(code: str, pythonpath: list[str], stdin: str = "") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*pythonpath, SRC])
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_analysis_runs_with_numpy_blocked(tmp_path, capsys):
    shim = tmp_path / "shim"
    (shim / "numpy").mkdir(parents=True)
    (shim / "numpy" / "__init__.py").write_text(
        'raise ImportError("numpy is blocked: the analysis path must not import it")\n')
    schema, query = tmp_path / "schema.txt", tmp_path / "q.sql"
    schema.write_text(LINEITEM_SCHEMA)
    query.write_text(B1_1_SQL)
    argv = ["analyze", "--query", str(query), "--schema", str(schema)]
    job = {"argv": argv, "schema": TPCH_MINI_SCHEMA, "sql": B16_SQL}
    got = json.loads(_python(_CHILD, [str(shim)], json.dumps(job)))
    assert got["numpy_blocked"]
    assert main(argv) == 0
    assert got["rc"] == 0
    assert got["stdout"] == capsys.readouterr().out
    assert got["noised"] == privatize(100.0, 2.0, NoiseParams(1.0, 0.1), seed=7)
    for part in ("modified", "sensitivity"):
        with open(os.path.join(GOLDEN_DIR, f"b16_{part}.sql"), encoding="utf-8") as fh:
            assert got[part] + "\n" == fh.read()


def test_importing_the_package_loads_no_numpy():
    out = _python("import json, sys\nimport dersens, dersens.cli\nprint(json.dumps(list(sys.modules)))", [])
    modules = json.loads(out)
    assert "dersens.cli" in modules
    assert "numpy" not in modules


_DRAW = """\
import json, sys
import dersens
package = sorted(sys.modules)
from dersens import mechanism
mechanism.sample(4.0, 0)
print(json.dumps({"package": package, "draw": sorted(sys.modules)}))
"""


def test_the_package_loads_no_module_and_a_draw_only_the_mechanism():
    got = json.loads(_python(_DRAW, []))
    assert [m for m in got["package"] if m.startswith("dersens.")] == []
    loaded = set(got["draw"])
    assert "dersens.mechanism" in loaded
    unused = {"dersens.analyzer", "dersens.sqlfront", "dersens.exprs", "dersens.norms",
              "dersens.cli", "numpy"}
    assert unused & loaded == set()
