"""`analyze`, `run` and `privatize` load no OpenSSL: the noise's BLAKE2b is
CPython's own `_blake2`, not `hashlib`'s, and an unseeded release reads its
seed from `os.urandom`, not through `secrets`.  `hashlib` is loaded only
with OpenSSL's `_hashlib`.  numpy 1.x loads numpy.random, and with it
`secrets`, on `import numpy`, so for `run` and `privatize` the check holds
only where numpy.random stays unloaded."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from dersens.cli import main

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
_OPENSSL = ("_hashlib", "hashlib", "secrets")

# Reads a list of argv lists from stdin and runs `dersens <argv>` for each in
# order; prints, per call, its exit code and output, the modules of
# _OPENSSL then loaded, and whether numpy.random is loaded.
_CHILD = """\
import contextlib, io, json, sys
import dersens.cli

calls = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = dersens.cli.main(argv)
    calls.append({"rc": rc, "stdout": out.getvalue(),
                  "loaded": [m for m in %r if m in sys.modules],
                  "numpy_random": "numpy.random" in sys.modules})
print(json.dumps(calls))
""" % (_OPENSSL,)


@pytest.fixture(scope="module")
def bench_args(tmp_path_factory):
    data = str(tmp_path_factory.mktemp("bench"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bench", "--rows", "200", "--json", "--data", data]) == 0
    return ["--query", os.path.join(data, "b1_1.sql"),
            "--schema", os.path.join(data, "schema.txt"), "--data", data, "--json"]


def _release(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def test_the_cli_loads_no_openssl(bench_args, monkeypatch):
    monkeypatch.delenv("DERSENS_SEED", raising=False)
    analyze = ["analyze", *bench_args[:4]]
    seeded = ["privatize", *bench_args, "--seed", "7"]
    calls = [analyze, ["run", *bench_args], seeded, ["privatize", *bench_args]]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(calls), env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert [c["rc"] for c in got] == [0, 0, 0, 0]
    assert got[0]["loaded"] == []
    last = got[-1]
    if not last["numpy_random"]:
        assert last["loaded"] == []
    assert json.loads(got[2]["stdout"])["noised"] == _release(seeded)["noised"]
    unseeded = json.loads(got[3]["stdout"])
    assert unseeded["private"] is True and "seed" not in unseeded


def test_blake2b_is_the_one_hashlib_offers():
    import _blake2
    import hashlib

    assert hashlib.blake2b is _blake2.blake2b


def test_an_unseeded_release_draws_its_seed_from_os_urandom(bench_args, monkeypatch):
    monkeypatch.delenv("DERSENS_SEED", raising=False)
    entropy = bytes(range(101, 117))
    asked = []

    def urandom(n):
        asked.append(n)
        return entropy[:n]

    monkeypatch.setattr(os, "urandom", urandom)
    unseeded = _release(["privatize", *bench_args])
    assert asked == [16]
    seeded = _release(["privatize", *bench_args, "--seed", str(int.from_bytes(entropy, "big"))])
    assert unseeded["noised"] == seeded["noised"]
    assert unseeded["private"] is True and "seed" not in unseeded
