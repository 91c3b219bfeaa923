"""Importing the package before numpy loads OpenBLAS with one thread.

Each case runs in a fresh interpreter, since the rule acts only when numpy is
loaded.  Every child starts from an environment without any of the variables
OpenBLAS sizes its pool from, and asks for at most two threads.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# argv[1] names the module imported first; prints the environment check, the
# package's public names and the process's thread count (None where
# /proc/self/task is absent)
LOAD = """
import json, os, sys
if sys.argv[1] == "numpy":
    import numpy
before = dict(os.environ)
import qwchannel
task = "/proc/self/task"
print(json.dumps({"same": dict(os.environ) == before,
                  "value": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "names": sorted(n for n in vars(qwchannel) if not n.startswith("_")),
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else None}))
"""

# the kraus dump and the exact td_series values, computed under either pool
OUTPUTS = """
import sys
if sys.argv[1] == "numpy":
    import numpy
import qwchannel, qwchannel.cli
assert qwchannel.cli.main(["kraus", "--theta", "0.4418", "--t", "2000"]) == 0
print(repr(qwchannel.td_series(0.5, 300).values))
"""


def _openblas() -> bool:
    """numpy's BLAS is OpenBLAS, as far as its build configuration tells."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _child(script: str, first: str, **env) -> str:
    environ = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    environ.update(env)
    done = subprocess.run([sys.executable, "-c", script, first], env=environ,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _load(first: str, **env) -> dict:
    return json.loads(_child(LOAD, first, **env))


COUNTED = _openblas() and os.path.isdir("/proc/self/task")


@pytest.fixture(scope="module")
def by_first():
    """The load report of a child importing the package first, and numpy first."""
    return {first: _load(first) for first in ("qwchannel", "numpy")}


def test_the_package_loads_openblas_with_one_thread_and_restores_the_environment(by_first):
    loaded = by_first["qwchannel"]
    assert loaded["same"] and loaded["value"] is None
    if COUNTED:
        assert loaded["threads"] == 1


@pytest.mark.parametrize("variable", POOL_VARIABLES)
def test_a_user_set_thread_count_is_kept(variable):
    loaded = _load("qwchannel", **{variable: "2"})
    assert loaded["same"]
    if COUNTED and (os.cpu_count() or 1) >= 2:
        assert loaded["threads"] == 2


def test_numpy_imported_first_keeps_its_pool_and_the_environment(by_first):
    loaded = by_first["numpy"]
    assert loaded["same"] and loaded["value"] is None


def test_the_package_names_do_not_depend_on_the_import_order(by_first):
    names = by_first["qwchannel"]["names"]
    assert names == by_first["numpy"]["names"]
    assert not {"numpy", "os", "sys"} & set(names)


@pytest.mark.skipif(not COUNTED or (os.cpu_count() or 1) < 2,
                    reason="needs OpenBLAS, /proc/self/task and two CPUs to vary the pool")
def test_the_pool_size_moves_no_bit_of_the_outputs(by_first):
    assert by_first["numpy"]["threads"] > 1
    digests = {first: hashlib.sha256(_child(OUTPUTS, first).encode()).hexdigest()
               for first in ("qwchannel", "numpy")}
    assert digests["qwchannel"] == digests["numpy"]
