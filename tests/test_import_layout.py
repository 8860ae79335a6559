"""What ``import repro`` loads, checked in fresh interpreters.

``import repro`` loads exactly the modules that a default ``verify()``, a
sequential ``verify_portfolio()`` and a store-backed ``verify()`` against
a baseline execute; everything else (the parallel runtime, the
certificate checker, the standalone reduction automata, the concrete
interpreter, the semantic simplifier) loads on first use.  Each check
runs in a new ``python -S`` process, since this test session has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: modules no default run executes; none may load with ``import repro``
OFF_PATH = (
    "multiprocessing",
    "socket",
    "tracemalloc",
    "repro.verifier.runtime",
    "repro.verifier.pool",
    "repro.verifier.certify",
    "repro.core.reduction",
    "repro.core.sleepset",
    "repro.core.mazurkiewicz",
    "repro.core.membrane",
    "repro.lang.interp",
    "repro.logic.simplify",
)

PACKAGES = (
    "repro",
    "repro.verifier",
    "repro.core",
    "repro.lang",
    "repro.logic",
    "repro.store",
)


def _run(script: str, *args: str) -> dict:
    """Run *script* in a fresh ``python -S`` and return its JSON line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_LOADED = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_loads_no_off_path_module(module):
    loaded = set(_run(_LOADED, module))
    assert module in loaded
    assert sorted(loaded.intersection(OFF_PATH)) == []


_CALLS = """
import json, sys, tempfile
import repro
from repro.store import program_digest

before = set(sys.modules)
source = '''
var x: int = 0;
var z: int = 0;
thread A { x := x + 1; assert x >= 1; }
thread B { z := z + 1; }
post: x == 1;
'''
program = repro.parse(source, name="two")
verdicts = [repro.verify(program).verdict.value]
verdicts.append(repro.verify_portfolio(program).verdict.value)
with tempfile.TemporaryDirectory() as store:
    repro.verify(program, config=repro.VerifierConfig(store_path=store))
    edited = repro.parse(source.replace("z + 1", "z + 2"), name="two")
    config = repro.VerifierConfig(
        store_path=store, baseline_digest=program_digest(program).hex()
    )
    verdicts.append(repro.verify(edited, config=config).verdict.value)
added = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
print(json.dumps({"verdicts": verdicts, "added": added}))
"""


def test_default_calls_load_no_repro_module():
    """The three calls' code is all loaded by ``import repro``."""
    out = _run(_CALLS)
    assert out["verdicts"] == ["correct"] * 3
    assert out["added"] == []


_EXPORTS = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
listed = set(dir(package))
missing_dir = [n for n in package.__all__ if n not in listed]
unresolved = []
for name in package.__all__:
    try:
        getattr(package, name)
    except AttributeError:
        unresolved.append(name)
print(json.dumps({"missing_dir": missing_dir, "unresolved": unresolved}))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    out = _run(_EXPORTS, package)
    assert out == {"missing_dir": [], "unresolved": []}


_SHADOW = """
import json, types
import repro.logic.simplify
import repro.verifier.certify
from repro.logic import simplify
from repro.verifier import certify
import repro.verifier
print(json.dumps([
    isinstance(simplify, types.FunctionType),
    isinstance(certify, types.FunctionType),
    repro.verifier.certify is certify,
]))
"""


def test_submodule_import_keeps_same_named_export():
    """Importing ``logic.simplify`` or ``verifier.certify`` directly must
    leave the package attribute naming the function, as the eager
    ``from .simplify import simplify`` did."""
    assert _run(_SHADOW) == [True, True, True]


def test_unknown_attribute_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name
