"""What a process loads: the lazy package namespace, and the modules each
``akblocks`` command imports.  Each case runs in a fresh interpreter
started with ``-S``, so nothing that ``site`` imports hides an import."""

import json
import os
import subprocess
import sys

import pytest

import akblocks

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# runs cli.main on argv (JSON) and prints the exit code, the akblocks
# submodules loaded and whether dataclasses or inspect were
PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from akblocks.cli import main
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("akblocks.")),
                  sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


def fresh(code: str, *args) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ABACUS_BUDGET", None)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


PAIR = {"e": 3, "multicharge": [0, 2, 1], "multipartition": [[2, 1], [3, 2], [4, 3, 1]]}
JOB = json.dumps(PAIR)
MV_JOB = json.dumps(dict(PAIR, target_multicharge=[0, 1, 2], target_multipartition=[[], [4, 3, 1], [3, 2]]))
WEIGHT_ONE = json.dumps({"e": 2, "multicharge": [0], "multipartition": [[2]]})
BASE = {"abacus", "partitions", "cli"}
MOVES = BASE | {"moves"}
BLOCKS = BASE | {"blocks"}
CLASSIFY = MOVES | {"blocks", "classify"}
# argv -> the akblocks submodules loaded once main returns
LOADS = {
    "dual": (["dual", JOB], BASE),
    "uglov": (["uglov", JOB], BASE),
    "render": (["render", JOB], BASE),
    "parse-error": (["classify", "{not json"], BASE),
    "brauer-line": (["brauer-line", "4", "3", "3"], BASE | {"brauer"}),
    "core": (["core", JOB], MOVES),
    "mv": (["mv", MV_JOB], MOVES),
    "rotate": (["rotate", "1", JOB], MOVES),
    "block-id": (["block-id", JOB], BLOCKS),
    "defect": (["defect", JOB], BLOCKS),
    "sigma": (["sigma", "1", JOB], BLOCKS),
    "classify": (["classify", JOB], CLASSIFY),
    "schur-classify": (["schur-classify", JOB], CLASSIFY),
    "witness": (["witness", JOB], CLASSIFY),
    "enumerate": (["enumerate", "--n", "2", json.dumps({"e": 2, "multicharge": [0, 0]})], MOVES | {"blocks"}),
    "derived-class": (["derived-class", WEIGHT_ONE], CLASSIFY),
}


def test_every_command_has_a_case():
    from akblocks.cli import COMMANDS, SCHEMAS

    assert set(LOADS) - {"parse-error"} == set(COMMANDS)
    # besides one schema per command, SCHEMAS holds the job's ("pair") and
    # the shared definitions
    assert set(SCHEMAS) - {"pair", "definitions"} == set(COMMANDS)


@pytest.mark.parametrize("case", list(LOADS))
def test_command_loads_only_what_it_runs(case):
    argv, loads = LOADS[case]
    code, modules, heavy = json.loads(fresh(PROBE, json.dumps(argv)))
    assert code == (2 if case == "parse-error" else 0)
    assert modules == sorted(f"akblocks.{m}" for m in loads)
    assert heavy == []


def test_import_akblocks_runs_no_submodule():
    out = fresh("import sys, akblocks; print(sorted(m for m in sys.modules if m.startswith('akblocks')))")
    assert out.split() == ["['akblocks']"]


def test_namespace_resolves_every_name():
    """The 54 public names resolve to the objects their submodules define."""
    assert len(akblocks.__all__) == len(set(akblocks.__all__)) == 54
    for name in akblocks.__all__:
        value = getattr(akblocks, name)
        module = sys.modules[f"akblocks.{akblocks._SUBMODULE[name]}"]
        assert value is getattr(module, name)
    assert set(akblocks.__all__) <= set(dir(akblocks))
    assert akblocks.BudgetExceeded is akblocks.blocks.BudgetExceeded is akblocks.partitions.BudgetExceeded


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from akblocks import *", namespace)
    assert set(akblocks.__all__) <= set(namespace)
    assert namespace["core"] is akblocks.moves.core
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        akblocks.no_such_name
    with pytest.raises(ImportError):
        exec("from akblocks import no_such_name", {})
