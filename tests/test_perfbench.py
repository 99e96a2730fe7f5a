"""The benchmark's tracer reads the package from outside, by name.

perfbench/tracing.py takes len(), [0] and tuple() of each row list passed
to nullspace/solve/rref/rank, so a linalg call it cannot read fails the
traced smoke run of the workload that makes it.  The functions it counts are
named by strings, so a name that resolves to no function in weightcat is a
metric that reads 0; these tests only read perfbench/.
"""
import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# names perfbench still counts that no longer exist: the vector helpers were
# deleted before the benchmark was re-pointed, and the kernel methods went when
# the quotient came to be read through its defining functionals
KNOWN_MISSING = {"inducemod.vec_add", "inducemod.vec_scale", "inducemod.vec_combine",
                 "inducemod.TruncatedVerma.kernel_data", "inducemod.TruncatedVerma.weight_space"}


def _traced_names():
    """tracing.py's SPAN_METHODS, DISTINCT and HOT_FUNCTIONS, and the strings that
    run.py's per_layer passes to tr.count, tr.self_time and tr.distinct_total."""
    names = set()
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in (
                "SPAN_METHODS", "DISTINCT", "HOT_FUNCTIONS"):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    per_layer = next(node for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body
                     if isinstance(node, ast.FunctionDef) and node.name == "per_layer")
    for node in ast.walk(per_layer):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("count", "self_time")):
            names.add(node.args[0].value)
        elif isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "distinct_total":
            names.add(node.slice.value)
    return names


def _unresolved(names):
    """The names of the form layer.function or layer.Class.method that name no
    function in weightcat."""
    out = set()
    for name in names:
        layer, *path = name.split(".")
        try:
            obj = importlib.import_module(f"weightcat.{layer}")
        except ImportError:
            out.add(name)
            continue
        for part in path:
            obj = getattr(obj, part, None)
        if not inspect.isfunction(obj):
            out.add(name)
    return out


def test_traced_names_resolve():
    names = _traced_names()
    assert {"inducemod.TruncatedVerma.project", "linalg.solve", "weylmod.weyl_act",
            "rootsys.Realization.structure_constant"} <= names
    assert _unresolved(names) <= KNOWN_MISSING, sorted(_unresolved(names) - KNOWN_MISSING)


def test_a_made_up_traced_name_is_flagged():
    made_up = {"inducemod.TruncatedVerma.no_such_method", "inducemod.no_such_function",
               "no_such_layer.f", "inducemod.Lookup"}
    assert _unresolved(made_up | {"linalg.solve", "degonemod.DegreeOneModule.act_root"}) == made_up


@pytest.mark.parametrize("workload", ["certify", "ext", "lab"])
def test_traced_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
