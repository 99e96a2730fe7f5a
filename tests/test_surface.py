"""Every function and method in src/weightcat is called on a user path.

A user path is what a user of the package runs: the six demos, one CLI run per
subcommand, ext solver and lab lemma, one CLI shape error, one `--config` run,
and the benchmark's library jobs (every smoke job of `perfbench/jobs.py` that
calls the package directly rather than through the CLI).  The guard runs them
in this process under `sys.setprofile` and fails on any function or method of
the package whose code object none of them entered, so a definition only the
tests reach is found even when another class has a method of the same name.
Dunders are exempt; `property` and `cached_property` getters count through
their function.
"""
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import runpy
import sys
import types
from functools import cached_property, partial
from pathlib import Path

from weightcat.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODULES = [importlib.import_module("weightcat" if p.stem == "__init__" else f"weightcat.{p.stem}")
           for p in sorted((ROOT / "src" / "weightcat").glob("*.py"))]

# (argv, exit code)
CLI_RUNS = [
    ("classify A3 --theta 1,3", 0),
    ("verify --module M --a -1,-1,1/4 --B 2", 0),
    ("verify --module N --a 1/2,1", 2),  # a parameter vector of the wrong shape
    ("ext --module N --a 1/2,1/3", 0),
    ("ext --module N --a -1,1/2,1/3,0 --B 2", 0),
    ("ext --module M --a -1,-1,1/4 --B 2", 0),
    ("lab lemA12 --a 1/2,1/3", 0),
    ("lab A1N --a -1,1/2,1/3,0", 0),
    ("lab AkAn --a -1,1/2,1/3,1/5,0", 0),
    ("lab AC1 --a 1/3,-11/6", 0),
    ("lab CC --a -1,1/4,1/5", 0),
    ("lab appendix-a3 --a 1/2,1/3 --c 0", 0),
]


def _definitions(module):
    """(name, code object) of every function and method the module defines, at
    any class depth, dunders left out; a name is the module's last part and the
    definition's qualified name."""
    prefix = module.__name__.rpartition(".")[2]

    def members(owner, qual):
        for name, obj in vars(owner).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, cached_property):
                obj = obj.func
            # the qualified name skips what a namespace imports or aliases
            if getattr(obj, "__qualname__", None) != qual + name or obj.__module__ != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{prefix}.{obj.__qualname__}", obj.__code__
            elif inspect.isclass(obj):
                yield from members(obj, f"{obj.__qualname__}.")

    return list(members(module, ""))


def _entered(runs):
    """The code objects of every Python call made while the runs ran."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(previous)
    return seen


def _uncalled(modules, runs):
    entered = _entered(runs)
    return sorted(name for module in modules for name, code in _definitions(module)
                  if code not in entered)


def _demo(path):
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")


def _cli(argv, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(argv)
    assert got == code, (argv, got, err.getvalue())


def _library_jobs():
    """Every smoke job of every benchmark workload whose kind is a library job,
    run over a namespace of the package modules."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    # dataclasses read the module of the class they decorate from sys.modules
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    w = types.SimpleNamespace(**{module.__name__.rpartition(".")[2]: module for module in MODULES})
    for workload in jobs.WORKLOADS:
        for job in jobs.make_plan(w, workload, 1, smoke=True):
            if job.kind in jobs.LIBRARY_JOBS:
                jobs.execute(w, job)


def test_every_definition_is_called_on_a_user_path(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"B": 2, "format": "text"}))
    runs = [partial(_demo, path) for path in sorted((ROOT / "demos").glob("*.py"))]
    runs += [partial(_cli, argv.split(), code) for argv, code in CLI_RUNS]
    runs.append(partial(_cli, ["--config", str(config), "classify", "C3", "--theta", "2"], 0))
    runs.append(_library_jobs)
    uncalled = _uncalled(MODULES, runs)
    assert not uncalled, f"no user path calls: {', '.join(uncalled)}"


def test_an_uncalled_definition_is_found():
    planted = types.ModuleType("planted")
    exec(compile("from functools import cached_property\n"
                 "from fractions import Fraction\n"
                 "class Box:\n"
                 "    def __init__(self):\n        self.n = self.fill()\n"
                 "    def fill(self):\n        return 0\n"
                 "    def spare(self):\n        pass\n"
                 "    @property\n    def size(self):\n        return self.n\n"
                 "    @cached_property\n    def total(self):\n        return 1\n"
                 "    @staticmethod\n    def make():\n        return Box()\n"
                 "    class Inner:\n        def deep(self):\n            pass\n"
                 "def helper():\n    return Box.make().size\n"
                 "def orphan():\n    pass\n"
                 "alias = helper\n",
                 "planted.py", "exec"), vars(planted))
    assert _uncalled([planted], [planted.helper]) == [
        "planted.Box.Inner.deep", "planted.Box.spare", "planted.Box.total", "planted.orphan"]
