"""Batch command-line surface.

Subcommands: classify, verify, ext, lab.  Output is JSON (sorted keys,
schema tag "weightcat/1") or plain text.  Exit codes: 0 all checks pass,
1 mathematical mismatch, 2 configuration error, 3 window or truncation
depth too small to certify.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
from argparse import HelpFormatter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .categorio import check_membership, classify
from .degonemod import build_module
from .extcoh import coboundary_quotient_dim, ext_solve
from .inducemod import DepthOverflowError
from .paperlab import LEMMAS, run_lemma
from .rootsys import build_root_system
from .weylmod import CertificationError, format_rational, parse_rational

SCHEMA = "weightcat/1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_UNCERTIFIED = 3


def _emit(report: Dict, fmt: str) -> None:
    report = dict(report, schema=SCHEMA)
    lines = ([json.dumps(report, sort_keys=True)] if fmt == "json"
             else [f"{key}: {report[key]}" for key in sorted(report)])
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # the reader left: the rest, and the flush at exit, go to devnull (Python `signal` docs)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _parse_theta(s: Optional[str]) -> frozenset:
    if not s:
        return frozenset()
    return frozenset(int(x) for x in s.split(",") if x.strip())


def _parse_params(s: str) -> List[Fraction]:
    return [parse_rational(x) for x in s.split(",") if x.strip()]


def cmd_classify(args) -> int:
    system = build_root_system(args.type)
    theta = _parse_theta(args.theta)
    verdict = classify(system, theta)
    report = verdict.to_json()
    report["type"] = args.type
    report["theta"] = sorted(theta)
    _emit(report, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    module = build_module(args.module, _parse_params(args.a))
    radius = args.B
    if radius < 1:
        raise CertificationError("window radius must be at least 1 to see a boundary row")
    theta = module.theta_a()
    suites = {"bracket_fidelity": next(module.bracket_defects(radius), None) is None}
    hw = set(module.enumerate_hw(theta, radius))
    suites["hw_enumeration"] = hw == set(module.predicted_hw(radius))
    suites["degree_one"] = module.degree_on_window(radius) == 1
    rep = check_membership(module, theta, radius=radius)
    suites["membership"] = rep.passed

    report = {"module": args.module, "a": [format_rational(x) for x in module.params.a],
              "B": radius, "suites": suites, "all_pass": all(suites.values())}
    _emit(report, args.format)
    return EXIT_OK if all(suites.values()) else EXIT_MISMATCH


def cmd_ext(args) -> int:
    params_a = _parse_params(args.a)
    params_b = _parse_params(args.b) if args.b else params_a
    # a self pair is one module: one root system, realization, window and store
    module = build_module(args.module, params_a)
    other = module if params_b == params_a else build_module(args.module, params_b)
    if args.module == "N" and len(params_a) == 2:
        # rank one: report the cocycle space modulo coboundaries
        dim = coboundary_quotient_dim(module, other, args.B)
        report = {"case": "rank-one cuspidal pair", "B": args.B, "dimension": dim}
    else:
        report = dict(ext_solve(module, other, args.B).to_json(), module=args.module)
    _emit(report, args.format)
    return EXIT_OK


def cmd_lab(args) -> int:
    report = run_lemma(args.lemma, _parse_params(args.a), branch=args.c, radius=args.B, depth=args.D)
    _emit(report.to_json(), args.format)
    return EXIT_OK if report.match else EXIT_MISMATCH


def build_parser(defaults: Optional[Dict] = None, command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command parser; `defaults` (keys as the flags) override the built-in defaults.

    One subcommand per run: with `command` a subcommand name, the parser is that
    subcommand's own, prog "weightcat <command>", which reads the words after the
    name and prints the usage, help and errors of the full parser's subparser.
    Any other `command`, None included, builds the full parser of all four, which
    help, usage errors and `--config` need (the file comes before the subcommand,
    and its keys are checked against every subcommand's flags)."""
    # subcommand -> (help, handler, its own arguments), built per call so that the
    # handlers are this module's names at call time (the benchmark tracer rebinds them)
    commands = {
        "classify": ("decide a category from a Cartan type and theta", cmd_classify, [
            ("type", {"help": "Cartan type, e.g. A3"}),
            ("--theta", {"help": "1-based simple-root indices in theta, comma separated"})]),
        "verify": ("run the invariant suites on one module", cmd_verify, [
            ("--module", {"choices": ["N", "M"], "required": True}),
            ("--a", {"required": True, "help": "parameter vector, e.g. -1,1/2,1/3,0"})]),
        "ext": ("solve a self-extension constraint system", cmd_ext, [
            ("--module", {"choices": ["N", "M"], "required": True}), ("--a", {"required": True}),
            ("--b", {"help": "second parameter vector (defaults to --a)"})]),
        "lab": ("rerun a constant-extraction script", cmd_lab, [
            ("lemma", {"help": f"one of {sorted(LEMMAS)}"}), ("--a", {"required": True}),
            ("--c", {"default": "0", "help": "branch of lemA12 and appendix-a3: 0 or -1-A"})]),
    }
    # the width HelpFormatter reads when given none, read once: argparse builds a
    # formatter for every add_argument
    formatter = functools.partial(HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    if command in commands:
        ap = argparse.ArgumentParser(prog=f"weightcat {command}", formatter_class=formatter)
        parsers = {command: ap}
    else:
        ap = argparse.ArgumentParser(prog="weightcat", formatter_class=formatter,
                                     description="exact computations with weight module categories")
        ap.add_argument("--config", help="JSON file with the same keys as the flags")
        sub = ap.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=help_, formatter_class=formatter)
                   for name, (help_, _, _) in commands.items()}
    known = set()
    for name, p in parsers.items():
        _, func, arguments = commands[name]
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--B", type=int, default=3, help="window radius")
        p.add_argument("--D", type=int, default=4, help="truncation depth")
        p.add_argument("--format", choices=["json", "text"], default="json")
        flags = {a.dest: a for a in p._actions if a.option_strings}
        known |= flags.keys()
        p.set_defaults(func=func, **{key: _flag_value(flags[key], key, value)
                                     for key, value in (defaults or {}).items() if key in flags})
    # a key of another subcommand is fine: one config file may serve several
    unknown = set(defaults or {}) - known
    if unknown:
        raise ValueError(f"config key {min(unknown)!r} is not a flag of any subcommand")
    return ap


def _flag_value(action: argparse.Action, key: str, value):
    """A config file value passed through its flag's own converter and choices."""
    if type(value) not in (str, int):
        raise ValueError(f"config key {key!r}: {value!r} is not a string or an integer")
    try:
        value = (action.type or str)(value)
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _glue_value_flags(argv: List[str]) -> List[str]:
    """Join '--a -1,1/2' into '--a=-1,1/2' so leading dashes parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--a", "--b", "--c", "--theta") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _read_config(path: str) -> Dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    return loaded


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _glue_value_flags(list(sys.argv[1:] if argv is None else argv))
    try:
        parser = build_parser(command=argv[0] if argv else None)
        # a subcommand's own parser reads the words after its name, and has no --config
        alone = parser.prog != "weightcat"
        args, extra = parser.parse_known_args(argv[1:] if alone else argv)
        if extra:
            build_parser().parse_args(argv)  # exits, naming them under the full usage line
        if not alone and args.config:
            # flags given on the command line still win over the file
            args = build_parser(_read_config(args.config)).parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificationError as exc:
        print(f"certification impossible: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except DepthOverflowError as exc:
        print(f"truncation depth too small: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED


if __name__ == "__main__":
    sys.exit(main())
