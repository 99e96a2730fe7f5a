import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from weightcat.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, EXIT_UNCERTIFIED, _parse_params, main
from weightcat.degonemod import build_module


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_classify_nontrivial(capsys):
    code, out = run(capsys, "classify", "A4", "--theta", "1,4")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["schema"] == "weightcat/1"
    assert report["kind"] == "NONTRIVIAL"
    assert report["family"] == {"kind": "N", "minus_ones": 1, "free": 3, "zeros": 1}


def test_classify_excluded_and_trivial(capsys):
    code, out = run(capsys, "classify", "D5", "--theta", "2,3,4,5")
    assert code == EXIT_OK and json.loads(out)["kind"] == "EXCLUDED"
    code, out = run(capsys, "classify", "G2", "--theta", "2")
    assert json.loads(out)["kind"] == "TRIVIAL"


def test_classify_bad_type_is_config_error(capsys):
    assert main(["classify", "Q7", "--theta", "1"]) == EXIT_CONFIG
    assert main(["classify", "D3", "--theta", "3"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["classify", "A99999999999"],
    ["classify", "B101", "--theta", "1"],
    ["classify", "C101"],
    ["classify", "D101"],
    ["verify", "--module", "N", "--a", ",".join(["1/2"] * 102)],
    ["ext", "--module", "M", "--a", ",".join(["-1"] * 100 + ["1/2"])],
    ["lab", "CC", "--a", ",".join(["-1"] * 99 + ["1/4", "1/5"])],
], ids=["classify-A99999999999", "classify-B101", "classify-C101", "classify-D101",
        "verify-A101", "ext-C101", "lab-C101"])
def test_a_rank_past_the_bound_is_refused_before_its_cartan_matrix(argv, capsys, monkeypatch):
    # classify A99999999999 used to be killed allocating its Cartan matrix; a
    # classical rank above 100 is a configuration error raised before the root
    # system is built (the stub makes an unguarded build fail, not run)
    from weightcat import rootsys

    def unbuilt(ct):
        raise AssertionError(f"the Cartan matrix of {ct} was built")

    monkeypatch.setattr(rootsys, "cartan_matrix", unbuilt)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: rank ") and "out of range" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


H101 = ",".join(["1/2"] * 101)  # A100, cuspidal


@pytest.mark.parametrize("argv,code", [
    (["classify", "B100"], EXIT_OK),
    (["classify", "C100"], EXIT_OK),
    (["classify", "D100"], EXIT_OK),
    (["classify", "C100", "--theta", "1"], EXIT_OK),
    (["verify", "--module", "N", "--a", H101], EXIT_CONFIG),
    (["ext", "--module", "N", "--a", H101], EXIT_CONFIG),
], ids=["classify-B100", "classify-C100", "classify-D100", "classify-C100-theta", "verify-A100",
        "ext-A100"])
def test_a_rank_100_run_that_reads_no_root_generates_none(argv, code, capsys, monkeypatch):
    # classify reads the rank and the Cartan matrix alone, and a window too large
    # to enumerate is refused from the vector's length: neither generates a root
    # (about 5 s at rank 100), and the stub makes a generation fail, not run
    from weightcat import rootsys

    def ungenerated(self):
        raise AssertionError(f"the roots of {self.cartan_type} were generated")

    monkeypatch.setattr(rootsys.RootSystem, "_generate_positive", ungenerated)
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == EXIT_CONFIG:
        assert captured.out == ""
        assert captured.err.startswith("configuration error: window ranges span")
    else:
        assert json.loads(captured.out)["type"] == argv[1]


@pytest.mark.parametrize("module,a,b,normal_form", [
    ("M", "-1,-1,1/4", "-1,-1,5/4", True),
    ("N", "-1,1/2,1/3,0", "-1,1/3,1/2,0", True),
    ("N", "1/2,1/3", "1/5,2/5", False),
], ids=["C3", "A3", "A1-rank-one"])
def test_an_ext_self_pair_builds_one_module(module, a, b, normal_form, capsys, monkeypatch):
    # a --b equal to --a, given or not, is the --a module itself: one root system,
    # with the same stdout; a differing --b builds its own.  A full-rank normal
    # form reads the pairs through alpha alone and never builds the bracket table
    from weightcat import degonemod

    systems = []
    build = degonemod.build_root_system
    monkeypatch.setattr(degonemod, "build_root_system", lambda ct: systems.append(build(ct)) or systems[-1])
    argv = ["ext", "--module", module, "--a", a]
    assert main(argv) == EXIT_OK
    alone = capsys.readouterr().out
    assert len(systems) == 1
    if normal_form:
        assert "root_pairs" not in systems[0].realization.__dict__
    assert main(argv + ["--b", a]) == EXIT_OK
    assert capsys.readouterr().out == alone
    assert len(systems) == 2
    assert main(argv + ["--b", b]) == EXIT_OK
    assert len(systems) == 4


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--module", "N", "--a", "-1,1/2,1/3,0", "--B", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_pass"] is True
    assert set(report["suites"]) == {"bracket_fidelity", "hw_enumeration", "degree_one", "membership"}


def test_verify_rejects_bad_partition(capsys):
    assert main(["verify", "--module", "N", "--a", "1,2,0"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["verify", "--module", "M", "--a", "1/2,1/3,0", "--B", "1"],
    ["ext", "--module", "M", "--a", "1/2,1/3,0", "--B", "1"],
    ["verify", "--module", "N", "--a", "1/2,1,1/3", "--B", "1"],
    ["verify", "--module", "N", "--a", "1/2,0", "--B", "1"],
])
def test_partition_error_prints_rationals(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ") and "Fraction(" not in captured.err
    assert "(" + argv[4].replace(",", ", ") + ")" in captured.err


def test_ext_self_pair(capsys):
    code, out = run(capsys, "ext", "--module", "N", "--a", "-1,1/2,1/3,0", "--B", "3")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["dimension"] == 0 and report["status"] == "solved"


def test_ext_type_c(capsys):
    code, out = run(capsys, "ext", "--module", "M", "--a", "-1,-1,1/4", "--B", "3")
    assert json.loads(out)["dimension"] == 0


def test_ext_rank_one_reports_the_line(capsys):
    code, out = run(capsys, "ext", "--module", "N", "--a", "1/2,1/3", "--B", "3")
    assert code == EXIT_OK
    assert json.loads(out)["dimension"] == 1


def test_ext_window_too_small(capsys):
    # at B=0 every identity leaves the one-point window, in rank one too,
    # verify has no boundary row to certify and the windowed lab scripts
    # have no k with -B < k < B
    for argv in (["ext", "--module", "N", "--a", "-1,1/2,1/3,0"],
                 ["ext", "--module", "N", "--a", "1/2,1/3"],
                 ["verify", "--module", "N", "--a", "-1,1/2,1/3,0"],
                 ["lab", "lemA12", "--a", "1/2,1/3"],
                 ["lab", "appendix-a3", "--a", "1/2,1/3"]):
        assert main(argv + ["--B", "0"]) == EXIT_UNCERTIFIED


@pytest.mark.parametrize("b", [[], ["--b", "3/2,-2/3"], ["--b", "1/2,4/3"]])
@pytest.mark.parametrize("radius", ["0", "-1", "-3"])
def test_ext_rank_one_empty_window_is_uncertified(b, radius, capsys):
    # B=0 leaves every identity outside the one-point window and a negative B
    # leaves the window empty: either way nothing was checked, for a pair of
    # disjoint supports (1/2,4/3) too
    code, out = run(capsys, "ext", "--module", "N", "--a", "1/2,1/3", *b, "--B", radius)
    assert code == EXIT_UNCERTIFIED
    assert out == ""


@pytest.mark.parametrize("pair", [
    ["--module", "M", "--a", "-1,1/4", "--b", "-1,5/4"],
    ["--module", "N", "--a", "-1,1/2,1/3,0", "--b", "-1,5/2,7/3,0"],
])
@pytest.mark.parametrize("radius", ["-1", "-3"])
def test_ext_pair_that_is_not_isomorphic_on_an_empty_window_is_uncertified(pair, radius, capsys):
    # a negative B leaves the window empty, and a pair that is not isomorphic is
    # answered without reading it: the window is refused before the answer
    code, out = run(capsys, "ext", *pair, "--B", radius)
    assert code == EXIT_UNCERTIFIED
    assert out == ""


def test_ext_read_left_short_of_full_rank_is_uncertified(monkeypatch, capsys):
    # with every identity row emptied, the read of a rank >= 2 self pair ends
    # at rank 0, which certifies no kernel: exit 3 with nothing on stdout
    from weightcat import extcoh

    identity = extcoh._identity
    monkeypatch.setattr(extcoh, "_identity", lambda *args: identity(*args)[:2] + ({},))
    assert main(["ext", "--module", "M", "--a", "-1,-1,1/4"]) == EXIT_UNCERTIFIED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certification impossible: the identities through alpha reach rank 0 of ")


@pytest.mark.parametrize("argv", [
    ["verify", "--module", "N", "--a", "1/2,1/3"],
    ["verify", "--module", "M", "--a", "-1,-1,1/4"],
    ["ext", "--module", "N", "--a", "1/2,1/3"],
    ["ext", "--module", "N", "--a", "-1,1/2,1/3,0"],
    ["ext", "--module", "N", "--a", "-1,1/2,1/3,0", "--b", "-1,1/3,1/2,0"],
    ["ext", "--module", "M", "--a", "-1,1/4"],
    ["lab", "lemA12", "--a", "1/2,1/3"],
    ["lab", "CC", "--a", "-1,1/4,1/5"],
], ids=["verify-A1", "verify-C3", "ext-rank-one", "ext-A3", "ext-A3-support-disjoint", "ext-C2",
        "lab-windowed", "lab-unwindowed"])
def test_oversized_window_is_refused_before_any_work(argv, capsys):
    # a window whose ranges span more than WINDOW_LIMIT points is a
    # configuration error, raised before the window is enumerated
    assert main(argv + ["--B", str(10**12)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: window ranges span")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("lemma,a", [
    ("lemA12", "1/2,1/3"), ("A1N", "-1,1/2,1/3,0"), ("AkAn", "-1,1/2,1/3,1/5,0"),
    ("AC1", "1/4,-3/4"), ("CC", "-1,1/4,1/5"), ("appendix-a3", "1/2,1/3"),
])
def test_lab_at_a_huge_depth(capsys, lemma, a):
    # the truncation depth bounds the words a lemma builds and sizes nothing
    assert main(["lab", lemma, "--a", a, "--D", str(10**9)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_lab_depth_too_small(capsys):
    # appendix-a3 builds lowering words of depth 2, which overflow D=1
    assert main(["lab", "appendix-a3", "--a", "1/2,1/3", "--D", "1"]) == EXIT_UNCERTIFIED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("truncation depth too small")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_lab_commands(capsys):
    code, out = run(capsys, "lab", "lemA12", "--a", "1/2,1/3")
    assert code == EXIT_OK and json.loads(out)["match"] is True
    code, out = run(capsys, "lab", "appendix-a3", "--a", "1/2,1/3", "--c", "0")
    report = json.loads(out)
    assert report["computed"]["d"] == "-17/6" and report["match"] is True
    code, out = run(capsys, "lab", "AC1", "--a", "1/4,-3/4")
    assert code == EXIT_OK and json.loads(out)["match"] is True
    code, out = run(capsys, "lab", "CC", "--a", "-1,1/4,1/5")
    assert code == EXIT_OK
    code, out = run(capsys, "lab", "lemA12", "--a", "1/2,1/3", "--c", "-1-A")
    assert code == EXIT_OK and json.loads(out)["params"]["branch"] == "-1-A"


def test_lab_rejects_bad_parameters(capsys):
    assert main(["lab", "AC1", "--a", "1/4,1/4"]) == EXIT_CONFIG


def test_lab_mismatch_exit_code(capsys, monkeypatch):
    from weightcat import cli as climod
    from weightcat.paperlab import LemmaReport

    def fake(*args, **kwargs):
        return LemmaReport("CC", {}, {"c": "0"}, {"c": "-1"}, match=False)

    monkeypatch.setitem(climod.LEMMAS, "CC", fake)
    assert main(["lab", "CC", "--a", "-1,1/4,1/5"]) == 1


VERIFY_ARGV = ["verify", "--module", "M", "--a", "-1,-1,1/4", "--B", "2"]


@pytest.mark.parametrize("mismatch", [False, True], ids=["verify-ok", "lab-mismatch"])
def test_closed_stdout_keeps_the_exit_code(capsys, monkeypatch, mismatch):
    # a reader that quit early: writing stdout raises BrokenPipeError, and the
    # run still returns its own exit code with no traceback
    from weightcat import cli as climod
    from weightcat.paperlab import LemmaReport

    monkeypatch.setitem(climod.LEMMAS, "CC", lambda *args, **kwargs: LemmaReport(
        "CC", {}, {"c": "0"}, {"c": "-1"}, match=False))
    argv, code = (["lab", "CC", "--a", "-1,1/4,1/5"], EXIT_MISMATCH) if mismatch else (VERIFY_ARGV, EXIT_OK)
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as closed:
        with pytest.raises(BrokenPipeError):
            closed.write("x")
            closed.flush()
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


def _cli_env(**extra):
    """The environment of a `python -m weightcat.cli` subprocess that imports this tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                **extra)


def test_closed_stdout_pipe_keeps_the_exit_code():
    # the same in a real process: stdout is a pipe whose read end is closed
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "weightcat.cli", *VERIFY_ARGV], stdout=write,
                              stderr=subprocess.PIPE, env=_cli_env(), text=True, timeout=120)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == EXIT_OK, proc.stderr


# argv -> (exit code, digest at COLUMNS=80, digest at COLUMNS=30), a digest being
# the first 16 hex digits of the sha256 of stdout, a NUL and stderr; recorded when
# every run built the parsers of all four subcommands, and the last five when a run
# built the main parser and the one subparser its first word names
PARSER_RUNS = {
    "--help": (0, "3e317f1c7d2f4fc6", "ce2ff0d68e4bd6af"),
    "-h": (0, "3e317f1c7d2f4fc6", "ce2ff0d68e4bd6af"),
    "classify --help": (0, "103836a59f2efee5", "4204ab38bf077322"),
    "verify --help": (0, "334887b35f6653eb", "61d674ce93a1d1a6"),
    "ext --help": (0, "d9329d0e825e443e", "018590b43529b4bd"),
    "lab --help": (0, "48ad0cc85826d54b", "f6afe93a4f27f9f7"),
    "": (2, "72705cb379d70c34", "6d11de18ff3b10ab"),
    "verfy": (2, "cb709da09f6dfa2f", "27d62e6cfecb025e"),
    "--config": (2, "fa292019fe50798d", "b6e77a32537bcc67"),
    "classify": (2, "794f20e4810f273e", "15b5482b56a7963f"),
    "verify": (2, "12741aaa2167651b", "646d9e07171c70e4"),
    "verify --bogus": (2, "12741aaa2167651b", "646d9e07171c70e4"),
    "verify --module X --a 1/2": (2, "7ec04fb040d85b8f", "566e906eca530084"),
    "ext --module N --a 1/2,1/3 --B x": (2, "1dd889acd223cf27", "cc05d8f47c74ab09"),
    "ext --module M --a -1,1/4 --format xml": (2, "9eb21f8e468b282a", "c3151a1acdbbdda5"),
    "classify A3 --theta 1,2 extra": (2, "38da894a4637f7cd", "7114e25937214eb8"),
    "verify --module N --a 1/2,1/3 --config x": (2, "e7e39c130839d7ed", "f9465d6e568edd06"),
    "--config /nonexistent verify": (2, "12741aaa2167651b", "646d9e07171c70e4"),
    "--conf /nonexistent lab": (2, "6d9e1844dbb784fa", "fda68758c1e07936"),
    "lab nolemma --a 1": (2, "cfedd476755cf109", "cfedd476755cf109"),
    "classify A3 --theta 1,3 --format text": (0, "3ae92888410b4cbf", "3ae92888410b4cbf"),
    "ext": (2, "cab7460bc151cf54", "39dd443a3964a9b2"),
    "lab": (2, "6d9e1844dbb784fa", "fda68758c1e07936"),
    "lab --a 1/2,1/3": (2, "7276093d584c9bc5", "9dc7e499962b5d21"),
    "ext --module N": (2, "e12595f83e80725e", "88f44ce2fd52825a"),
    "verify --module N --a 1/2,1/3 --B": (2, "6777bed460329c06", "54a74590ec5cc7be"),
}


@pytest.mark.parametrize("argv", list(PARSER_RUNS))
def test_the_parser_prints_what_it_printed(argv):
    # help, usage errors and their wrapping at two terminal widths, in a real
    # process: a run that builds one subcommand's parser prints the same bytes
    code, *digests = PARSER_RUNS[argv]
    for columns, digest in zip(("80", "30"), digests):
        proc = subprocess.run([sys.executable, "-m", "weightcat.cli", *argv.split()], capture_output=True,
                              env=_cli_env(COLUMNS=columns), text=True, timeout=120)
        got = hashlib.sha256((proc.stdout + "\0" + proc.stderr).encode()).hexdigest()[:16]
        assert (proc.returncode, got) == (code, digest), (columns, proc.stdout, proc.stderr)


def test_a_run_builds_the_parser_of_its_subcommand_alone(monkeypatch, capsys):
    # each call builds its own parser, the one of the subcommand its argv
    # names and no main parser, and keeps none for the next call
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    from weightcat import cli as climod
    monkeypatch.setattr(climod, "argparse", SimpleNamespace(ArgumentParser=Counting))
    argv = ["verify", "--module", "M", "--a", "-1,-1,1/4", "--B", "1"]
    assert main(argv) == EXIT_OK
    assert built == ["weightcat verify"]
    assert main(argv) == EXIT_OK
    assert built == ["weightcat verify"] * 2


def test_json_output_roundtrips(capsys):
    code, out = run(capsys, "classify", "C3", "--theta", "1", "--format", "json")
    report = json.loads(out)
    assert json.loads(json.dumps(report, sort_keys=True)) == report


def test_text_format(capsys):
    code, out = run(capsys, "verify", "--module", "M", "--a", "-1,1/4", "--B", "2",
                    "--format", "text")
    assert code == EXIT_OK and "all_pass: True" in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": "1,4"}))
    code, out = run(capsys, "--config", str(cfg), "classify", "A4")
    assert json.loads(out)["kind"] == "NONTRIVIAL"


def test_config_file_sets_subcommand_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"B": 1}))
    code, out = run(capsys, "--config", str(cfg), "ext", "--module", "N", "--a", "1/2,1/3")
    assert code == EXIT_OK and json.loads(out)["B"] == 1
    # a flag on the command line wins over the file
    code, out = run(capsys, "--config", str(cfg), "ext", "--module", "N", "--a", "1/2,1/3", "--B", "2")
    assert code == EXIT_OK and json.loads(out)["B"] == 2


def test_config_file_may_hold_flags_of_other_subcommands(tmp_path, capsys):
    # one file may serve several subcommands; a key that is no flag of any is an error
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": "1,4", "c": "-1-A", "B": 1}))
    code, out = run(capsys, "--config", str(cfg), "ext", "--module", "N", "--a", "1/2,1/3")
    assert code == EXIT_OK and json.loads(out)["B"] == 1
    cfg.write_text(json.dumps({"B": 1, "radius": 5}))
    assert main(["--config", str(cfg), "ext", "--module", "N", "--a", "1/2,1/3"]) == EXIT_CONFIG
    assert "'radius'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lab", "lemA12", "--a", "1/2"],
    ["lab", "lemA12", "--a", "1/0,1/3"],
    ["lab", "nosuch", "--a", "1/2,1/3"],
    ["lab", "lemA12", "--a", "1/2,1/3", "--c", "5"],
    ["--config", "{missing}", "classify", "A4"],
    ["--config", "{malformed}", "classify", "A4"],
    ["--config", "{fractional_B}", "verify", "--module", "N", "--a", "1/2,1/3"],
    ["--config", "{null_B}", "lab", "lemA12", "--a", "1/2,1/3"],
    ["--config", "{theta_list}", "classify", "A4"],
    ["--config", "{unknown_format}", "classify", "A4"],
    ["--config", "{unknown_key}", "verify", "--module", "N", "--a", "1/2,1/3"],
], ids=["too-few-parameters", "zero-denominator", "unknown-lemma", "bad-branch",
        "missing-config", "malformed-config", "config-fractional-B", "config-null-B",
        "config-theta-list", "config-unknown-format", "config-unknown-key"])
def test_bad_input_is_config_error(argv, tmp_path, capsys):
    configs = {"malformed": "{", "fractional_B": '{"B": 1.5}', "null_B": '{"B": null}',
               "theta_list": '{"theta": [1, 4]}', "unknown_format": '{"format": "xml"}',
               "unknown_key": '{"radius": 5}'}
    paths = {"missing": tmp_path / "missing.json"}
    for name, text in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    assert main([x.format(**paths) for x in argv]) == EXIT_CONFIG
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("a", ["-2", "-1", "-1,-2", "-1,-1", "-1,-1,-1", "-1,-1,-2"])
@pytest.mark.parametrize("radius", ["2", "3"])
def test_integer_tail_modules_are_highest_weight(a, radius, capsys):
    # a single -1/-2 tail leaves no cuspidal simple root: every suite passes
    # with theta the whole base, and ext rejects the shape itself
    code, out = run(capsys, "verify", "--module", "M", "--a", a, "--B", radius)
    assert code == EXIT_OK and json.loads(out)["all_pass"] is True
    assert main(["ext", "--module", "M", "--a", a, "--B", radius]) == EXIT_CONFIG
    assert "family of shape (-1,..,-1,a) required" in capsys.readouterr().err


_NONINT = st.sampled_from(["1/2", "1/3", "-3/4", "5/2", "2/7"])
# free draws of every entry kind, and vectors of the family shapes (-1.., z.., 0..)
# and (-1.., -1 or -2) that the module parsers accept
_VECTORS = st.one_of(
    st.lists(st.sampled_from(["-2", "-1", "0", "1/2", "1/3", "x", "1/0", ""]),
             min_size=1, max_size=4),
    st.builds(lambda j, z, zeros: ["-1"] * j + z + ["0"] * zeros,
              st.integers(0, 1), st.lists(_NONINT, min_size=1, max_size=2), st.integers(0, 1)),
    st.builds(lambda j, tail: ["-1"] * j + [tail],
              st.integers(0, 3), st.sampled_from(["-1", "-2"])),
).map(",".join)


# the rank >= 2 shapes the ext solvers accept: (-1.., z1, z2, 0..) for N, (-1.., z) for M
_EXT_SHAPES = {
    "N": st.builds(lambda j, z, zeros: ["-1"] * j + z + ["0"] * zeros,
                   st.integers(1, 2), st.lists(_NONINT, min_size=2, max_size=2), st.integers(1, 2)),
    "M": st.builds(lambda j, z: ["-1"] * j + [z], st.integers(1, 3), _NONINT),
}


# the vectors each lab lemma accepts, read from paperlab's shape checks: two
# non-integers (lemA12, appendix-a3), an interior type A block (-1.., z1, z2, 0..)
# (A1N) or one of at least three entries (AkAn), a trailing type C block of at
# least two entries (CC), and two non-integers summing to -1/2 or -3/2 (AC1)
_TWO_NONINT = st.lists(_NONINT, min_size=2, max_size=2)
_LAB_SHAPES = {
    "lemA12": _TWO_NONINT,
    "appendix-a3": _TWO_NONINT,
    "A1N": _EXT_SHAPES["N"],
    "AkAn": st.builds(lambda j, z, zeros: ["-1"] * j + z + ["0"] * zeros,
                      st.integers(1, 2), st.lists(_NONINT, min_size=3, max_size=4), st.integers(1, 2)),
    "CC": st.builds(lambda j, z: ["-1"] * j + z,
                    st.integers(1, 2), st.lists(_NONINT, min_size=2, max_size=3)),
    "AC1": st.builds(lambda a1, total: [a1, str(Fraction(total) - Fraction(a1))],
                     st.sampled_from(["1/3", "-3/4", "2/7"]), st.sampled_from(["-1/2", "-3/2"])),
}


def _shift_free_entry(entries, pick):
    """The vector with its pick-th non-integer entry moved by 1/5: the pair has
    one family shape and disjoint weight supports (no denominator in _NONINT is 5)."""
    free = [i for i, x in enumerate(entries) if x not in ("-1", "0")]
    i = free[pick % len(free)]
    return ",".join(str(Fraction(x) + Fraction(1, 5)) if j == i else x for j, x in enumerate(entries))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["classify", "verify", "ext", "lab"]))
    depth = st.integers(0, 3)
    if command == "classify":
        theta = draw(st.lists(st.sampled_from(["1", "2", "3", "4", "5", "x"]), max_size=4))
        argv = [command, draw(st.sampled_from(["A1", "A3", "A4", "C2", "C4", "G2", "D4", "Q7"])),
                "--theta", ",".join(theta)]
    elif command == "lab":
        lemma = draw(st.sampled_from(["lemA12", "A1N", "AkAn", "AC1", "CC", "appendix-a3",
                                      "nosuch"]))
        # three draws in four take a vector and a branch the lemma accepts, and of
        # those three in four a depth it accepts (at least 1); the rest draw the
        # depth from -1..3, which keeps the refusal of 0 and -1 in reach
        shaped = lemma in _LAB_SHAPES and draw(st.integers(0, 3)) > 0
        a = ",".join(draw(_LAB_SHAPES[lemma])) if shaped else draw(_VECTORS)
        branch = draw(st.sampled_from(["0", "-1-A"] + ([] if shaped else ["5"])))
        argv = [command, lemma, "--a", a, "--c", branch]
        depth = st.integers(1 if shaped and draw(st.integers(0, 3)) else -1, 3)
    else:
        module = draw(st.sampled_from(["N", "M"]))
        b = draw(st.sampled_from(["a", "drawn", "shifted"])) if command == "ext" else "a"
        if b == "shifted":
            a = draw(_EXT_SHAPES[module])
            argv = [command, "--module", module, "--a", ",".join(a),
                    "--b", _shift_free_entry(a, draw(st.integers(0, 1)))]
        else:
            argv = [command, "--module", module, "--a", draw(_VECTORS)]
            if b == "drawn":
                argv += ["--b", draw(_VECTORS)]
    return argv + ["--B", str(draw(st.integers(-1, 2))), "--D", str(draw(depth))]


# distinct lab inputs that must run a lemma to a report (exit 0 or 1) at the
# drawn --D: 32 of the 58 do, the four lab examples included, against 7 of 49
# when half the lab draws were shaped and every one took --D from 0..3
_LAB_REPORT_FLOOR = 25


def test_cli_exit_code_contract():
    lab_reports = set()

    # the seed `derandomize=True` took from a digest of this function's code when
    # the floor was measured: pinned, so that editing the body keeps its draws
    @seed(0x3b25ffaa1781d1c643e9a45dc3f04ec2d16e96ce71b9b26d7b40572a24dde77ecd6678ac8f0ca824af915220ce5e9f7)
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(_argv())
    @example(["verify", "--module", "M", "--a", "-2", "--B", "1"])
    @example(["verify", "--module", "M", "--a", "-1,-2", "--B", "2"])
    @example(["verify", "--module", "M", "--a", "-1,-1,-1", "--B", "2"])
    @example(["ext", "--module", "N", "--a", "1/2,1/3", "--B", "2"])
    @example(["ext", "--module", "N", "--a", "-1,1/2,1/3,0", "--b", "-1,1/3,1/2,0", "--B", "2"])
    # four lemmas run to a report whatever the draws
    @example(["lab", "appendix-a3", "--a", "1/2,1/3", "--c", "-1-A", "--B", "2", "--D", "3"])
    @example(["lab", "AkAn", "--a", "-1,1/3,2/7,-3/4,0", "--c", "0", "--B", "2", "--D", "3"])
    @example(["lab", "CC", "--a", "-1,1/3,2/7", "--c", "0", "--B", "2", "--D", "2"])
    @example(["lab", "AC1", "--a", "1/3,-5/6", "--c", "-1-A", "--B", "2", "--D", "2"])
    def contract(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_CONFIG, EXIT_UNCERTIFIED), argv
        if argv[0] != "classify":
            # the same input on a window far above the limit is refused, printing nothing
            at = argv.index("--B") + 1
            huge = argv[:at] + [str(10**12)] + argv[at + 1:]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main(huge) == EXIT_CONFIG, huge
            assert out.getvalue() == "", huge
        if argv[0] == "lab":
            if code in (EXIT_OK, EXIT_MISMATCH):
                lab_reports.add(tuple(argv))
            # a truncation depth far above any weight a lemma reads only bounds it
            at = argv.index("--D") + 1
            deep = argv[:at] + [str(10**9)] + argv[at + 1:]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(deep) in (EXIT_OK, EXIT_MISMATCH, EXIT_CONFIG, EXIT_UNCERTIFIED), deep
        if argv[0] == "verify":
            try:
                build_module(argv[2], _parse_params(argv[4]))
            except ValueError:
                return
            # a module the parser accepts passes every suite
            assert code != EXIT_MISMATCH, argv

    contract()
    # the fuzz reaches the lemmas, not only their configuration errors
    assert len(lab_reports) >= _LAB_REPORT_FLOOR, sorted(lab_reports)


def test_cli_exit_code_contract_certifies_every_ext_self_pair_it_accepts():
    # ext self pairs of the contract's family shapes at B >= 1: a pair the solver
    # accepts is certified on the window, as the cheap identities through alpha
    # reach full rank, so no read is refused with exit 3.  (Its own test, so the
    # contract's draws and its lab floor do not depend on it.)
    accepted = []

    # pinned as the contract's seed is, so that editing the body keeps its draws
    @seed(0x535aea2c0bc91a0f214aa2d144c1f566abda7aad15085da3b4b304579ed910f296dee413440a735637ccbebc07b8cc63)
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(st.sampled_from(["N", "M"]).flatmap(lambda m: _EXT_SHAPES[m].map(lambda a: (m, ",".join(a)))),
           st.sampled_from(["1", "2"]))
    def certified(shape, radius):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["ext", "--module", shape[0], "--a", shape[1], "--B", radius])
        assert code in (EXIT_OK, EXIT_CONFIG), (shape, radius)
        if code == EXIT_OK:
            accepted.append(shape)

    certified()
    # the draws reach the normal form, not only refusals (30 distinct of 40)
    assert len(set(accepted)) >= 10
