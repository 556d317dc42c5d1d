import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmcert import bounds as bd
from kmcert import chevalley as ch
from kmcert import cli
from kmcert import symrep as sr

from conftest import A2, B2, NOT_2SPH, gcm_text, readme_cli_forms, readme_cli_lines

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "report.json").read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def _validate(payload):
    jsonschema.validate(payload, SCHEMA)


# --------------------------------------------------------------- classify ---


def test_classify_ok(capsys, write_gcm):
    code, payload, _ = run_json(capsys, "classify", "--gcm", write_gcm(A2))
    assert code == 0
    assert payload["kind"] == "Spherical"
    assert payload["nA"] == 4
    _validate(payload)


def test_classify_axiom_violation(capsys, tmp_path):
    p = tmp_path / "bad.gcm"
    p.write_text("2\n2 0\n-1 2\n")  # a_12 = 0 but a_21 != 0
    code, out, err = run_cli(capsys, "classify", "--gcm", str(p))
    assert code == 2 and out == ""
    assert "error" in err


def test_classify_missing_file(capsys):
    code, out, err = run_cli(capsys, "classify", "--gcm", "/nonexistent/x.gcm")
    assert code == 2 and "cannot read" in err


def test_classify_parse_position(capsys, tmp_path):
    p = tmp_path / "bad.gcm"
    p.write_text("2\n2 -1\n-1 x\n")
    code, _, err = run_cli(capsys, "classify", "--gcm", str(p))
    assert code == 2 and "line 3" in err


def test_classify_non_utf8_file(capsys, tmp_path):
    # a decode error is bad input (exit 2), not a negative verdict or a traceback
    for data, line in ((b"\xff\xfe2\n2 -1\n-1 2\n", 1), (b"2\n2 -1\n-1 \xff2\n", 3)):
        p = tmp_path / "latin.gcm"
        p.write_bytes(data)
        code, out, err = run_cli(capsys, "classify", "--gcm", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"not UTF-8 text (line {line})" in err


# ------------------------------------------------------------- roots/sigma ---


def test_roots_sorted_and_valid(capsys, write_gcm):
    code, payload, _ = run_json(capsys, "roots", "--gcm", write_gcm(B2), "--height-cap", "10")
    assert code == 0 and len(payload) == 8
    heights = [sum(abs(c) for c in e["coeffs"]) for e in payload]
    assert heights == sorted(heights)
    _validate(payload)


def test_sigma_full(capsys, write_gcm):
    code, payload, _ = run_json(capsys, "sigma", "--gcm", write_gcm(A2))
    assert code == 0
    assert payload["sigma"] == [[1, 0], [0, 1], [-1, -1]]
    assert len(payload["certificates"]) == 3
    _validate(payload)


def test_sigma_pseudo(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "sigma", "--gcm", write_gcm(A2), "--pseudo", "1,2"
    )
    assert code == 0 and payload["index_set"] == [1, 2]
    _validate(payload)


def test_sigma_pseudo_bad_list(capsys, write_gcm):
    code, _, err = run_cli(capsys, "sigma", "--gcm", write_gcm(A2), "--pseudo", "1,x")
    assert code == 2 and "--pseudo" in err


def test_sigma_pseudo_empty_list(capsys, write_gcm):
    # an empty list is a bad list, not a request for the full Sigma
    code, out, err = run_cli(capsys, "sigma", "--gcm", write_gcm(A2), "--pseudo", "")
    assert (code, out) == (2, "")
    assert err == "error: bad --pseudo list '' (line 1)\n"


def test_sigma_not_two_spherical(capsys, write_gcm):
    code, _, err = run_cli(capsys, "sigma", "--gcm", write_gcm(NOT_2SPH))
    assert code == 2 and "NotTwoSpherical" in err


# ---------------------------------------------------------- bounds/certify ---


def test_bounds_all_below(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "bounds", "--gcm", write_gcm(A2), "--ring", "Z/5"
    )
    assert code == 0 and payload["verdict"] == "AllBelow"
    _validate(payload)


def test_bounds_fails(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "bounds", "--gcm", write_gcm(B2), "--ring", "Z/5"
    )
    assert code == 1 and payload["verdict"] == "Fails"
    _validate(payload)


def test_bounds_ring_parse_error(capsys, write_gcm):
    code, _, err = run_cli(capsys, "bounds", "--gcm", write_gcm(A2), "--ring", "Z/x")
    assert code == 2 and "col 3" in err


def test_certify_verdicts(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "certify", "--gcm", write_gcm(A2), "--ring", "Z/5"
    )
    assert code == 0 and payload["verdict"] == "certified"
    _validate(payload)

    code, payload, _ = run_json(
        capsys, "certify", "--gcm", write_gcm(B2), "--ring", "Z/5"
    )
    assert code == 1 and payload["verdict"] == "failed"
    _validate(payload)

    code, payload, _ = run_json(
        capsys, "certify", "--gcm", write_gcm(B2), "--ring", "Z/53"
    )
    assert code == 0 and payload["verdict"] == "certified"
    _validate(payload)


@pytest.mark.parametrize(
    "ring, code",
    [
        (f"Z/{bd.RING_MAX_MODULUS}", 1),  # the limit itself is certified or failed
        (f"Z/{bd.RING_MAX_MODULUS + 1}", 2),
        (f"poly(Z/{bd.RING_MAX_MODULUS + 1})", 2),
        # the same limit bounds the factorial cutoff n of Zloc!n and Zi!n
        (f"Zloc!{bd.RING_MAX_MODULUS}", 0),
        (f"Zloc!{bd.RING_MAX_MODULUS + 1}", 2),
        (f"poly(Zloc!{bd.RING_MAX_MODULUS})", 0),
        (f"poly(Zloc!{bd.RING_MAX_MODULUS + 1})", 2),
        (f"Zi!{bd.RING_MAX_MODULUS}", 0),
        (f"Zi!{bd.RING_MAX_MODULUS + 1}", 2),
        (f"poly(Zi!{bd.RING_MAX_MODULUS})", 0),
        (f"poly(Zi!{bd.RING_MAX_MODULUS + 1})", 2),
    ],
)
def test_certify_ring_modulus_limit(capsys, write_gcm, ring, code):
    # m(Z/q) costs trial division up to sqrt(q), and m(Zloc!n) and m(Zi!n)
    # trial division of the numbers above n, so larger q and n are refused
    got, out, err = run_cli(capsys, "certify", "--gcm", write_gcm(A2), "--ring", ring)
    assert got == code and "Traceback" not in err
    if code == 2:
        assert out == "" and "BadModulus" in err


# ----------------------------------------------------------------- verify ---


def test_verify_chevalley(capsys):
    code, payload, _ = run_json(capsys, "verify", "chevalley", "--type", "a2", "--q", "3")
    assert code == 0 and payload["ok"]
    _validate(payload)


def test_verify_chevalley_passing_payload_is_seed_independent(capsys):
    # a passing payload holds only counts, so no coefficient draw reaches it
    argv = ("verify", "chevalley", "--type", "b2", "--q", "5", "--seed")
    code, out0, _ = run_cli(capsys, *argv, "0")
    assert code == 0
    assert run_cli(capsys, *argv, "7")[1] == out0


def test_verify_generation(capsys):
    code, payload, _ = run_json(capsys, "verify", "generation", "--group", "sl3", "--q", "2")
    assert code == 0 and payload["ok"]
    assert payload["order"] == 168
    _validate(payload)


def test_verify_generation_non_prime_modulus(capsys):
    code, out, err = run_cli(capsys, "verify", "generation", "--group", "sl3", "--q", "4")
    assert code == 2 and out == ""
    assert "BadModulus" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("generation", "--group", "sp4", "--q", "2"),  # B2 needs 2 invertible
        ("affine", "--q", "0"),
        ("affine", "--q", "-3"),
        ("affine", "--q", "1"),
        ("symrep", "--q", "1"),
        ("symrep", "--q", "0"),
        ("symrep", "--q", "-2"),
        ("affine", "--q", str(ch.AFFINE_MAX_Q + 1)),  # q^2 work: bounded
        ("symrep", "--q", str(sr.SYMREP_MAX_Q + 1)),
        # the prime after GENERATION_MAX_Q: refused before any permutation
        ("generation", "--group", "sl3", "--q", "11"),
        ("generation", "--group", "sp4", "--q", "7"),
        # closure order over CLOSURE_CAP: refused before any product
        ("chevalley", "--type", "a2", "--q", "101"),
        ("chevalley", "--type", "g2", "--q", "11"),
        ("chevalley", "--type", "a2", "--q", "1"),
    ],
)
def test_verify_bad_modulus(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "BadModulus" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, error",
    [
        (("symrep", "--n", str(sr.SYMREP_MAX_N + 1)), "BadN"),
        (("affine", "--d", str(ch.AFFINE_MAX_D + 1)), "TypeMismatch"),
        (("affine", "--window", str(ch.AFFINE_MAX_WINDOW + 1)), "TypeMismatch"),
        (("transport", "--samples", str(sr.TRANSPORT_MAX_SAMPLES + 1)), "TypeMismatch"),
    ],
)
def test_verify_flag_over_limit(capsys, argv, error):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert error in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["chevalley --type a2", "generation --group sl3"])
def test_closure_cap_flag_is_gone(capsys, suite):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *suite.split(), "--q", "3", "--closure-cap", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --closure-cap" in capsys.readouterr().err


def test_verify_affine(capsys):
    code, payload, _ = run_json(capsys, "verify", "affine", "--d", "3", "--q", "3")
    assert code == 0 and payload["ok"]
    _validate(payload)


def test_verify_symrep(capsys):
    code, payload, _ = run_json(capsys, "verify", "symrep", "--n", "4", "--q", "7")
    assert code == 0 and payload["ok"]
    _validate(payload)


def test_verify_transport(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "transport", "--q", "5", "--samples", "100", "--seed", "0"
    )
    assert code == 0 and payload["ok"]
    names = [c["name"] for c in payload["checks"]]
    assert "dag_acyclic" in names  # ledger checks merged in
    _validate(payload)


def test_verify_transport_passing_payload_is_seed_independent(capsys):
    # a passing payload holds only tried/failed counts and the ledger, so the
    # sample stream reaches no byte of it but the report name; only a
    # failure's witness would print a sampled vector
    argv = ("verify", "transport", "--q", "7", "--samples", "200", "--seed")
    _, out1, _ = run_cli(capsys, *argv, "1")
    _, out2, _ = run_cli(capsys, *argv, "2")
    p1, p2 = json.loads(out1), json.loads(out2)
    assert (p1.pop("report"), p2.pop("report")) == (
        "transport_q7_n200_seed1",
        "transport_q7_n200_seed2",
    )
    assert p1 == p2 and p1["ok"]
    assert out1.replace("seed1", "seed2") == out2


def test_verify_transport_wrong_target_exits_1(capsys, wrong_transport_target):
    code, payload, _ = run_json(capsys, "verify", "transport", "--q", "5", "--samples", "20")
    assert code == 1 and not payload["ok"]
    bad = [c for c in payload["checks"] if c["failed"]]
    assert [c["name"] for c in bad] == ["uplust_B_minus_S_to_A4o"]
    assert bad[0]["witness"]["stage"] == "A1_strict"
    _validate(payload)


def test_verify_transport_bad_modulus(capsys):
    code, out, err = run_cli(capsys, "verify", "transport", "--q", "6")
    assert code == 2 and out == ""
    assert "modulus must be coprime to 6" in err


# ------------------------------------------------------------ output modes ---


def test_reruns_byte_identical(capsys, write_gcm):
    path = write_gcm(A2)
    _, out1, _ = run_cli(capsys, "classify", "--gcm", path)
    _, out2, _ = run_cli(capsys, "classify", "--gcm", path)
    assert out1 == out2
    _, t1, _ = run_cli(capsys, "verify", "transport", "--q", "5", "--samples", "50")
    _, t2, _ = run_cli(capsys, "verify", "transport", "--q", "5", "--samples", "50")
    assert t1 == t2


def test_closed_stdout_exits_2_without_traceback():
    # the read end is closed before the suite writes, so the first write
    # fails with EPIPE whatever the timing or buffering
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kmcert.cli", "verify", "symrep", "--n", "8", "--q", "128"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


# ---------------------------------------------------------- module loading ---

_ROOT = Path(__file__).resolve().parent.parent


def _fresh(script, *args):
    """stdout of `script` run in a new interpreter that writes no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_only_cli_modules():
    # each command's modules are checked by tests/test_golden.py
    script = (
        "import json, sys\n"
        "import kmcert.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'kmcert')))\n"
    )
    assert _fresh(script) == ["kmcert", "kmcert.cli", "kmcert.errors"]


def test_package_attributes_import_submodules():
    # bench/tracer.py reads kmcert.chevalley, kmcert.symrep, ... off the package
    names = sorted(p.stem for p in (_ROOT / "src" / "kmcert").glob("*.py") if p.stem != "__init__")
    script = (
        "import json, sys, kmcert\n"
        "before = sorted(m for m in sys.modules if m.startswith('kmcert.'))\n"
        "resolved = [getattr(kmcert, n).__name__ for n in sys.argv[1:]]\n"
        "try:\n"
        "    kmcert.no_such_module\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps([before, resolved, unknown]))\n"
    )
    before, resolved, unknown = _fresh(script, *names)
    assert len(names) == 11
    assert before == []
    assert resolved == [f"kmcert.{n}" for n in names]
    assert unknown == "module 'kmcert' has no attribute 'no_such_module'"


def test_text_format(capsys, write_gcm):
    code, out, _ = run_cli(
        capsys, "--format", "text", "classify", "--gcm", write_gcm(A2)
    )
    assert code == 0
    assert "kind: Spherical" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


# ----------------------------------------------------------------- parser ---

# one argv in the shape bench/corpus.py gives each operation family
BENCH_FAMILY_ARGVS = [
    ["certify", "--gcm", "bench/out/small-3-0.gcm", "--ring", "Zloc!4"],
    ["verify", "chevalley", "--type", "g2", "--q", "2", "--seed", "123456"],
    ["verify", "generation", "--group", "sl3", "--q", "3"],
    ["verify", "affine", "--d", "4", "--q", "5", "--window", "6"],
    ["verify", "transport", "--q", "35", "--samples", "300", "--seed", "9"],
    ["verify", "symrep", "--n", "6", "--q", "11"],
]
PARSE_ERROR_ARGVS = [
    ["certify", "--gcm", "A2.gcm", "--ring", "Z/53", "--format", "text"],
    ["certify", "--gcm"],
    ["certify", "--gcm", "A2.gcm"],
    ["verify", "transport", "--q"],
    ["--format", "xml", "classify", "--gcm", "A2.gcm"],
    ["--format=", "classify", "--gcm", "A2.gcm"],
    ["verify", "chevalley", "--type", "c2"],
    ["verify", "transport", "--q", "x"],
    ["classify", "--gcm", "A2.gcm", "--q", "x"],
    ["--q", "x"],
    ["certify", "-h"],
    ["verify", "transport", "-h"],
    ["--fo=text", "certify", "--gcm", "A2.gcm", "--ring", "Z/53"],
    ["--f", "text", "--format", "json", "roots", "--gcm", "A2.gcm"],
    ["certify", "--gcm", "A2.gcm", "--ring", "Z/53", "extra"],
    ["verify", "symrep", "5"],
    ["certify", "certify"],
    ["sigma", "--gcm", "A2.gcm", "--pseudo"],
    ["verify", "transport", "--s", "5", "--se=3"],
    [],
    ["-h"],
    ["--format"],
    ["--format", "-h", "certify"],
    ["cert", "--gcm", "A2.gcm"],
    ["verify"],
    ["verify", "-h"],
    ["verify", "--q", "5", "transport"],
]
# a README line without optional parts gives the same argv twice
README_ARGVS = [list(argv) for argv in dict.fromkeys(
    tuple(argv) for line in readme_cli_lines() for argv in readme_cli_forms(line))]


def _parse_outcome(parser, argv, capsys):
    try:
        outcome = parser.parse_args(argv)
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", README_ARGVS + BENCH_FAMILY_ARGVS + PARSE_ERROR_ARGVS, ids=" ".join)
def test_branch_parser_matches_full_parser(argv, capsys, monkeypatch):
    # the same Namespace or exit code, and the same help and usage bytes
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_outcome(cli.build_parser(argv), argv, capsys) == _parse_outcome(cli.build_parser(), argv, capsys)


def test_unknown_names_are_errors_of_the_full_tree(capsys):
    # argparse quotes a level's dest here, which a metavar would replace
    for argv, name in ((["cert"], "command"), (["verify", "bogus"], "suite")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"error: argument {name}: invalid choice: {argv[-1]!r}" in capsys.readouterr().err


def test_named_path():
    for argv in (["-h"], ["--help"], ["--", "certify"], ["--format"], ["--format", "-h", "certify"],
                 ["cert", "--gcm", "x"], ["verify"], ["verify", "--q", "5", "transport"]):
        assert cli._named_path(argv) is None, argv
    for argv in README_ARGVS + BENCH_FAMILY_ARGVS:
        assert cli._named_path(argv) == tuple(argv[:2] if argv[0] == "verify" else argv[:1])
    for argv in (["--fo", "text", "certify"], ["--format=text", "certify"], ["--f=json", "--fo", "x", "certify"]):
        assert cli._named_path(argv) == ("certify",)


def test_parser_build_counts(capsys, monkeypatch, write_gcm):
    # every call builds its own parser: 2 for a command, 3 for a verify suite
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def count(*calls):
        built.clear()
        for call in calls:
            call()
        capsys.readouterr()
        return len(built)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    certify = partial(cli.main, ["certify", "--gcm", write_gcm(A2), "--ring", "Z/53"])
    assert count(certify) == 2
    assert count(partial(cli.main, ["verify", "transport", "--q", "5", "--samples", "10"])) == 3
    assert count(cli.build_parser) == 12
    assert count(certify, certify) == 4


# ------------------------------------------------------------ JSON writer ---

# quotes, backslashes, control characters, non-ASCII (BMP and astral) and
# the line separators JavaScript does not allow in strings
_AWKWARD_TEXT = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\r\x08\x0c aZ9é€\u2028\ud7ff\U0001f600'), max_size=8)
_TEXT = _AWKWARD_TEXT | st.text(max_size=8)
_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e300, 0.1, -2.5]) | st.floats()
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
           | _FLOATS | _TEXT)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(st.integers(-(2**70), 2**70), max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)
                   | st.dictionaries(_FLOATS, inner, max_size=3)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(value=_JSON_VALUES)
@example(value={"a": {}, "b": [], "c": [[], {}, [[]], {"": {}}], "d": ()})
@example(value={'"\\\x00\x1f\x7fé\U0001f600': [True, False, None, 1, True, -0.0]})
@example(value=[math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e300, -(10**40), 10**40])
@example(value={True: 1, False: 2})
@example(value={None: 0})
def test_json_writer_matches_json_dumps(value):
    # byte for byte; on Python 3.13 json.dumps takes its C indent path, so
    # this also compares the writer with the C encoder
    assert cli._to_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_rejects_what_json_rejects():
    for value in ({"a": [1, Fraction(1, 2)]}, Fraction(1, 3), {"a": {(1, 2): 3}}, {1: 0, "a": 1}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._to_json(value)
