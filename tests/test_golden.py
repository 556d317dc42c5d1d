"""Byte-for-byte golden outputs of the README command forms.

`CASES` is the one table of command forms.  Each case runs `kmcert.cli.main`
twice: in-process, and in a fresh interpreter (under -O when pytest runs
under -O).  Both compare the exit code and the exact stdout with
`tests/golden/<name>.txt`, whose first line is `exit <code>` and whose
remainder is stdout; the fresh run also compares the kmcert modules it
loaded with `LOADS`.  The GCM inputs live in `tests/golden/gcm/`.
Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kmcert import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GCM = GOLDEN / "gcm"

CASES = {
    "classify_a2": ["classify", "--gcm", "A2.gcm"],
    "classify_affine_a2": ["classify", "--gcm", "AFF_A2.gcm"],
    "classify_decomposable": ["classify", "--gcm", "A1xA1.gcm"],
    "roots_a2": ["roots", "--gcm", "A2.gcm", "--height-cap", "12"],
    "sigma_a3": ["sigma", "--gcm", "A3.gcm"],
    "sigma_a3_pseudo": ["sigma", "--gcm", "A3.gcm", "--pseudo", "1,2"],
    "bounds_b2_z53": ["bounds", "--gcm", "B2.gcm", "--ring", "Z/53"],
    "certify_a2_certified": ["certify", "--gcm", "A2.gcm", "--ring", "poly(Zloc!4)"],
    "certify_a2_failed": ["certify", "--gcm", "A2.gcm", "--ring", "Z/2"],
    "certify_ind3_indefinite": ["certify", "--gcm", "IND3.gcm", "--ring", "Zloc!4"],
    # all four certificate kinds: identity embeddings, Weyl words, disjoint
    # supports and empty intervals
    "certify_aff_c5": ["certify", "--gcm", "AFF_C5.gcm", "--ring", "Z/1000003"],
    # 2-spherical and not symmetrizable: real roots have no norm test
    "certify_nonsym3": ["certify", "--gcm", "NONSYM3.gcm", "--ring", "Z/1000003"],
    # the Gaussian scan past two inert primes (7 -> 49, 11 -> 121, so m = 13)
    # under the poly(...) spelling, and a failed min_ideal_index
    "certify_b2_poly_zi6": ["certify", "--gcm", "B2.gcm", "--ring", "poly(Zi!6)"],
    "verify_chevalley_a2": ["verify", "chevalley", "--type", "a2", "--q", "3"],
    "verify_chevalley_b2": ["verify", "chevalley", "--type", "b2", "--q", "3"],
    "verify_chevalley_g2": ["verify", "chevalley", "--type", "g2", "--q", "3"],
    # the most frequent bench rank2 call: the reduced laws drop every even
    # coefficient and the G2 quotient checks are skipped
    "verify_chevalley_g2_q2": ["verify", "chevalley", "--type", "g2", "--q", "2"],
    "verify_chevalley_g2_q5": ["verify", "chevalley", "--type", "g2", "--q", "5"],
    # the other admitted q where the v4 dictionary runs: gcd(q, 6) = 1, q <= 10
    "verify_chevalley_g2_q7": ["verify", "chevalley", "--type", "g2", "--q", "7"],
    "verify_generation_sl3": ["verify", "generation", "--group", "sl3", "--q", "3"],
    "verify_generation_sp4": ["verify", "generation", "--group", "sp4", "--q", "3"],
    # |SL3(7)| = 5,630,688, ordered by Schreier-Sims without listing it
    "verify_generation_sl3_q7": ["verify", "generation", "--group", "sl3", "--q", "7"],
    "verify_affine": ["verify", "affine", "--d", "3", "--q", "5", "--window", "6"],
    # the largest d with the smallest window
    "verify_affine_d5_q3_w4": ["verify", "affine", "--d", "5", "--q", "3", "--window", "4"],
    # the largest admitted q, whose zero divisors cancel the most cells
    "verify_affine_d4_q16_w6": ["verify", "affine", "--d", "4", "--q", "16", "--window", "6"],
    # every affine limit at once: AFFINE_MAX_D, AFFINE_MAX_Q, AFFINE_MAX_WINDOW
    "verify_affine_d5_q16_w64": ["verify", "affine", "--d", "5", "--q", "16", "--window", "64"],
    "verify_symrep": ["verify", "symrep", "--n", "4", "--q", "5"],
    # SYMREP_MAX_N: the 8 x 8 matrix law and the oracle at their largest size
    "verify_symrep_n8_q13": ["verify", "symrep", "--n", "8", "--q", "13"],
    "verify_transport": ["verify", "transport", "--q", "5", "--samples", "2000", "--seed", "0"],
    "verify_transport_bad_modulus": ["verify", "transport", "--q", "6"],
    "text_certify_a2_failed": ["--format", "text", "certify", "--gcm", "A2.gcm", "--ring", "Z/2"],
}

# a command loads only what it runs: command words (`_words`) -> the kmcert
# modules a fresh process has loaded when the command returns
_CLI = {"kmcert", "kmcert.cli", "kmcert.errors"}
_GCM = _CLI | {"kmcert.gcm"}
_SIGMA = _GCM | {"kmcert.roots", "kmcert.sigma"}
_SYMREP = _CLI | {"kmcert.symrep", "kmcert.polylaw", "kmcert.report"}
_CHEVALLEY = _SYMREP | {"kmcert.chevalley", "kmcert.gcm", "kmcert.roots"}
LOADS = {
    ("classify",): _GCM,
    ("roots",): _GCM | {"kmcert.roots"},
    ("sigma",): _SIGMA,
    ("bounds",): _SIGMA | {"kmcert.bounds"},
    ("certify",): _SIGMA | {"kmcert.bounds"},
    ("verify", "chevalley"): _CHEVALLEY,
    ("verify", "generation"): _CHEVALLEY | {"kmcert.bounds", "kmcert.sigma", "kmcert.permgroup"},
    ("verify", "affine"): _CHEVALLEY,
    ("verify", "symrep"): _SYMREP,
    ("verify", "transport"): _SYMREP,
}

# runs cli.main(argv) and then prints the loaded kmcert modules as the last
# line of stderr, also when main exits through argparse
_CHILD = (
    "import json, sys\n"
    "from kmcert import cli\n"
    "try:\n"
    "    sys.exit(cli.main(sys.argv[1:]))\n"
    "finally:\n"
    "    print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'kmcert')), file=sys.stderr)\n"
)


def _argv(args):
    return [str(GCM / a) if a.endswith(".gcm") else a for a in args]


def _words(argv):
    """The command words of the Namespace `cli._plain_args` reads from `argv`."""
    args = vars(cli._plain_args(argv))
    return tuple(args[k] for k in ("command", "suite") if k in args)


def _render(code, out):
    return f"exit {code}\n{out}"


def _golden(name):
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def _run_fresh(argv):
    """Exit code, stdout, stderr lines and sorted loaded kmcert modules of
    `cli.main(argv)` in a new interpreter that writes no bytecode; the
    stderr must hold no traceback."""
    # argparse wraps help to COLUMNS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    proc = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", _CHILD, *argv],
                          capture_output=True, env=env, timeout=60)
    stderr = proc.stderr.decode("utf-8")
    assert "Traceback" not in stderr, stderr  # the CLI never prints one
    *err, modules = stderr.splitlines()
    return proc.returncode, proc.stdout.decode("utf-8"), err, json.loads(modules)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    code = cli.main(_argv(CASES[name]))
    assert _render(code, capsys.readouterr().out) == _golden(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fresh_process(name):
    argv = _argv(CASES[name])
    code, out, err, modules = _run_fresh(argv)
    assert _render(code, out) == _golden(name), err
    assert modules == sorted(LOADS[_words(argv)])


def test_help_and_usage_error_fresh_process():
    # --help builds the full parser tree and a usage error only its branch;
    # each exits as argparse does, loading no command's modules
    code, out, err, modules = _run_fresh(["--help"])
    assert (code, err, modules) == (0, [], sorted(_CLI))
    for words in cli._COMMANDS:
        if len(words) == 1:
            assert re.search(rf"^ +{words[0]} +\S", out, re.MULTILINE), (words, out)
    code, out, err, modules = _run_fresh(_argv(["certify", "--gcm", "A2.gcm"]))
    assert (code, out, modules) == (2, "", sorted(_CLI))
    assert err[0].startswith("usage: kmcert certify"), err


def test_cases_match_golden_files():
    # a golden file without a case would never be checked
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def test_loads_cover_every_command():
    handled = {words for words, (_, func, _) in cli._COMMANDS.items() if func is not None}
    assert set(LOADS) == handled
    assert {_words(_argv(args)) for args in CASES.values()} == handled


def test_calls_in_one_process_do_not_leak(capsys):
    # main may run many times in one process: no call may see another's
    # --format, argparse error or output
    for name in ("text_certify_a2_failed", "certify_a2_failed", "roots_a2", "classify_a2"):
        code = cli.main(_argv(CASES[name]))
        assert _render(code, capsys.readouterr().out) == _golden(name), name
    with pytest.raises(SystemExit) as exc:
        cli.main(_argv(["--format", "text", "certify", "--gcm", "A2.gcm", "--ring"]))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code = cli.main(_argv(CASES["certify_a2_certified"]))
    assert _render(code, capsys.readouterr().out) == _golden("certify_a2_certified")


def _regenerate():
    import contextlib
    import io

    for name, args in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(_argv(args))
        (GOLDEN / f"{name}.txt").write_text(_render(code, buf.getvalue()), encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
